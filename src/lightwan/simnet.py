"""Packet-level discrete-event simulation of a designed topology.

Links are full-duplex with drop-tail FIFO queues per direction; flows are
constant-rate datagram streams derived from the traffic matrix, two per
site pair (one each way). Routing tables carry per-destination weighted
next hops; multipath splits are applied per packet by a seeded draw, or
per flow when hashing is enabled.

One event per generated packet and one per intermediate hop: with
drop-tail FIFO and a fixed packet size, a link fixes a packet's departure
when it admits the packet. A fixed-path flow's packet (one next hop at every
node of its path; every flow under hashing) is delivered when its last
link admits it. That is exact: each admission moves a link's end of
transmission strictly later, so one flow's packets arrive in admission
order, the order their arrival events would pop in. Per-packet multipath
packets can overtake one another and keep their arrival event. Tie rule,
departures before arrivals: a transmission that starts at exactly the
time a packet arrives has left the queue before it is admitted.
"""

from __future__ import annotations

import csv
import hashlib
import heapq
import itertools
import json
import math
from collections import deque
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .designer import DesignInput, InfeasibleDesignError, NetworkDesign
from .geo import LatencyModel, Site, latency_ms
from .graphcore import WeightedGraph, distance_matrix, next_hop_walks, weight_matrix
from .traffic import Pair, TrafficMatrix, pair_key, perturb

ROUTING_SCHEMES = ("shortest_path", "min_max_util", "throughput_optimal")


@dataclass(frozen=True)
class SimConfig:
    packet_bytes: int = 500
    sim_seconds: float = 1.0
    queue_capacity_packets: int = 1000
    aggregate_gbps: float = 1.0
    routing: str = "shortest_path"
    seed: int = 0
    warmup_fraction: float = 0.1
    per_flow_hashing: bool = False

    def __post_init__(self) -> None:
        if self.packet_bytes <= 0:
            raise ValueError("packet_bytes must be > 0")
        if self.sim_seconds <= 0:
            raise ValueError("sim_seconds must be > 0")
        if self.queue_capacity_packets < 1:
            raise ValueError("queue capacity must be >= 1")
        if self.routing not in ROUTING_SCHEMES:
            raise ValueError(f"unknown routing scheme {self.routing!r}")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")


@dataclass(frozen=True)
class SimLink:
    a: str
    b: str
    length_km: float
    medium: str  # "mw" | "fiber"
    capacity_gbps: float

    def __post_init__(self) -> None:
        if self.length_km <= 0 or self.capacity_gbps <= 0:
            raise ValueError("link length and capacity must be > 0")


@dataclass
class SimTopology:
    nodes: list[str]
    links: list[SimLink]

    def __post_init__(self) -> None:
        seen: set[Pair] = set()
        known = set(self.nodes)
        for link in self.links:
            key = pair_key(link.a, link.b)
            if key in seen:
                raise ValueError(f"duplicate link {key}")
            if link.a not in known or link.b not in known:
                raise ValueError(f"link {key} references unknown node")
            seen.add(key)

    def latency_graph(self, model: LatencyModel = LatencyModel()) -> WeightedGraph:
        g = WeightedGraph()
        for n in self.nodes:
            g.add_node(n)
        for link in self.links:
            g.add_edge(link.a, link.b, latency_ms(link.length_km, link.medium, model))
        return g

    def link_for(self, a: str, b: str) -> SimLink:
        key = pair_key(a, b)
        for link in self.links:
            if pair_key(link.a, link.b) == key:
                return link
        raise KeyError(f"no link {key}")


def topology_from_design(inp: DesignInput, design: NetworkDesign,
                         link_capacities: dict[Pair, float] | None = None,
                         fiber_capacity_gbps: float = 1000.0,
                         per_series_capacity_gbps: float = 1.0) -> SimTopology:
    """Operational topology: the fiber links any route uses plus the built
    MW links, except one whose pair routes over fiber (it is not shorter).
    MW capacities come from `link_capacities` (e.g. k^2 x series capacity
    out of an augmentation plan), defaulting to one series."""
    fiber_used = design.fiber_links()
    links = []
    for pair in design.built_links:
        if pair not in fiber_used:
            cap = (link_capacities or {}).get(pair, per_series_capacity_gbps)
            links.append(SimLink(pair[0], pair[1], float(inp.mw_km[pair]), "mw", cap))
    for pair in fiber_used:
        km = float(inp.fiber_km_eq[pair] / inp.fiber_slowdown)
        links.append(SimLink(pair[0], pair[1], km, "fiber", fiber_capacity_gbps))
    return SimTopology(inp.site_ids, links)


def save_topology(topology: SimTopology, path: str) -> None:
    doc = {"nodes": topology.nodes,
           "links": [{"a": l.a, "b": l.b, "length_km": l.length_km,
                      "medium": l.medium, "capacity_gbps": l.capacity_gbps}
                     for l in topology.links]}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_topology(path: str) -> SimTopology:
    with open(path) as fh:
        doc = json.load(fh)
    return SimTopology(list(doc["nodes"]),
                       [SimLink(l["a"], l["b"], l["length_km"], l["medium"],
                                l["capacity_gbps"]) for l in doc["links"]])


# ---------------------------------------------------------------------------
# Routing tables


@dataclass(frozen=True)
class RoutingTable:
    """Per (node, destination): weighted next hops, weights summing to 1."""

    next_hops: dict[tuple[str, str], tuple[tuple[str, float], ...]]
    scheme: str

    def hops_for(self, node: str, dst: str) -> tuple[tuple[str, float], ...]:
        return self.next_hops[(node, dst)]


def _directed_demands(traffic: TrafficMatrix) -> dict[tuple[str, str], float]:
    out = {}
    for (a, b), h in traffic.items():
        out[(a, b)] = h
        out[(b, a)] = h
    return out


def _downhill_dag(nodes: list[str], weights: np.ndarray, dist: np.ndarray,
                  destinations: Sequence[str]):
    """Per destination: latency distances from `dist`, the `distance_matrix` of
    `weights` over the sorted `nodes`, and per (node, destination) a uniform
    split over the strictly-downhill next hops (guaranteed loop-free)."""
    edge = np.isfinite(weights)
    out: dict[str, dict[str, float]] = {}
    split: dict[tuple[str, str], list[tuple[str, float]]] = {}
    for dst in destinations:
        d = dist[:, nodes.index(dst)]
        reach = np.flatnonzero(np.isfinite(d)).tolist()
        out[dst] = {nodes[u]: float(d[u]) for u in reach}
        downhill = edge & (d[None, :] < d[:, None])  # [u, v]: edge u-v, d[v] < d[u]
        for u in reach:
            nbrs = np.flatnonzero(downhill[u]).tolist()
            if nbrs:
                split[(nodes[u], dst)] = [(nodes[v], 1.0 / len(nbrs)) for v in nbrs]
    return out, split


def _propagate(weights, demands, dist):
    """Fractional flow propagation over the downhill DAGs; returns directed
    edge loads. Nodes are visited in decreasing distance-to-destination,
    which is a topological order of the strictly-downhill edges."""
    loads: dict[tuple[str, str], float] = {}
    by_dst: dict[str, dict[str, float]] = {}
    for (src, dst), h in demands.items():
        by_dst.setdefault(dst, {})[src] = h
    for dst in sorted(by_dst):
        inflow = dict(by_dst[dst])
        order = sorted(dist[dst], key=lambda n: (-dist[dst][n], n))
        for node in order:
            amount = inflow.get(node, 0.0)
            if node == dst or amount <= 0.0:
                continue
            for nbr, w in weights[(node, dst)]:
                if w <= 0.0:
                    continue
                part = amount * w
                edge = (node, nbr)
                loads[edge] = loads.get(edge, 0.0) + part
                inflow[nbr] = inflow.get(nbr, 0.0) + part
    return loads


def _max_utilization(loads, caps) -> float:
    return max((v / caps[e] for e, v in loads.items()), default=0.0)


def build_routing(topology: SimTopology, traffic: TrafficMatrix, scheme: str,
                  model: LatencyModel = LatencyModel(),
                  iterations: int = 300) -> RoutingTable:
    """Routing table for the given scheme.

    shortest_path: single next hop along latency-shortest paths.
    min_max_util: weighted next hops over the strictly-downhill DAG,
    iteratively rebalanced to minimize the maximum link utilization of
    the splittable relaxation. throughput_optimal: identical machinery;
    maximizing the concurrent-flow scaling alpha of the matrix is the
    same optimum because alpha = 1 / max-utilization.
    """
    if scheme not in ROUTING_SCHEMES:
        raise ValueError(f"unknown routing scheme {scheme!r}")
    g = topology.latency_graph(model)
    demands = _directed_demands(traffic)
    endpoints = sorted({n for pair in demands for n in pair})
    for node in endpoints:
        if node not in g:
            raise InfeasibleDesignError(f"traffic endpoint {node!r} not in topology")
    destinations = sorted({dst for _, dst in demands})
    nodes = sorted(g.nodes())
    index = {n: i for i, n in enumerate(nodes)}
    lat = weight_matrix(nodes, {(a, b): x for a, b, x in g.edges()})
    dmat = distance_matrix(lat)
    pairs = [(index[src], index[dst]) for src, dst in demands]
    for s, t in pairs:
        if math.isinf(dmat[s, t]):
            raise InfeasibleDesignError(f"pair ({nodes[s]}, {nodes[t]}) disconnected")

    if scheme == "shortest_path":
        table: dict[tuple[str, str], tuple[tuple[str, float], ...]] = {}
        for walk in next_hop_walks(lat, dmat, pairs):
            for u, v in zip(walk, walk[1:]):
                table[(nodes[u], nodes[walk[-1]])] = ((nodes[v], 1.0),)
        return RoutingTable(table, scheme)

    dist, weights = _downhill_dag(nodes, lat, dmat, destinations)
    caps = {}
    for link in topology.links:
        caps[(link.a, link.b)] = link.capacity_gbps
        caps[(link.b, link.a)] = link.capacity_gbps

    best_weights = {k: list(v) for k, v in weights.items()}
    best_max = math.inf
    for it in range(iterations):
        loads = _propagate(weights, demands, dist)
        maxu = _max_utilization(loads, caps)
        if maxu < best_max - 1e-12:
            best_max = maxu
            best_weights = {k: list(v) for k, v in weights.items()}
        util = {e: v / caps[e] for e, v in loads.items()}
        # Expected downstream bottleneck per (node, dst), filled in
        # increasing-distance order so successors are done first.
        pot: dict[tuple[str, str], float] = {}
        for dst in destinations:
            for node in sorted(dist[dst], key=lambda n: (dist[dst][n], n)):
                if node == dst:
                    pot[(node, dst)] = 0.0
                    continue
                entry = weights.get((node, dst))
                if entry is None:
                    continue
                score = 0.0
                for nbr, w in entry:
                    edge_u = util.get((node, nbr), 0.0)
                    score += w * max(edge_u, pot.get((nbr, dst), 0.0))
                pot[(node, dst)] = score
        # Multiplicative weights with a decaying step, half-mixed with the
        # previous iterate: undamped steps oscillate around the optimum.
        eta = 2.0 / (max(maxu, 1e-12) * math.sqrt(1.0 + it))
        for (node, dst), entry in weights.items():
            scores = [max(util.get((node, nbr), 0.0), pot.get((nbr, dst), 0.0))
                      for nbr, _ in entry]
            raw = [max(w, 1e-9) * math.exp(-eta * s) for (_, w), s in zip(entry, scores)]
            total = sum(raw)
            weights[(node, dst)] = [(nbr, 0.5 * w + 0.5 * r / total)
                                    for (nbr, w), r in zip(entry, raw)]
    # Prune negligible branches and renormalize for a tidy table.
    table = {}
    for key, entry in best_weights.items():
        kept = [(nbr, w) for nbr, w in entry if w >= 1e-3]
        total = sum(w for _, w in kept)
        table[key] = tuple((nbr, w / total) for nbr, w in kept)
    return RoutingTable(table, scheme)


def expected_link_loads(topology: SimTopology, table: RoutingTable,
                        traffic: TrafficMatrix, aggregate_gbps: float,
                        model: LatencyModel = LatencyModel()) -> dict[tuple[str, str], float]:
    """Fluid-model directed link loads in Gbps under the routing table.

    Tables are loop-free DAGs per destination, so each destination's flow
    is pushed through a Kahn topological order of the reachable sub-DAG.
    """
    demands = {k: v * aggregate_gbps for k, v in _directed_demands(traffic).items()}
    by_dst: dict[str, dict[str, float]] = {}
    for (src, dst), demand in demands.items():
        by_dst.setdefault(dst, {})[src] = by_dst.get(dst, {}).get(src, 0.0) + demand
    loads: dict[tuple[str, str], float] = {}
    for dst in sorted(by_dst):
        injected = by_dst[dst]
        nodes = set(injected)
        out_edges: dict[str, tuple[tuple[str, float], ...]] = {}
        stack = sorted(injected)
        while stack:
            node = stack.pop()
            if node == dst or node in out_edges:
                continue
            hops = table.hops_for(node, dst)
            out_edges[node] = hops
            for nbr, _ in hops:
                if nbr not in nodes:
                    nodes.add(nbr)
                    stack.append(nbr)
        indeg = {n: 0 for n in nodes}
        for node, hops in out_edges.items():
            for nbr, _ in hops:
                indeg[nbr] += 1
        ready = sorted(n for n, dcount in indeg.items() if dcount == 0)  # sorted, so a heap
        inflow = dict(injected)
        while ready:
            node = heapq.heappop(ready)
            amount = inflow.get(node, 0.0)
            for nbr, w in out_edges.get(node, ()):
                part = amount * w
                if part > 0.0:
                    loads[(node, nbr)] = loads.get((node, nbr), 0.0) + part
                    inflow[nbr] = inflow.get(nbr, 0.0) + part
                indeg[nbr] -= 1
                if indeg[nbr] == 0:
                    heapq.heappush(ready, nbr)
    return loads


# ---------------------------------------------------------------------------
# Event-driven simulation


@dataclass(frozen=True)
class FlowRecord:
    """`loss` = dropped / (delivered + dropped) leaves out packets still in
    flight at the end, so it reads high on short runs (`designed_topology()`
    in the tests, 1.2x load, queue 5: `loss_rate` 0.487 at 2 ms simulated,
    0.046 at 20 ms)."""

    src: str
    dst: str
    rate_gbps: float
    sent: int
    delivered: int
    dropped: int
    in_flight: int
    mean_delay_ms: float
    max_delay_ms: float
    loss: float


@dataclass(frozen=True)
class FlowStats:
    flows: dict[tuple[str, str], FlowRecord]
    link_utilization: dict[tuple[str, str], float]
    mean_delay_ms: float
    loss_rate: float


class _LinkState:
    __slots__ = ("tx_s", "prop_s", "free_at", "starts", "busy_s")

    def __init__(self, tx_s: float, prop_s: float) -> None:
        self.tx_s = tx_s
        self.prop_s = prop_s
        self.free_at = 0.0  # end of the last admitted transmission
        self.starts: deque = deque()  # start times of the waiting packets
        self.busy_s = 0.0


def _hop(table: RoutingTable, links: dict[tuple[str, str], _LinkState], node: str,
         dst: str, resolved: dict[tuple[str, str], tuple]) -> tuple:
    """The table entry at `node` towards `dst`, resolved once into `resolved`:
    a hop (link state, the hop at the next node or None at `dst`, None), or
    for several next hops (None, None, ((weight, hop), ...))."""
    if (node, dst) not in resolved:
        out = tuple((w, (links[(node, nh)],
                         None if nh == dst else _hop(table, links, nh, dst, resolved), None))
                    for nh, w in table.hops_for(node, dst))
        resolved[(node, dst)] = out[0][1] if len(out) == 1 else (None, None, out)
    return resolved[(node, dst)]


def _single_path(h: tuple | None) -> bool:
    while h is not None and not h[2]:
        h = h[1]
    return h is None


def run(topology: SimTopology, traffic: TrafficMatrix, table: RoutingTable,
        cfg: SimConfig, model: LatencyModel = LatencyModel()) -> FlowStats:
    """Event-driven run: per-link propagation plus transmission delay,
    drop-tail FIFO queues, per-packet (or per-flow-hashed) weighted next
    hops, statistics over packets sent after the warm-up window. Admission
    fixes the departure and schedules the arrival at the next node or, on
    a fixed-path flow's last link, counts the delivery if it lands by
    `sim_end`. A transmission starting at exactly `t` leaves the queue
    before a packet arriving at `t` is admitted (departures before arrivals)."""
    rng = np.random.default_rng(cfg.seed)
    packet_bits = cfg.packet_bytes * 8
    sim_end = cfg.sim_seconds
    warm_start = cfg.warmup_fraction * cfg.sim_seconds

    flows: list[tuple[str, str, float]] = []
    for (a, b), h in traffic.items():
        rate = h * cfg.aggregate_gbps
        if rate > 0:
            flows.append((a, b, rate))
            flows.append((b, a, rate))

    links: dict[tuple[str, str], _LinkState] = {}
    for link in topology.links:
        prop = latency_ms(link.length_km, link.medium, model) / 1000.0
        tx = packet_bits / (link.capacity_gbps * 1e9)
        links[(link.a, link.b)] = _LinkState(tx, prop)
        links[(link.b, link.a)] = _LinkState(tx, prop)

    sent = [0] * len(flows)
    delivered = [0] * len(flows)
    dropped = [0] * len(flows)
    delay_sum = [0.0] * len(flows)
    delay_max = [0.0] * len(flows)

    interval = [packet_bits / (rate * 1e9) for _, _, rate in flows]
    resolved: dict[tuple[str, str], tuple] = {}
    first = [_hop(table, links, a, b, resolved) for a, b, _ in flows]
    hashing = cfg.per_flow_hashing
    if hashing:
        flow_hash = [int(hashlib.sha256(f"{a}->{b}".encode()).hexdigest(), 16) / 2 ** 256
                     for a, b, _ in flows]
    fixed = [hashing or _single_path(h) for h in first]

    # Events are (time, seq, fid, send time, hop). Generations carry send
    # time None and re-arm in place; an arrival with hop None is a per-packet
    # multipath packet reaching its destination.
    heap: list = []
    seq = itertools.count()
    for fid in range(len(flows)):
        heapq.heappush(heap, (float(rng.uniform(0.0, interval[fid])), next(seq), fid, None, None))

    while heap:
        t, _, fid, send_t, h = heap[0]
        if t > sim_end:
            break
        generate = send_t is None
        if generate:
            if t >= warm_start:
                sent[fid] += 1
            send_t, h = t, first[fid]
        else:
            heapq.heappop(heap)
        at = t  # a delivery's arrival time; inf when there is none
        if h is not None:
            state, nxt, split = h
            if split:
                x = flow_hash[fid] if hashing else rng.random()
                acc = 0.0
                state, nxt, _ = split[-1][1]
                for w, choice in split:
                    acc += w
                    if x < acc:
                        state, nxt, _ = choice
                        break
            starts = state.starts
            while starts and starts[0] <= t:
                starts.popleft()
            if len(starts) >= cfg.queue_capacity_packets:
                if send_t >= warm_start:
                    dropped[fid] += 1
                at = math.inf
            else:
                start = state.free_at
                if start > t:
                    starts.append(start)
                else:
                    start = t
                free_at = state.free_at = start + state.tx_s
                overlap = min(free_at, sim_end) - max(start, warm_start)
                if overlap > 0:
                    state.busy_s += overlap
                at = free_at + state.prop_s
                if nxt is not None or not fixed[fid]:
                    heapq.heappush(heap, (at, next(seq), fid, send_t, nxt))
                    at = math.inf
        if at <= sim_end and send_t >= warm_start:
            delivered[fid] += 1
            delay_sum[fid] += at - send_t
            delay_max[fid] = max(delay_max[fid], at - send_t)
        if generate:
            nxt_t = t + interval[fid]
            if nxt_t < sim_end:
                heapq.heapreplace(heap, (nxt_t, next(seq), fid, None, None))
            else:
                heapq.heappop(heap)

    records: dict[tuple[str, str], FlowRecord] = {}
    total_delay = 0.0
    for fid, (a, b, rate) in enumerate(flows):
        done = delivered[fid] + dropped[fid]
        records[(a, b)] = FlowRecord(
            src=a, dst=b, rate_gbps=rate, sent=sent[fid],
            delivered=delivered[fid], dropped=dropped[fid],
            in_flight=sent[fid] - delivered[fid] - dropped[fid],
            mean_delay_ms=(delay_sum[fid] / delivered[fid] * 1000.0
                           if delivered[fid] else math.nan),
            max_delay_ms=delay_max[fid] * 1000.0,
            loss=dropped[fid] / done if done else 0.0)
        total_delay += delay_sum[fid]
    total_delivered, total_dropped = sum(delivered), sum(dropped)
    window = sim_end - warm_start
    utilization = {edge: state.busy_s / window for edge, state in sorted(links.items())}
    completed = total_delivered + total_dropped
    return FlowStats(
        flows=records,
        link_utilization=utilization,
        mean_delay_ms=(total_delay / total_delivered * 1000.0
                       if total_delivered else math.nan),
        loss_rate=total_dropped / completed if completed else 0.0)


# ---------------------------------------------------------------------------
# Perturbation experiments


@dataclass(frozen=True)
class PerturbationResult:
    gamma: float
    load_fraction: float
    mean_delay_ms: float
    loss_rate: float


def perturbation_experiment(topology: SimTopology, sites: Sequence[Site],
                            cfg: SimConfig, gammas: Sequence[float],
                            loads: Sequence[float],
                            designed_aggregate_gbps: float | None = None,
                            model: LatencyModel = LatencyModel()) -> list[PerturbationResult]:
    """Sweep population perturbations and load levels on a fixed design.

    The routing table is built once for the designed-for gravity matrix;
    each sweep point rebuilds the traffic matrix via a seeded population
    perturbation, scales it to the load fraction of the designed
    aggregate, and runs the simulator with the same seed. Gravity demand
    is defined over population-bearing sites; zero-population endpoints
    (e.g. data centers) are carried in the topology but not perturbed.
    """
    sites = [s for s in sites if s.population > 0]
    base = perturb(sites, 0.0, cfg.seed)
    table = build_routing(topology, base, cfg.routing, model)
    designed = (cfg.aggregate_gbps if designed_aggregate_gbps is None
                else designed_aggregate_gbps)
    results = []
    for gamma in gammas:
        matrix = perturb(sites, gamma, cfg.seed)
        for load in loads:
            run_cfg = replace(cfg, aggregate_gbps=load * designed)
            stats = run(topology, matrix, table, run_cfg, model)
            results.append(PerturbationResult(gamma, load, stats.mean_delay_ms,
                                              stats.loss_rate))
    return results


def write_results_csv(results: Sequence[PerturbationResult], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["gamma", "load", "mean_delay_ms", "loss_rate"])
        for r in results:
            writer.writerow([r.gamma, r.load_fraction, repr(r.mean_delay_ms),
                             repr(r.loss_rate)])


def write_utilization_csv(stats: FlowStats, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["link_from", "link_to", "utilization"])
        for (a, b), u in stats.link_utilization.items():
            writer.writerow([a, b, repr(u)])
