"""Packet-level discrete-event simulation of a designed topology.

Links are full-duplex with drop-tail FIFO queues per direction; flows are
constant-rate datagram streams derived from the traffic matrix, two per
site pair (one each way). Routing tables carry per-destination weighted
next hops; multipath splits are applied per packet by a seeded draw, or
per flow when hashing is enabled.

Fluid flow runs on dense split arrays `split[destination, node, next hop]`:
one fixed-point kernel gives `min_max_util`'s flows and potentials and the
loads and loop check of `expected_link_loads`; the dict code is the oracle.

A run whose flows all have fixed paths (one next hop at every node of a
path; every flow under hashing) is replayed link by link when no cycle
runs through its links (link u feeds link v when v follows u on some
flow's path): in topological order each link admits its arrivals sorted
by time, with the event loop's float operations in the event loop's
order, and its departures plus propagation are the next links' arrivals.
Admissions at a FIFO link end strictly later one after another, so one
flow's packets keep their order along the path, and the replay is bitwise
the event loop's answer. It runs in windows of simulated time that hold a
bounded number of packets. The event loop decides the rest: per-packet
splits (their draws follow the global event order), cyclic link graphs,
and two flows' arrivals at one link at one time (the heap's push order
decides those).

The event loop has one event per generated packet and one per
intermediate hop: with drop-tail FIFO and a fixed packet size, a link
fixes a packet's departure when it admits the packet. A fixed-path flow's
packet is delivered when its last link admits it, which is exact for the
same reason. Per-packet multipath packets can overtake one another and
keep their arrival event. Tie rule, departures before arrivals: a
transmission that starts at exactly the time a packet arrives has left
the queue before it is admitted.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import graphlib
import math
import numbers
from collections import deque
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .designer import DesignInput, InfeasibleDesignError, NetworkDesign
from .geo import FIBER_SLOWDOWN, Site, latency_ms, write_csv, write_json
from .graphcore import distance_matrix, next_hop_walks, weight_matrix
from .traffic import Pair, TrafficMatrix, pair_key, perturb

ROUTING_SCHEMES = ("shortest_path", "min_max_util")
REBALANCE_ITERATIONS = 300  # min_max_util rebalancing rounds


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
        # A value that is not a real number reads as nan and fails its check.
        real = {name: value if isinstance(value, numbers.Real) else math.nan
                for name, value in vars(self).items()}
        for name in ("packet_bytes", "queue_capacity_packets"):
            if not (float(real[name]).is_integer() and real[name] >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {getattr(self, name)!r}")
        if not (math.isfinite(real["sim_seconds"]) and real["sim_seconds"] > 0):
            raise ValueError(f"sim_seconds must be finite and > 0, got {self.sim_seconds!r}")
        if not (math.isfinite(real["aggregate_gbps"]) and real["aggregate_gbps"] >= 0):
            raise ValueError(f"aggregate_gbps must be finite and >= 0, "
                             f"got {self.aggregate_gbps!r}")
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
        for name in ("length_km", "capacity_gbps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"link ({self.a}, {self.b}): {name} must be "
                                 f"finite and > 0, got {value}")


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
        km = float(inp.fiber_km_eq[pair] / FIBER_SLOWDOWN)
        links.append(SimLink(pair[0], pair[1], km, "fiber", fiber_capacity_gbps))
    return SimTopology(inp.site_ids, links)


def save_topology(topology: SimTopology, path: str) -> None:
    doc = {"nodes": topology.nodes,
           "links": [{"a": l.a, "b": l.b, "length_km": l.length_km,
                      "medium": l.medium, "capacity_gbps": l.capacity_gbps}
                     for l in topology.links]}
    write_json(doc, path)


def load_topology(path: str) -> SimTopology:
    with open(path) as fh:
        doc = json.load(fh)
    return SimTopology(list(doc["nodes"]),
                       [SimLink(l["a"], l["b"], l["length_km"], l["medium"],
                                l["capacity_gbps"]) for l in doc["links"]])


# ---------------------------------------------------------------------------
# Routing tables


# Per (node, destination): weighted next hops, weights summing to 1.
RoutingTable = dict[tuple[str, str], tuple[tuple[str, float], ...]]


def _directed_demands(traffic: TrafficMatrix) -> dict[tuple[str, str], float]:
    out = {}
    for (a, b), h in traffic.items():
        out[(a, b)] = h
        out[(b, a)] = h
    return out


def _downhill_dag(nodes: list[str], weights: np.ndarray, dist: np.ndarray,
                  destinations: Sequence[str]) -> np.ndarray:
    """The strictly-downhill edges `down[d, u, v]`, one row per destination:
    edge u-v of `weights` over the sorted `nodes`, and v nearer to d than u
    by `dist`, their `distance_matrix` (loop-free: distances fall along it)."""
    to_dst = dist[:, [nodes.index(d) for d in destinations]].T
    return np.isfinite(weights) & (to_dst[:, None, :] < to_dst[:, :, None])


def _settle(step, x: np.ndarray, destinations: Sequence[str]) -> np.ndarray:
    """The exact fixed point of `x <- step(x)` over rows per destination and
    columns per node. Over a loop-free split a row settles after its depth,
    below the node count n; one still moving after n + 1 steps goes round a
    loop: ValueError naming its destination."""
    for _ in range(x.shape[1] + 1):
        x, prev = step(x), x
        if np.array_equal(x, prev):
            return x
    dst = destinations[int(np.flatnonzero((x != prev).any(axis=1))[0])]
    raise ValueError(f"routing loop towards {dst!r}")


def _link_loads(split: np.ndarray, inject: np.ndarray, destinations: Sequence[str]) -> np.ndarray:
    """Directed link loads [u, v] of demand `inject[d, u]` from u to d, each
    node u passing the share `split[d, u, v]` of its flow on to v."""
    flow = _settle(lambda f: inject + np.einsum("duv,du->dv", split, f), inject, destinations)
    return np.einsum("du,duv->uv", flow, split)


def build_routing(topology: SimTopology, traffic: TrafficMatrix, scheme: str) -> RoutingTable:
    """Routing table for the given scheme.

    shortest_path: single next hop along latency-shortest paths.
    min_max_util: weighted next hops over the strictly-downhill DAG, the
    best of `REBALANCE_ITERATIONS` multiplicative-weights rounds on the split
    arrays that minimize the maximum link utilization of the splittable
    relaxation, which also maximizes the matrix's concurrent-flow scaling
    (1 / max-utilization).
    """
    if scheme not in ROUTING_SCHEMES:
        raise ValueError(f"unknown routing scheme {scheme!r}")
    demands = _directed_demands(traffic)
    nodes = sorted(set(topology.nodes))
    index = {n: i for i, n in enumerate(nodes)}
    missing = sorted({n for pair in demands for n in pair} - index.keys())
    if missing:
        raise InfeasibleDesignError(f"traffic endpoint {missing[0]!r} not in topology")
    destinations = sorted({dst for _, dst in demands})
    lat = weight_matrix(nodes, {(l.a, l.b): latency_ms(l.length_km, l.medium)
                                for l in topology.links})
    dmat = distance_matrix(lat)
    pairs = [(index[src], index[dst]) for src, dst in demands]
    for s, t in pairs:
        if math.isinf(dmat[s, t]):
            raise InfeasibleDesignError(f"pair ({nodes[s]}, {nodes[t]}) disconnected")

    if scheme == "shortest_path":
        table: RoutingTable = {}
        for walk in next_hop_walks(lat, dmat, pairs):
            for u, v in zip(walk, walk[1:]):
                table[(nodes[u], nodes[walk[-1]])] = ((nodes[v], 1.0),)
        return table

    down = _downhill_dag(nodes, lat, dmat, destinations)
    inject = np.zeros(down.shape[:2])
    for (src, dst), h in demands.items():
        inject[destinations.index(dst), index[src]] = h
    cap = weight_matrix(nodes, {(l.a, l.b): l.capacity_gbps for l in topology.links})
    np.fill_diagonal(cap, np.inf)  # no link on the diagonal: utilization 0, not 0/0
    split = down / np.maximum(down.sum(axis=2, keepdims=True), 1)
    best, best_max = split, math.inf
    for it in range(REBALANCE_ITERATIONS):
        util = _link_loads(split, inject, destinations) / cap
        maxu = float(util.max())
        if maxu < best_max - 1e-12:
            best, best_max = split, maxu
        # Expected downstream bottleneck per (destination, node).
        pot = _settle(lambda p: (split * np.maximum(util, p[:, None, :])).sum(axis=2),
                      np.zeros(inject.shape), destinations)
        # Multiplicative weights with a decaying step, half-mixed with the
        # previous iterate: undamped steps oscillate around the optimum.
        eta = 2.0 / (max(maxu, 1e-12) * math.sqrt(1.0 + it))
        score = np.maximum(util, pot[:, None, :])
        raw = np.where(down, np.maximum(split, 1e-9), 0.0) * np.exp(-eta * score)
        split = 0.5 * split + np.divide(0.5 * raw, raw.sum(axis=2, keepdims=True),
                                        out=np.zeros(raw.shape), where=down)
    # Prune negligible branches and renormalize for a tidy table.
    table = {}
    for k, u in np.argwhere(down.any(axis=2)).tolist():
        vs = np.flatnonzero(best[k, u] >= 1e-3).tolist()
        ws = best[k, u, vs].tolist()
        total = sum(ws)
        table[(nodes[u], destinations[k])] = tuple((nodes[v], w / total) for v, w in zip(vs, ws))
    return table


def expected_link_loads(topology: SimTopology, table: RoutingTable, traffic: TrafficMatrix,
                        aggregate_gbps: float) -> dict[tuple[str, str], float]:
    """Fluid-model directed link loads in Gbps under the routing table, the
    positive ones in (from, to) id order, by `build_routing`'s kernel. A table
    that loops towards a destination raises ValueError; a node that receives
    flow towards a destination without an entry for it, KeyError."""
    nodes = sorted(topology.nodes)
    index = {n: i for i, n in enumerate(nodes)}
    demands = _directed_demands(traffic)
    destinations = sorted({dst for _, dst in demands})
    row = {d: k for k, d in enumerate(destinations)}
    inject = np.zeros((len(destinations), len(nodes)))
    for (src, dst), h in demands.items():
        inject[row[dst], index[src]] = h * aggregate_gbps
    split = np.zeros((len(destinations), len(nodes), len(nodes)))
    for (node, dst), hops in table.items():
        if dst in row and node != dst:
            for nbr, w in hops:
                split[row[dst], index[node], index[nbr]] += w
    # Longest hop count from a source along positive weights: it grows round a
    # loop for good, where a float flow's circulation can round away and settle.
    depth = _settle(lambda h: np.maximum(h, np.where(split > 0, h[..., None] + 1, -np.inf).max(1)),
                    np.where(inject > 0, 0.0, -np.inf), destinations)
    for k, u in np.argwhere((depth >= 0) & ~split.any(axis=2)).tolist():
        if nodes[u] != destinations[k]:
            raise KeyError((nodes[u], destinations[k]))
    loads = _link_loads(split, inject, destinations)
    return {(nodes[u], nodes[v]): float(loads[u, v]) for u, v in np.argwhere(loads > 0).tolist()}


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
                    for nh, w in table[(node, dst)])
        resolved[(node, dst)] = out[0][1] if len(out) == 1 else (None, None, out)
    return resolved[(node, dst)]


def _single_path(h: tuple | None) -> bool:
    while h is not None and not h[2]:
        h = h[1]
    return h is None


def _path(h: tuple | None, x: float) -> list[_LinkState]:
    """The links of a fixed path from its first hop `h`, each split taken
    by the flow's hash `x` as `run` takes it."""
    path = []
    while h is not None:
        state, h, split = h
        if split:
            acc = 0.0
            state, h, _ = split[-1][1]
            for w, choice in split:
                acc += w
                if x < acc:
                    state, h, _ = choice
                    break
        path.append(state)
    return path


# Packets one window of `_replay` generates at most: its arrays hold about
# this many packets per hop, however long the run.
_WINDOW_PACKETS = 1 << 17


def _admit(t: np.ndarray, tx: float, free_at: float, waiting: np.ndarray,
           cap: int) -> np.ndarray:
    """`run`'s admission of the sorted arrivals `t` at one link: the end of
    each transmission, nan for a drop. The link's last transmission ends at
    `free_at` and its waiting packets start at `waiting`. One pass ignores
    the queue bound; where a queue could reach it, the count of packets
    queued at each arrival decides, and a pass with the bound redoes it."""
    f0 = free_at
    ends = np.array([free_at := (free_at if free_at > x else x) + tx for x in t.tolist()])
    if len(waiting) + len(t) <= cap:
        return ends
    prev = np.concatenate(([f0], ends[:-1]))
    starts = np.where(prev > t, prev, t)
    i = np.arange(len(t))
    queued = (len(waiting) - np.searchsorted(waiting, t, "right")
              + i - np.minimum(i, np.searchsorted(starts, t, "right")))
    if queued.max() < cap:
        return ends
    free_at = f0
    queue = deque(waiting.tolist())
    out = []
    for x in t.tolist():
        while queue and queue[0] <= x:
            queue.popleft()
        if len(queue) >= cap:
            out.append(math.nan)
            continue
        if free_at > x:
            queue.append(free_at)
            start = free_at
        else:
            start = x
        free_at = start + tx
        out.append(free_at)
    return np.array(out)


def _deal(inbox: list[list], link: np.ndarray, *arrays: np.ndarray) -> None:
    """Append each link's share of the packet `arrays`, in their order, to
    the link's inbox; `link` holds each packet's link."""
    o = np.argsort(link, kind="stable")
    cuts = (np.flatnonzero(np.diff(link[o])) + 1).tolist()
    for lo, hi in zip([0, *cuts], [*cuts, len(o)]):
        inbox[link[o[lo]]].append(tuple(a[o[lo:hi]] for a in arrays))


def _replay(paths: list[list[_LinkState]], interval: list[float], phases: list[float],
            sim_end: float, warm_start: float, cap: int) -> tuple | None:
    """`run`'s per-flow counts and sums for flows on fixed `paths`, found
    link by link, with each link's busy time set; None when the event loop
    must decide: a cycle among the links (link u feeds link v when v follows
    u on some flow's path), or arrivals of two flows at one link at one time
    (the event loop takes those in push order).

    Links go in topological order. Each admits its arrivals sorted by time
    with the event loop's float operations in the event loop's order (one
    flow's packets keep their order along the path), so every time, count
    and sum is bitwise the event loop's; the arrivals at the next links are
    its departures plus propagation. Time goes in windows in which no flow
    generates more than `_WINDOW_PACKETS` / flows packets; arrivals past a
    window wait for the next, and each link carries its end of transmission,
    waiting starts and busy time across."""
    n = len(paths)
    # A slot is one link of one flow's path, numbered path after path; a
    # packet carries the slot it is at.
    index: dict[_LinkState, int] = {}
    slot_link = np.array([index.setdefault(s, len(index)) for p in paths for s in p])
    states = list(index)
    sizes = np.array([len(p) for p in paths])
    slot_flow = np.repeat(np.arange(n), sizes)
    slot_last = np.zeros(len(slot_link), bool)
    slot_last[np.cumsum(sizes) - 1] = True
    first_slot = np.cumsum(sizes) - sizes
    feeders: dict[int, set] = {v: set() for v in range(len(states))}
    for s in np.flatnonzero(~slot_last).tolist():
        feeders[int(slot_link[s + 1])].add(int(slot_link[s]))
    try:
        order = list(graphlib.TopologicalSorter(feeders).static_order())
    except graphlib.CycleError:
        return None

    sent = np.zeros(n, np.int64)
    delivered = np.zeros(n, np.int64)
    dropped = np.zeros(n, np.int64)
    delay_sum = np.zeros(n)
    delay_max = np.zeros(n)
    free = [0.0] * len(states)
    busy = [0.0] * len(states)
    waiting = [np.zeros(0)] * len(states)
    inbox: list[list] = [[] for _ in states]  # (times, slots, send times) per link

    iv, gen = np.array(interval), np.array(phases)  # `gen`: each flow's next generation
    fresh = np.ones(n, bool)  # the generation at the phase is still due
    span = _WINDOW_PACKETS * float(iv.min()) / n
    limit, final = 0.0, False
    while not final:
        limit += span
        final = not limit < sim_end
        if final:
            limit = sim_end
        # Generations before `limit`, or the last window's before `sim_end`
        # and a phase at it: each row a sequential sum, bitwise `t + interval`.
        cols = max(3, int(np.max((limit - gen) // iv)) + 3)
        grid = np.empty((n, cols))
        grid[:] = iv[:, None]
        grid[:, 0] = gen
        np.cumsum(grid, axis=1, out=grid)
        if not (grid[:, -1] >= limit).all():
            return None  # `t + interval` rounds back to `t`
        k = (grid < limit).sum(axis=1)
        if final:
            k[fresh & (gen == sim_end)] = 1
        fresh &= k == 0
        gen = grid[np.arange(n), k]
        times = grid[np.arange(cols) < k[:, None]]
        fid = np.repeat(np.arange(n), k)
        sent += np.bincount(fid[times >= warm_start], minlength=n)
        if len(fid):
            _deal(inbox, slot_link[first_slot[fid]], times, first_slot[fid], times)

        for v in order:
            parts, inbox[v] = inbox[v], []
            if not parts:
                continue
            t, slot, send = (np.concatenate(x) for x in zip(*parts))
            o = np.argsort(t, kind="stable")
            t, slot, send = t[o], slot[o], send[o]
            cut = int(np.searchsorted(t, limit, "right" if final else "left"))
            if cut < len(t) and not final:
                inbox[v].append((t[cut:], slot[cut:], send[cut:]))
            if not cut:
                continue
            t, slot, send = t[:cut], slot[:cut], send[:cut]
            tie = t[1:] == t[:-1]
            if tie.any() and (slot[1:] != slot[:-1])[tie].any():
                return None

            state = states[v]
            last_t = t[-1]
            ends = _admit(t, state.tx_s, free[v], waiting[v], cap)
            lost = np.isnan(ends)
            if lost.any():
                counted = lost & (send >= warm_start)
                dropped += np.bincount(slot_flow[slot[counted]], minlength=n)
                keep = ~lost
                t, slot, send, ends = t[keep], slot[keep], send[keep], ends[keep]
            starts = waiting[v]
            if len(ends):
                prev = np.concatenate(([free[v]], ends[:-1]))
                admitted = np.where(prev > t, prev, t)
                over = np.minimum(ends, sim_end) - np.maximum(admitted, warm_start)
                busy[v] = float(np.cumsum(np.concatenate(([busy[v]], over[over > 0])))[-1])
                free[v] = float(ends[-1])
                starts = np.concatenate((starts, admitted))
            waiting[v] = starts[starts > last_t]

            arrive = ends + state.prop_s
            done = slot_last[slot]
            if done.any():
                at, since = arrive[done], send[done]
                ok = (at <= sim_end) & (since >= warm_start)
                fid, delay = slot_flow[slot[done][ok]], at[ok] - since[ok]
                delivered += np.bincount(fid, minlength=n)
                np.add.at(delay_sum, fid, delay)  # in admission order, as `+=`
                np.maximum.at(delay_max, fid, delay)
                on = ~done
                arrive, slot, send = arrive[on], slot[on], send[on]
            if len(slot):
                _deal(inbox, slot_link[slot + 1], arrive, slot + 1, send)

    for state, b in zip(states, busy):
        state.busy_s = b
    return (sent.tolist(), delivered.tolist(), dropped.tolist(), delay_sum.tolist(),
            delay_max.tolist())


def run(topology: SimTopology, traffic: TrafficMatrix, table: RoutingTable,
        cfg: SimConfig) -> FlowStats:
    """Packet-level run: per-link propagation plus transmission delay,
    drop-tail FIFO queues, per-packet (or per-flow-hashed) weighted next
    hops, statistics over packets sent after the warm-up window. Admission
    fixes the departure and the arrival at the next node or, on a fixed-path
    flow's last link, counts the delivery if it lands by `sim_end`. A
    transmission starting at exactly `t` leaves the queue before a packet
    arriving at `t` is admitted (departures before arrivals).

    When every flow has a fixed path, `_replay` admits each link's arrivals
    in time order, link after link, with the event loop's arithmetic, so its
    answer is the event loop's bit for bit; per-packet splits, a cycle among
    the links, or two flows arriving at one link at one time go to the event
    loop, which processes packets one event at a time in global time order."""
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
        prop = latency_ms(link.length_km, link.medium) / 1000.0
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
    phases = [float(rng.uniform(0.0, interval[fid])) for fid in range(len(flows))]
    counts = None
    if flows and all(fixed):
        paths = [_path(h, flow_hash[fid] if hashing else 0.0) for fid, h in enumerate(first)]
        counts = _replay(paths, interval, phases, sim_end, warm_start,
                         cfg.queue_capacity_packets)
    if counts is not None:
        sent, delivered, dropped, delay_sum, delay_max = counts

    # Events are (time, seq, fid, send time, hop). Generations carry send
    # time None and re-arm in place; an arrival with hop None is a per-packet
    # multipath packet reaching its destination.
    heap: list = []
    seq = itertools.count()
    for fid in range(len(flows) if counts is None else 0):
        heapq.heappush(heap, (phases[fid], next(seq), fid, None, None))

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


def perturbation_experiment(topology: SimTopology, sites: Sequence[Site], cfg: SimConfig,
                            gammas: Sequence[float], loads: Sequence[float],
                            designed_aggregate_gbps: float | None = None,
                            ) -> list[PerturbationResult]:
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
    table = build_routing(topology, base, cfg.routing)
    designed = (cfg.aggregate_gbps if designed_aggregate_gbps is None
                else designed_aggregate_gbps)
    results = []
    for gamma in gammas:
        matrix = perturb(sites, gamma, cfg.seed)
        for load in loads:
            run_cfg = replace(cfg, aggregate_gbps=load * designed)
            stats = run(topology, matrix, table, run_cfg)
            results.append(PerturbationResult(gamma, load, stats.mean_delay_ms,
                                              stats.loss_rate))
    return results


def write_results_csv(results: Sequence[PerturbationResult], path: str) -> None:
    write_csv(path, "gamma,load,mean_delay_ms,loss_rate",
              ([r.gamma, r.load_fraction, repr(r.mean_delay_ms), repr(r.loss_rate)]
               for r in results))


def write_utilization_csv(stats: FlowStats, path: str) -> None:
    write_csv(path, "link_from,link_to,utilization",
              ([a, b, repr(u)] for (a, b), u in stats.link_utilization.items()))
