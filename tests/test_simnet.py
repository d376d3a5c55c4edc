import dataclasses
import hashlib
import heapq
import math
import os
import sys
from collections import deque

import numpy as np
import pytest

from lightwan import designer, geo, simnet
from lightwan.capacity import route_demand, series_needed
from lightwan.geo import GeoPoint, Site, latency_ms
from lightwan.graphcore import distance_matrix, shortest_path, weight_matrix
from lightwan.simnet import (
    FlowRecord, FlowStats, SimConfig, SimLink, SimTopology, build_routing,
    expected_link_loads, perturbation_experiment, run, topology_from_design,
)
from lightwan.traffic import TrafficMatrix, gravity_matrix

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from dict_graph import (  # noqa: E402
    latency_graph, link_for, shortest_path_lengths, shortest_paths_from, to_csr,
)
from test_designer import affordable_links, random_instance  # noqa: E402
from test_graphcore import assert_walk_matches  # noqa: E402


# --- slow reference engine ------------------------------------------------------
# The simulator as it was before one event per hop: three event kinds
# (generate, tx done, arrive), a busy flag and a queue of waiting packets
# per directed link. Its heap key puts tx-done events first among equal
# timestamps, the departures-before-arrivals rule `run` documents, and then
# orders events by flow id and send time. A flow with a split in its table
# entries draws one row of uniforms per packet from its own stream, one per
# hop of its longest path; the draw in column h takes the split at the
# packet's h-th hop.

class _RefLinkState:
    __slots__ = ("rate_bps", "prop_s", "queue", "busy", "busy_s")

    def __init__(self, rate_bps: float, prop_s: float) -> None:
        self.rate_bps = rate_bps
        self.prop_s = prop_s
        self.queue: deque = deque()
        self.busy = False
        self.busy_s = 0.0


def table_depth(table, node, dst) -> tuple[int, bool]:
    """The longest table path from `node` to `dst` in hops, and whether an
    entry on the way has several next hops."""
    if node == dst:
        return 0, False
    below = [table_depth(table, nbr, dst) for nbr, _ in table[(node, dst)]]
    return (1 + max(d for d, _ in below),
            len(below) > 1 or any(s for _, s in below))


def reference_run(topology, traffic, table, cfg) -> FlowStats:
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

    links: dict[tuple[str, str], _RefLinkState] = {}
    for link in topology.links:
        prop = latency_ms(link.length_km, link.medium) / 1000.0
        rate = link.capacity_gbps * 1e9
        links[(link.a, link.b)] = _RefLinkState(rate, prop)
        links[(link.b, link.a)] = _RefLinkState(rate, prop)

    sent = [0] * len(flows)
    delivered = [0] * len(flows)
    dropped = [0] * len(flows)
    delay_sum = [0.0] * len(flows)
    delay_max = [0.0] * len(flows)

    flow_hash = [int(hashlib.sha256(f"{a}->{b}".encode()).hexdigest(), 16) / 2 ** 256
                 for a, b, _ in flows]
    draws = []  # per flow: its stream and row width, or None
    for fid, (a, b, _) in enumerate(flows):
        depth, split = table_depth(table, a, b)
        draws.append((np.random.default_rng([cfg.seed, fid]), depth)
                     if split and not cfg.per_flow_hashing else None)

    heap: list = []
    seq = 0

    def push(time: float, kind: int, fid: int, send_t: float, payload) -> None:
        # kind: 0 = generate, 1 = tx done, 2 = arrive
        nonlocal seq
        heapq.heappush(heap, (time, 0 if kind == 1 else 1, fid, send_t, seq, kind, payload))
        seq += 1

    def start_tx(edge: tuple[str, str], state: _RefLinkState, t: float) -> None:
        fid, send_t, row, hop = state.queue.popleft()
        tx = packet_bits / state.rate_bps
        state.busy = True
        overlap = min(t + tx, sim_end) - max(t, warm_start)
        if overlap > 0:
            state.busy_s += overlap
        push(t + tx, 1, fid, send_t, (edge, row, hop))

    def forward(fid: int, send_t: float, row, hop: int, node: str, t: float) -> None:
        src, dst, _ = flows[fid]
        hops = table[(node, dst)]
        if len(hops) == 1:
            nh = hops[0][0]
        else:
            x = flow_hash[fid] if cfg.per_flow_hashing else row[hop]
            acc = 0.0
            nh = hops[-1][0]
            for nbr, w in hops:
                acc += w
                if x < acc:
                    nh = nbr
                    break
        state = links[(node, nh)]
        counted = send_t >= warm_start
        if len(state.queue) >= cfg.queue_capacity_packets:
            if counted:
                dropped[fid] += 1
            return
        state.queue.append((fid, send_t, row, hop + 1))
        if not state.busy:
            start_tx((node, nh), state, t)

    for fid, (a, b, rate) in enumerate(flows):
        interval = packet_bits / (rate * 1e9)
        t = float(rng.uniform(0.0, interval))
        push(t, 0, fid, t, None)

    while heap and heap[0][0] <= sim_end:
        t, _, fid, send_t, _, kind, payload = heapq.heappop(heap)
        if kind == 0:
            a, b, rate = flows[fid]
            if t >= warm_start:
                sent[fid] += 1
            row = draws[fid][0].random(draws[fid][1]) if draws[fid] else None
            forward(fid, t, row, 0, a, t)
            nxt = t + packet_bits / (rate * 1e9)
            if nxt < sim_end:
                push(nxt, 0, fid, nxt, None)
        elif kind == 1:
            edge, row, hop = payload
            state = links[edge]
            push(t + state.prop_s, 2, fid, send_t, (edge[1], row, hop))
            if state.queue:
                start_tx(edge, state, t)
            else:
                state.busy = False
        else:
            node, row, hop = payload
            if node == flows[fid][1]:
                if send_t >= warm_start:
                    delivered[fid] += 1
                    delay = t - send_t
                    delay_sum[fid] += delay
                    delay_max[fid] = max(delay_max[fid], delay)
            else:
                forward(fid, send_t, row, hop, node, t)

    records: dict[tuple[str, str], FlowRecord] = {}
    total_delay = 0.0
    total_delivered = 0
    total_dropped = 0
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
        total_delivered += delivered[fid]
        total_dropped += dropped[fid]
    window = sim_end - warm_start
    utilization = {edge: state.busy_s / window for edge, state in sorted(links.items())}
    completed = total_delivered + total_dropped
    return FlowStats(
        flows=records,
        link_utilization=utilization,
        mean_delay_ms=(total_delay / total_delivered * 1000.0
                       if total_delivered else math.nan),
        loss_rate=total_dropped / completed if completed else 0.0)


# --- Dijkstra reference routing ------------------------------------------------
# The "shortest_path" table and the downhill DAGs as they were before routes
# came from the distance kernel: Dijkstra from every destination over the
# latency graph, ties to the lexicographically smallest node sequence.

def reference_shortest_path_table(topology, traffic) -> dict:
    g = latency_graph(topology)
    demands = simnet._directed_demands(traffic)
    table = {}
    for dst in sorted({dst for _, dst in demands}):
        paths = shortest_paths_from(g, dst)
        for (src, d2), h in demands.items():
            if d2 != dst:
                continue
            p = paths.get(src)
            if p is None:
                raise designer.InfeasibleDesignError(f"pair ({src}, {dst}) disconnected")
            chain = p.nodes[::-1]  # src ... dst
            for i, node in enumerate(chain[:-1]):
                table[(node, dst)] = ((chain[i + 1], 1.0),)
    return table


def reference_downhill_dag(g, destinations):
    """Distances and uniform starting splits over the strictly-downhill next
    hops, per (node, destination): the dict DAG `reference_build_routing`
    rebalances."""
    dist = {}
    allowed = {}
    for dst in destinations:
        d = shortest_path_lengths(g, dst)
        dist[dst] = d
        table = {}
        for node in g.nodes():
            if node == dst or node not in d:
                continue
            table[node] = sorted(nbr for nbr in g.neighbors(node)
                                 if nbr in d and d[nbr] < d[node])
        allowed[dst] = table
    weights = {}
    for dst, table in allowed.items():
        for node, nbrs in table.items():
            if not nbrs:
                continue
            w = 1.0 / len(nbrs)
            weights[(node, dst)] = [(n, w) for n in nbrs]
    return dist, weights


def reference_down(g, nodes, destinations) -> np.ndarray:
    """The downhill edges of `reference_downhill_dag` as `_downhill_dag`'s
    boolean array [destination, node, next hop]."""
    _, split = reference_downhill_dag(g, destinations)
    down = np.zeros((len(destinations), len(nodes), len(nodes)), dtype=bool)
    for (node, dst), entry in split.items():
        for nbr, _ in entry:
            down[destinations.index(dst), nodes.index(node), nodes.index(nbr)] = True
    return down


# --- dict reference rebalancing and fluid loads ---------------------------------
# `min_max_util` and `expected_link_loads` as they were before the split
# arrays: per-(node, destination) dicts, a propagation in decreasing-distance
# order, potentials filled in increasing-distance order, and a Kahn walk.

def _reference_propagate(weights, demands, dist):
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


def _reference_max_utilization(loads, caps) -> float:
    return max((v / caps[e] for e, v in loads.items()), default=0.0)


def reference_build_routing(topology, traffic, iterations=300) -> dict:
    """`build_routing`'s `min_max_util` table as the per-entry dict loop
    computed it, `iterations` rounds over the Dijkstra downhill DAGs."""
    demands = simnet._directed_demands(traffic)
    destinations = sorted({dst for _, dst in demands})
    dist, weights = reference_downhill_dag(latency_graph(topology), destinations)
    caps = {}
    for link in topology.links:
        caps[(link.a, link.b)] = link.capacity_gbps
        caps[(link.b, link.a)] = link.capacity_gbps

    best_weights = {k: list(v) for k, v in weights.items()}
    best_max = math.inf
    for it in range(iterations):
        loads = _reference_propagate(weights, demands, dist)
        maxu = _reference_max_utilization(loads, caps)
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
    return table


def reference_expected_link_loads(topology, table, traffic, aggregate_gbps) -> dict:
    """Tables are loop-free DAGs per destination, so each destination's flow
    is pushed through a Kahn topological order of the reachable sub-DAG."""
    demands = {k: v * aggregate_gbps for k, v in simnet._directed_demands(traffic).items()}
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
            hops = table[(node, dst)]
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


def assert_tables_close(got: dict, want: dict) -> None:
    """Same keys and next-hop tuples, weights within abs 1e-12."""
    assert got.keys() == want.keys()
    for key, hops in want.items():
        assert [n for n, _ in got[key]] == [n for n, _ in hops], key
        for (_, w), (_, w_ref) in zip(got[key], hops):
            assert w == pytest.approx(w_ref, rel=0, abs=1e-12), key


def assert_loads_close(topo, table, traffic, aggregate_gbps) -> None:
    """`expected_link_loads` against the Kahn walk: same keys, rel 1e-12."""
    got = expected_link_loads(topo, table, traffic, aggregate_gbps)
    want = reference_expected_link_loads(topo, table, traffic, aggregate_gbps)
    assert got.keys() == want.keys()
    for edge, load in want.items():
        assert got[edge] == pytest.approx(load, rel=1e-12), edge


def table_walk(next_hops, src, dst) -> list:
    nodes = [src]
    while nodes[-1] != dst:
        nodes.append(next_hops[(nodes[-1], dst)][0][0])
    return nodes


def assert_routing_matches_reference(topo, traffic, monkeypatch) -> int:
    """build_routing against the Dijkstra references: shortest-path walks by
    `assert_walk_matches`, downhill distances within rel 1e-12, downhill
    edges equal, 30-iteration min_max_util tables equal on both DAGs and
    close to the dict loop's, fluid loads close to the Kahn walk's for both
    tables. Returns the number of changed shortest-path walks."""
    g = latency_graph(topo)
    nodes = sorted(g.nodes())
    index = {n: i for i, n in enumerate(nodes)}
    w = weight_matrix(nodes, {(a, b): x for a, b, x in g.edges()})
    dist = distance_matrix(w)
    demands = simnet._directed_demands(traffic)
    got = build_routing(topo, traffic, "shortest_path")
    want = reference_shortest_path_table(topo, traffic)
    changed = 0
    for src, dst in demands:
        a, b = table_walk(got, src, dst), table_walk(want, src, dst)
        assert_walk_matches(w, dist, [index[n] for n in a], [index[n] for n in b])
        changed += a != b
    dests = sorted({dst for _, dst in demands})
    assert np.array_equal(simnet._downhill_dag(nodes, w, dist, dests),
                          reference_down(g, nodes, dests))
    dist_want, _ = reference_downhill_dag(g, dests)
    for dst in dests:
        col = dist[:, index[dst]]
        assert {nodes[u] for u in np.flatnonzero(np.isfinite(col))} == dist_want[dst].keys()
        for node, d in dist_want[dst].items():
            assert col[index[node]] == pytest.approx(d, rel=1e-12)
    # A short rebalancing run keeps this cheap; every round reads the DAG.
    monkeypatch.setattr(simnet, "REBALANCE_ITERATIONS", 30)
    balanced = build_routing(topo, traffic, "min_max_util")
    assert_tables_close(balanced, reference_build_routing(topo, traffic, 30))
    for table in (balanced, build_routing(topo, traffic, "shortest_path")):
        assert_loads_close(topo, table, traffic, 1.0)
    monkeypatch.setattr(simnet, "_downhill_dag",
                        lambda nodes, *args: reference_down(g, nodes, args[-1]))
    assert balanced == build_routing(topo, traffic, "min_max_util")
    monkeypatch.undo()
    return changed


def seeded_cases():
    """24 seeded (instance, topology) cases of 6 to 20 sites."""
    for seed in range(24):
        inp = random_instance(seed, n_sites=6 + seed % 15)
        design = designer.evaluate_design(designer.HybridEvaluator(inp), affordable_links(inp, seed))
        yield inp, topology_from_design(inp, design)


def test_routing_matches_dijkstra_reference(monkeypatch):
    changed = 0
    for inp, topo in seeded_cases():
        changed += assert_routing_matches_reference(topo, inp.traffic, monkeypatch)
    assert changed > 0


def fluid_max_utilization(topo, table, traffic) -> float:
    caps = {}
    for link in topo.links:
        caps[(link.a, link.b)] = caps[(link.b, link.a)] = link.capacity_gbps
    return max(v / caps[e] for e, v in expected_link_loads(topo, table, traffic, 1.0).items())


def lp_min_max_utilization(topo, traffic) -> float:
    """The least maximum link utilization of splittable flow over the same
    strictly-downhill DAGs, by linear programming: one flow variable per
    (destination, downhill edge) and the utilization t; conservation at
    every node but the destination; each directed link's flow <= t x cap."""
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    g = latency_graph(topo)
    nodes = sorted(g.nodes())
    demands = simnet._directed_demands(traffic)
    dests = sorted({dst for _, dst in demands})
    ks, us, vs = np.nonzero(reference_down(g, nodes, dests))
    m, n = len(ks), len(nodes)
    flows = np.arange(m)
    balance = coo_matrix((np.r_[np.ones(m), -np.ones(m)],
                          (np.r_[ks * n + us, ks * n + vs], np.r_[flows, flows])),
                         shape=(len(dests) * n, m + 1)).tocsr()
    inject = np.zeros(len(dests) * n)
    for (src, dst), h in demands.items():
        inject[dests.index(dst) * n + nodes.index(src)] = h
    rows = [k * n + u for k in range(len(dests)) for u in range(n) if nodes[u] != dests[k]]
    edges = sorted(set(zip(us.tolist(), vs.tolist())))
    edge_row = np.array([edges.index(e) for e in zip(us.tolist(), vs.tolist())])
    caps = [link_for(topo, nodes[u], nodes[v]).capacity_gbps for u, v in edges]
    capacity = coo_matrix((np.r_[np.ones(m), -np.array(caps)],
                           (np.r_[edge_row, np.arange(len(edges))],
                            np.r_[flows, np.full(len(edges), m)])),
                          shape=(len(edges), m + 1))
    res = linprog(np.r_[np.zeros(m), 1.0], A_ub=capacity, b_ub=np.zeros(len(edges)),
                  A_eq=balance[rows], b_eq=inject[rows], bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return res.fun


def test_min_max_util_within_ten_percent_of_lp_bound():
    pytest.importorskip("scipy")
    for seed, (inp, topo) in enumerate(seeded_cases()):
        achieved = fluid_max_utilization(
            topo, build_routing(topo, inp.traffic, "min_max_util"), inp.traffic)
        bound = lp_min_max_utilization(topo, inp.traffic)
        assert achieved >= bound * (1 - 1e-9), seed
        assert achieved <= bound * 1.10, (seed, achieved / bound - 1)


def hand_built_cases():
    """(topology, traffic, vacuum light speed in km/s) of every hand-built
    topology in this file that routes."""
    def mw(a, b, km, cap):
        return SimLink(a, b, km, "mw", cap)

    def square(cap_ax, cap_xb, cap_ay, cap_yb):
        return SimTopology(["a", "x", "y", "b"], [
            mw("a", "x", 50.0, cap_ax), mw("x", "b", 50.0, cap_xb),
            mw("a", "y", 50.0, cap_ay), mw("y", "b", 50.0, cap_yb)])

    c = geo.C_VACUUM_KM_S
    ab = TrafficMatrix({("a", "b"): 1.0})
    line = SimTopology(["a", "b", "c"], [mw("a", "b", 60.0, 0.05), mw("b", "c", 60.0, 0.05)])
    sites = [Site("a", GeoPoint(0, 0), 10.0), Site("b", GeoPoint(0, 0.54), 10.0),
             Site("c", GeoPoint(0, 1.08), 10.0)]
    return [
        (single_link_topology(0.05), ab, c),
        (SimTopology(["s1", "s2", "m", "d"], [
            mw("s1", "m", 10.0, 1.0), mw("s2", "m", 10.0, 1.0), mw("m", "d", 10.0, 0.1)]),
         TrafficMatrix({("d", "s1"): 0.5, ("d", "s2"): 0.5}), c),
        (square(0.2, 0.2, 0.2, 0.2), ab, c),
        (SimTopology(["a", "m", "b"], [
            mw("a", "m", 80.0, 0.2), SimLink("m", "b", 70.0, "fiber", 0.2)]), ab, c),
        (square(1.0, 1.0, 1.0, 1.0), ab, c),
        (SimTopology(["a", "b", "c"], [
            mw("a", "b", 100.0, 1.0), mw("b", "c", 100.0, 1.0), mw("a", "c", 300.0, 1.0)]),
         TrafficMatrix({("a", "c"): 1.0}), c),
        (SimTopology(["a", "x", "y", "b", "c"], [
            mw("a", "x", 50.0, 1.0), mw("x", "b", 50.0, 0.5), mw("a", "y", 50.0, 0.6),
            mw("y", "b", 50.0, 1.0), mw("b", "c", 50.0, 2.0)]),
         TrafficMatrix({("a", "b"): 0.7, ("a", "c"): 0.3}), c),
        (square(1.0, 0.5, 0.7, 1.0), ab, c),
        (SimTopology(["c", "d", "m", "s"], [
            mw("s", "m", 1000.0, 1.024), mw("m", "d", 1.0, 0.001024),
            mw("c", "m", 1000.0 + 2 ** -9 * 1000.0, 1.024)]),
         TrafficMatrix({("s", "d"): 1.0, ("c", "d"): 1.0}), 1000.0),
        (line, gravity_matrix(sites), c),
        (SimTopology(["a", "b", "x", "y"], [
            mw("a", "x", 50.0, 0.05), mw("x", "b", 50.0, 0.05),
            mw("a", "y", 80.0, 0.05), mw("y", "b", 60.0, 0.05)]),
         TrafficMatrix({("a", "b"): 0.5, ("x", "y"): 0.5}), c),
    ]


def test_min_max_util_matches_dict_reference_on_hand_built_and_designed(monkeypatch):
    inp, _, designed, _ = designed_topology()
    c = geo.C_VACUUM_KM_S
    for topo, traffic, c_km_s in [(designed, inp.traffic, c), *hand_built_cases()]:
        monkeypatch.setattr(geo, "C_VACUUM_KM_S", c_km_s)
        balanced = build_routing(topo, traffic, "min_max_util")
        assert_tables_close(balanced, reference_build_routing(topo, traffic))
        for table in (balanced, build_routing(topo, traffic, "shortest_path")):
            assert_loads_close(topo, table, traffic, 1.0)


@pytest.mark.parametrize("idle_nodes", [0, 110])
def test_expected_link_loads_raises_on_looping_table(idle_nodes):
    # Half of the flow x passes to y comes back to x: the Kahn walk never
    # released x or y and dropped every load past x without a word. With
    # 114 nodes the float flow round the loop settles within n + 1 steps,
    # so only the hop count sees the loop.
    idle = [f"z{i:03d}" for i in range(idle_nodes)]
    topo = SimTopology(["a", "b", "x", "y", *idle], [
        SimLink("a", "x", 10.0, "mw", 1.0), SimLink("x", "y", 10.0, "mw", 1.0),
        SimLink("y", "b", 10.0, "mw", 1.0), SimLink("x", "b", 10.0, "mw", 1.0)])
    table = {
        ("a", "b"): (("x", 1.0),), ("x", "b"): (("y", 0.5), ("b", 0.5)),
        ("y", "b"): (("x", 1.0),), ("b", "a"): (("x", 1.0),), ("x", "a"): (("a", 1.0),)}
    with pytest.raises(ValueError, match="routing loop towards 'b'"):
        expected_link_loads(topo, table, TrafficMatrix({("a", "b"): 1.0}), 1.0)


def test_expected_link_loads_raises_on_missing_entry():
    topo = SimTopology(["a", "m", "b"], [
        SimLink("a", "m", 10.0, "mw", 1.0), SimLink("m", "b", 10.0, "mw", 1.0)])
    table = {("a", "b"): (("m", 1.0),), ("b", "a"): (("m", 1.0),), ("m", "a"): (("a", 1.0),)}
    with pytest.raises(KeyError, match=r"\('m', 'b'\)"):
        expected_link_loads(topo, table, TrafficMatrix({("a", "b"): 1.0}), 1.0)


def single_link_topology(cap=0.1):
    return SimTopology(["a", "b"], [SimLink("a", "b", 100.0, "mw", cap)])


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(packet_bytes=0)
    with pytest.raises(ValueError):
        SimConfig(sim_seconds=0.0)
    with pytest.raises(ValueError):
        SimConfig(routing="magic")
    with pytest.raises(ValueError, match="unknown routing scheme 'throughput_optimal'"):
        SimConfig(routing="throughput_optimal")


@pytest.mark.parametrize("field,value", [
    ("sim_seconds", math.inf), ("sim_seconds", math.nan), ("aggregate_gbps", math.inf),
    ("aggregate_gbps", math.nan), ("aggregate_gbps", -1.0),
    ("queue_capacity_packets", 2.5), ("packet_bytes", 0.5)])
def test_config_rejects_non_finite_and_fractional_values(field, value):
    # An infinite aggregate gives a zero packet interval and an infinite run
    # never ends; nan compares false with every bound.
    with pytest.raises(ValueError, match=field):
        SimConfig(**{field: value})


def test_topology_validation():
    with pytest.raises(ValueError):
        SimTopology(["a", "b"], [SimLink("a", "b", 1.0, "mw", 1.0),
                                 SimLink("b", "a", 1.0, "fiber", 1.0)])
    with pytest.raises(ValueError):
        SimTopology(["a"], [SimLink("a", "b", 1.0, "mw", 1.0)])


@pytest.mark.parametrize("field", ["length_km", "capacity_gbps"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_link_rejects_non_finite_or_non_positive(field, value):
    kwargs = {"length_km": 10.0, "capacity_gbps": 1.0, field: value}
    with pytest.raises(ValueError, match=rf"link \(a, b\): {field} must be finite"):
        SimLink("a", "b", medium="mw", **kwargs)


def test_load_topology_names_a_nan_link(tmp_path):
    path = tmp_path / "topology.json"
    path.write_text('{"nodes": ["a", "b", "c"], "links": ['
                    '{"a": "a", "b": "b", "length_km": 10.0, "medium": "mw", "capacity_gbps": 1.0},'
                    '{"a": "b", "b": "c", "length_km": NaN, "medium": "mw", "capacity_gbps": 1.0}]}')
    with pytest.raises(ValueError, match=r"link \(b, c\): length_km must be finite"):
        simnet.load_topology(str(path))


def test_single_flow_no_contention():
    topo = single_link_topology(cap=0.1)
    m = TrafficMatrix({("a", "b"): 1.0})
    table = build_routing(topo, m, "shortest_path")
    cfg = SimConfig(aggregate_gbps=0.05, sim_seconds=0.2, seed=1)
    stats = run(topo, m, table, cfg)
    rec = stats.flows[("a", "b")]
    assert rec.loss == 0.0
    assert rec.dropped == 0
    bound = latency_ms(100.0, "mw") + 500 * 8 / 0.1e9 * 1000.0
    assert rec.mean_delay_ms == pytest.approx(bound, rel=1e-9)
    assert rec.max_delay_ms == pytest.approx(bound, rel=1e-9)


def test_packet_conservation_exact():
    topo = single_link_topology(cap=0.05)
    m = TrafficMatrix({("a", "b"): 1.0})
    table = build_routing(topo, m, "shortest_path")
    cfg = SimConfig(aggregate_gbps=0.08, sim_seconds=0.3, seed=3)  # overloaded
    stats = run(topo, m, table, cfg)
    for rec in stats.flows.values():
        assert rec.sent == rec.delivered + rec.dropped + rec.in_flight
        assert rec.in_flight >= 0
    assert stats.loss_rate > 0.0


def test_overloaded_link_steady_state_loss():
    # Two flows at 75% each of a shared bottleneck: offered 150%, so a
    # third of arrivals drop once the queue saturates.
    topo = SimTopology(["s1", "s2", "m", "d"], [
        SimLink("s1", "m", 10.0, "mw", 1.0),
        SimLink("s2", "m", 10.0, "mw", 1.0),
        SimLink("m", "d", 10.0, "mw", 0.1),
    ])
    m = TrafficMatrix({("d", "s1"): 0.5, ("d", "s2"): 0.5})
    table = build_routing(topo, m, "shortest_path")
    cfg = SimConfig(aggregate_gbps=0.15, sim_seconds=1.5, seed=2,
                    queue_capacity_packets=200)
    stats = run(topo, m, table, cfg)
    drops = sum(r.dropped for r in stats.flows.values() if r.dst == "d")
    done = sum(r.dropped + r.delivered for r in stats.flows.values() if r.dst == "d")
    assert drops / done == pytest.approx(1.0 / 3.0, abs=0.02)
    # The bottleneck serves at capacity.
    assert stats.link_utilization[("m", "d")] == pytest.approx(1.0, abs=0.01)


def test_determinism_per_seed():
    topo = SimTopology(["a", "x", "y", "b"], [
        SimLink("a", "x", 50.0, "mw", 0.2), SimLink("x", "b", 50.0, "mw", 0.2),
        SimLink("a", "y", 50.0, "mw", 0.2), SimLink("y", "b", 50.0, "mw", 0.2),
    ])
    m = TrafficMatrix({("a", "b"): 1.0})
    table = build_routing(topo, m, "min_max_util")
    cfg = SimConfig(aggregate_gbps=0.1, sim_seconds=0.2, seed=11)
    s1 = run(topo, m, table, cfg)
    s2 = run(topo, m, table, cfg)
    assert s1.flows == s2.flows
    assert s1.link_utilization == s2.link_utilization
    s3 = run(topo, m, table, SimConfig(aggregate_gbps=0.1, sim_seconds=0.2, seed=12))
    assert s3.flows != s1.flows


def test_delay_never_below_propagation_bound():
    topo = SimTopology(["a", "m", "b"], [
        SimLink("a", "m", 80.0, "mw", 0.2), SimLink("m", "b", 70.0, "fiber", 0.2)])
    m = TrafficMatrix({("a", "b"): 1.0})
    table = build_routing(topo, m, "shortest_path")
    cfg = SimConfig(aggregate_gbps=0.15, sim_seconds=0.3, seed=5)
    stats = run(topo, m, table, cfg)
    tx = 500 * 8 / 0.2e9 * 1000.0
    bound = latency_ms(80.0, "mw") + latency_ms(70.0, "fiber") + 2 * tx
    rec = stats.flows[("a", "b")]
    assert rec.mean_delay_ms >= bound - 1e-9
    assert rec.max_delay_ms >= bound - 1e-9


def test_utilization_at_most_one():
    topo = single_link_topology(cap=0.02)
    m = TrafficMatrix({("a", "b"): 1.0})
    table = build_routing(topo, m, "shortest_path")
    cfg = SimConfig(aggregate_gbps=0.08, sim_seconds=0.5, seed=9)
    stats = run(topo, m, table, cfg)
    assert all(u <= 1.0 + 1e-12 for u in stats.link_utilization.values())


def test_min_max_util_symmetric_split():
    topo = SimTopology(["a", "x", "y", "b"], [
        SimLink("a", "x", 50.0, "mw", 1.0), SimLink("x", "b", 50.0, "mw", 1.0),
        SimLink("a", "y", 50.0, "mw", 1.0), SimLink("y", "b", 50.0, "mw", 1.0),
    ])
    m = TrafficMatrix({("a", "b"): 1.0})
    table = build_routing(topo, m, "min_max_util")
    hops = dict(table[("a", "b")])
    assert hops["x"] == pytest.approx(0.5, abs=1e-6)
    assert hops["y"] == pytest.approx(0.5, abs=1e-6)


def test_shortest_path_on_unequal_triangle():
    topo = SimTopology(["a", "b", "c"], [
        SimLink("a", "b", 100.0, "mw", 1.0), SimLink("b", "c", 100.0, "mw", 1.0),
        SimLink("a", "c", 300.0, "mw", 1.0)])
    m = TrafficMatrix({("a", "c"): 1.0})
    table = build_routing(topo, m, "shortest_path")
    assert table[("a", "c")] == (("b", 1.0),)
    assert table[("b", "c")] == (("c", 1.0),)


def test_min_max_util_within_one_percent_of_grid_oracle():
    # Five nodes, two tunable split points; the splittable optimum is found
    # by exhaustive grid search over the split ratios.
    topo = SimTopology(["a", "x", "y", "b", "c"], [
        SimLink("a", "x", 50.0, "mw", 1.0), SimLink("x", "b", 50.0, "mw", 0.5),
        SimLink("a", "y", 50.0, "mw", 0.6), SimLink("y", "b", 50.0, "mw", 1.0),
        SimLink("b", "c", 50.0, "mw", 2.0)])
    m = TrafficMatrix({("a", "b"): 0.7, ("a", "c"): 0.3})
    achieved = fluid_max_utilization(topo, build_routing(topo, m, "min_max_util"), m)
    # Oracle: forward direction, splits t1 (a->b demand) and t2 (a->c demand).
    best = math.inf
    for t1 in np.linspace(0, 1, 1001):
        u = 0.7 * t1
        for t2 in (0.0, 0.25, 0.5, 0.75, 1.0):
            uu = u + 0.3 * t2
            val = max(uu / 1.0, uu / 0.5, (1 - uu) / 0.6, (1 - uu) / 1.0, 0.3 / 2.0)
            best = min(best, val)
    assert achieved <= best * 1.01 + 1e-9
    assert achieved >= best - 1e-3  # cannot beat the splittable optimum


def test_disconnected_topology_raises():
    topo = SimTopology(["a", "b", "c"], [SimLink("a", "b", 10.0, "mw", 1.0)])
    m = TrafficMatrix({("a", "c"): 1.0})
    for scheme in ("shortest_path", "min_max_util"):
        with pytest.raises(designer.InfeasibleDesignError, match=r"pair \(a, c\) disconnected"):
            build_routing(topo, m, scheme)


def designed_topology():
    """10-site designed instance with capacities provisioned for its own
    gravity traffic at the designed aggregate."""
    import os, sys
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from test_designer import random_instance

    inp = random_instance(42, n_sites=10, mw_fraction=0.4, budget_fraction=0.5)
    design = designer.solve_heuristic(inp)
    probe = route_demand(design, inp.traffic, 1.0)
    max_mw = max(probe.mw.values())
    designed_aggregate = 3.9 / max_mw  # bottleneck lands just under k=2 capacity
    loads = route_demand(design, inp.traffic, designed_aggregate)
    caps = {pair: float(series_needed(load) ** 2)
            for pair, load in loads.mw.items()}
    topo = topology_from_design(inp, design, link_capacities=caps,
                                fiber_capacity_gbps=1000.0)
    return inp, design, topo, designed_aggregate


def test_designed_topology_seventy_percent_load_clean():
    inp, design, topo, designed_aggregate = designed_topology()
    table = build_routing(topo, inp.traffic, "shortest_path")
    cfg = SimConfig(aggregate_gbps=0.7 * designed_aggregate, sim_seconds=0.05,
                    seed=7)
    stats = run(topo, inp.traffic, table, cfg)
    assert stats.loss_rate == 0.0
    # Mean queuing delay: subtract each flow's propagation + transmission bound.
    g = to_csr(latency_graph(topo))
    total_q = 0.0
    n = 0
    for (a, b), rec in stats.flows.items():
        if rec.delivered == 0:
            continue
        p = shortest_path(g, a, b)
        tx = sum(500 * 8 / (link_for(topo, u, v).capacity_gbps * 1e9) * 1000.0
                 for u, v in p.edges)
        q = rec.mean_delay_ms - (p.total_weight + tx)
        assert q >= -1e-9  # not negative beyond float noise
        total_q += max(q, 0.0) * rec.delivered
        n += rec.delivered
    assert total_q / n < 0.1


def test_designed_topology_overload_loses_packets():
    inp, design, topo, designed_aggregate = designed_topology()
    table = build_routing(topo, inp.traffic, "shortest_path")
    cfg = SimConfig(aggregate_gbps=1.2 * designed_aggregate, sim_seconds=0.05,
                    seed=7, queue_capacity_packets=200)
    stats = run(topo, inp.traffic, table, cfg)
    assert stats.loss_rate > 0.0


def _bits(stats: FlowStats):
    """Every number of a run, floats as `float.hex`, so == is bitwise."""
    def hexed(v):
        return float.hex(v) if isinstance(v, float) else repr(v)
    flows = [(k, [hexed(v) for v in dataclasses.astuple(r)]) for k, r in stats.flows.items()]
    util = [(k, hexed(u)) for k, u in stats.link_utilization.items()]
    return flows, util, hexed(stats.mean_delay_ms), hexed(stats.loss_rate)


@pytest.fixture(scope="module")
def designed_with_tables():
    inp, _, topo, designed_aggregate = designed_topology()
    tables = {r: build_routing(topo, inp.traffic, r) for r in ("shortest_path", "min_max_util")}
    return inp, topo, designed_aggregate, tables


@pytest.mark.parametrize("load,queue", [(0.7, 1000), (2.0, 5)])
@pytest.mark.parametrize("hashing", [False, True])
@pytest.mark.parametrize("routing", ["shortest_path", "min_max_util"])
def test_run_bitwise_equals_reference_on_designed_topology(designed_with_tables, routing,
                                                           hashing, load, queue):
    # At 2x load with queue 5, shortest_path routing puts arrivals at full
    # queues exactly when their heads start, so the tie rule is exercised.
    inp, topo, designed_aggregate, tables = designed_with_tables
    cfg = SimConfig(aggregate_gbps=load * designed_aggregate, sim_seconds=0.003, seed=3,
                    queue_capacity_packets=queue, routing=routing, per_flow_hashing=hashing)
    args = (topo, inp.traffic, tables[routing], cfg)
    assert _bits(run(*args)) == _bits(reference_run(*args))


@pytest.mark.parametrize("routing", ["shortest_path", "min_max_util"])
def test_packet_utilization_matches_fluid_below_saturation(designed_with_tables, routing):
    # Each directed link's measured utilization u' against the fluid
    # u = expected_link_loads / capacity, within the bench packet-sim rule:
    # a link busy for u of the window carries about k = u * window / tx
    # packets, so sigma(u') = sqrt(u * tx / window); allow 5 sigma plus one
    # packet, as bench packet-sim does. The 10 ms warm-up outlasts the
    # longest path (8.8 ms).
    inp, topo, designed_aggregate, tables = designed_with_tables
    cfg = SimConfig(aggregate_gbps=0.7 * designed_aggregate, sim_seconds=0.02, seed=5,
                    warmup_fraction=0.5, routing=routing)
    expected = expected_link_loads(topo, tables[routing], inp.traffic, cfg.aggregate_gbps)
    stats = run(topo, inp.traffic, tables[routing], cfg)
    window = cfg.sim_seconds * (1.0 - cfg.warmup_fraction)
    peak = variance = total = 0.0
    for link in topo.links:
        for edge in ((link.a, link.b), (link.b, link.a)):
            u = expected.get(edge, 0.0) / link.capacity_gbps
            tx_share = cfg.packet_bytes * 8 / (link.capacity_gbps * 1e9) / window
            assert abs(stats.link_utilization[edge] - u) <= 5.0 * math.sqrt(u * tx_share) + tx_share
            peak, variance, total = max(peak, u), variance + u * tx_share, total + u
    assert 0.5 < peak < 0.8
    # Summed over links the noise averages out; a systematic error of 2-3%
    # shows here.
    assert abs(sum(stats.link_utilization.values()) - total) <= 5.0 * math.sqrt(variance)
    assert stats.loss_rate == 0.0


@pytest.mark.parametrize("queue", [1, 2])
@pytest.mark.parametrize("load", [1.6, 2.0])
def test_run_bitwise_equals_reference_on_overloaded_link(load, queue):
    # Packets are generated every 1/1.6 or 1/2 of a transmission time, so
    # generations land exactly on departures.
    topo = single_link_topology(cap=0.05)
    m = TrafficMatrix({("a", "b"): 1.0})
    table = build_routing(topo, m, "shortest_path")
    cfg = SimConfig(aggregate_gbps=load * 0.05, sim_seconds=0.05, seed=1,
                    queue_capacity_packets=queue)
    assert _bits(run(topo, m, table, cfg)) == _bits(reference_run(topo, m, table, cfg))


def test_arrival_at_departure_instant_is_admitted(monkeypatch):
    # s's flow runs at exactly m->d's capacity (one packet per 2^-10 s)
    # and reaches m over a 1 s link, so each packet arrives at m exactly
    # when the previous one finishes on m->d: arrival times lie in [1, 2),
    # where adding 2^-10 is exact. c's link is 2^-9 s longer, so c's first
    # packet finds m->d busy and takes its only queue slot; from then on
    # every packet of s's flow arrives just as the head of a full queue
    # starts. Departures go first, so none of them is dropped; only c's
    # later packets find the slot taken.
    monkeypatch.setattr(geo, "C_VACUUM_KM_S", 1000.0)  # 1000 km of microwave = 1 s
    topo = SimTopology(["c", "d", "m", "s"], [
        SimLink("s", "m", 1000.0, "mw", 1.024),
        SimLink("m", "d", 1.0, "mw", 0.001024),  # 1000-bit packet: 2^-10 s
        SimLink("c", "m", 1000.0 + 2 ** -9 * 1000.0, "mw", 1.024)])
    m = TrafficMatrix({("s", "d"): 1.0, ("c", "d"): 1.0})
    table = build_routing(topo, m, "shortest_path")
    cfg = SimConfig(packet_bytes=125, sim_seconds=1.01, queue_capacity_packets=1,
                    aggregate_gbps=2 * 0.001024, seed=0, warmup_fraction=0.0)
    stats = run(topo, m, table, cfg)
    assert stats.flows[("s", "d")].delivered > 0
    assert stats.flows[("s", "d")].dropped == 0
    assert stats.flows[("c", "d")].dropped > 0


def test_perturbation_experiment_baseline_and_monotone_loss():
    topo = SimTopology(["a", "b", "c"], [
        SimLink("a", "b", 60.0, "mw", 0.05), SimLink("b", "c", 60.0, "mw", 0.05)])
    sites = [Site("a", GeoPoint(0, 0), 10.0), Site("b", GeoPoint(0, 0.54), 10.0),
             Site("c", GeoPoint(0, 1.08), 10.0)]
    cfg = SimConfig(aggregate_gbps=0.05, sim_seconds=0.3, seed=13,
                    queue_capacity_packets=100)
    results = perturbation_experiment(topo, sites, cfg, gammas=[0.0],
                                      loads=[0.5, 1.2, 2.0, 3.0])
    losses = [r.loss_rate for r in results]
    assert losses[0] == 0.0
    assert losses == sorted(losses)
    assert losses[-1] > 0.0
    # gamma = 0 at a given load reproduces a direct run with the same seed.
    m = gravity_matrix(sites)
    table = build_routing(topo, m, "shortest_path")
    direct = run(topo, m, table,
                 SimConfig(aggregate_gbps=0.5 * 0.05, sim_seconds=0.3, seed=13,
                           queue_capacity_packets=100))
    assert results[0].mean_delay_ms == direct.mean_delay_ms
    assert results[0].loss_rate == direct.loss_rate


def test_per_flow_hashing_single_path_per_flow():
    topo = SimTopology(["a", "x", "y", "b"], [
        SimLink("a", "x", 50.0, "mw", 1.0), SimLink("x", "b", 50.0, "mw", 1.0),
        SimLink("a", "y", 50.0, "mw", 1.0), SimLink("y", "b", 50.0, "mw", 1.0),
    ])
    m = TrafficMatrix({("a", "b"): 1.0})
    table = build_routing(topo, m, "min_max_util")
    cfg = SimConfig(aggregate_gbps=0.02, sim_seconds=0.2, seed=4,
                    per_flow_hashing=True)
    stats = run(topo, m, table, cfg)
    rec = stats.flows[("a", "b")]
    # All packets of the flow take one branch: constant delay.
    assert rec.mean_delay_ms == pytest.approx(rec.max_delay_ms, rel=1e-12)


def test_topology_roundtrip_and_from_design(tmp_path):
    import os, sys
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from test_designer import random_instance

    inp = random_instance(31, n_sites=6, mw_fraction=0.6)
    design = designer.solve_heuristic(inp)
    topo = topology_from_design(inp, design)
    assert sorted(l.medium for l in topo.links).count("mw") == len(design.built_links)
    for link in topo.links:
        if link.medium == "fiber":
            # physical km stored; latency reapplies the slowdown
            pair = (min(link.a, link.b), max(link.a, link.b))
            assert link.length_km == pytest.approx(
                inp.fiber_km_eq[pair] / geo.FIBER_SLOWDOWN, rel=1e-12)
    path = tmp_path / "topo.json"
    simnet.save_topology(topo, str(path))
    back = simnet.load_topology(str(path))
    assert back.nodes == topo.nodes
    assert back.links == topo.links


def test_results_csv(tmp_path):
    rows = [simnet.PerturbationResult(0.1, 0.5, 1.23, 0.0)]
    path = tmp_path / "r.csv"
    simnet.write_results_csv(rows, str(path))
    text = path.read_text().strip().splitlines()
    assert text[0] == "gamma,load,mean_delay_ms,loss_rate"
    assert len(text) == 2


def test_topology_from_in_memory_instance_has_plain_float_lengths():
    # A DesignInput built in memory holds numpy floats; the topology and the
    # run's delays must still be plain floats (their repr feeds the CSVs).
    import os, sys
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from test_designer import random_instance

    inp = random_instance(42, n_sites=10, mw_fraction=0.4, budget_fraction=0.5)
    design = designer.solve_heuristic(inp)
    topo = topology_from_design(inp, design)
    assert {l.medium for l in topo.links} == {"mw", "fiber"}
    assert all(type(l.length_km) is float for l in topo.links)
    table = build_routing(topo, inp.traffic, "shortest_path")
    stats = run(topo, inp.traffic, table, SimConfig(aggregate_gbps=1.0, sim_seconds=0.002))
    assert type(stats.mean_delay_ms) is float


def last_links(table, src, dst) -> set:
    """The links over which per-packet splits can bring a src -> dst packet
    to dst."""
    seen, stack, last = {src}, [src], set()
    while stack:
        node = stack.pop()
        for nbr, _ in table[(node, dst)]:
            if nbr == dst:
                last.add((node, dst))
            elif nbr not in seen:
                seen.add(nbr)
                stack.append(nbr)
    return last


@pytest.mark.parametrize("hashing", [False, True])
def test_run_bitwise_equals_reference_over_two_last_links(hashing):
    # x -> y splits over a and b, and the path via b is shorter by more
    # than a packet interval, so per-packet packets of that flow overtake
    # each other on the way to y.
    topo = SimTopology(["a", "b", "x", "y"], [
        SimLink("a", "x", 50.0, "mw", 0.05), SimLink("x", "b", 50.0, "mw", 0.05),
        SimLink("a", "y", 80.0, "mw", 0.05), SimLink("y", "b", 60.0, "mw", 0.05)])
    m = TrafficMatrix({("a", "b"): 0.5, ("x", "y"): 0.5})
    table = build_routing(topo, m, "min_max_util")
    assert last_links(table, "x", "y") == {("a", "y"), ("b", "y")}
    cfg = SimConfig(aggregate_gbps=0.08, sim_seconds=0.003, seed=2, routing="min_max_util",
                    per_flow_hashing=hashing)
    assert _bits(run(topo, m, table, cfg)) == _bits(reference_run(topo, m, table, cfg))


def test_run_bitwise_equals_reference_with_packets_in_flight():
    # 100 km of microwave takes ~0.33 ms: packets sent in the last third of
    # a millisecond are still on the link when the run ends.
    topo = single_link_topology(cap=0.05)
    m = TrafficMatrix({("a", "b"): 1.0})
    table = build_routing(topo, m, "shortest_path")
    cfg = SimConfig(aggregate_gbps=0.04, sim_seconds=0.003, seed=6)
    stats = run(topo, m, table, cfg)
    assert all(rec.in_flight > 0 for rec in stats.flows.values())
    assert _bits(stats) == _bits(reference_run(topo, m, table, cfg))


# --- link-by-link replay ---------------------------------------------------------


def random_case(seed):
    """A random tree of 3-6 sites, one of its links doubled into a diamond
    through two relays, one way 20% longer, with random lengths and
    capacities and traffic among the sites. The diamond splits only under
    min_max_util: per packet, or per flow by hashing. Each path is downhill to its destination, so no
    cycle runs through the links. Queues hold 1-5 packets or 1000, and runs
    of 1-4 ms leave packets in flight."""
    rng = np.random.default_rng(seed)
    sites = [f"s{i}" for i in range(int(rng.integers(3, 7)))]
    edges = [(sites[int(rng.integers(i))], sites[i]) for i in range(1, len(sites))]
    doubled = edges[int(rng.integers(len(edges)))]
    links = []
    for a, b in edges:
        km, cap = float(rng.uniform(20.0, 150.0)), float(rng.choice([0.2, 0.5, 1.0, 4.0]))
        if (a, b) == doubled:
            links += [SimLink(x, y, km * f, "mw", cap) for r, f in (("r0", 0.5), ("r1", 0.6))
                      for x, y in ((a, r), (r, b))]
        else:
            links.append(SimLink(a, b, km, "mw", cap))
    topo = SimTopology(sites + ["r0", "r1"], links)
    m = TrafficMatrix({(a, b): float(rng.uniform(0.1, 1.0))
                       for i, a in enumerate(sites) for b in sites[i + 1:]})
    routing, hashing = [("shortest_path", False), ("min_max_util", True),
                        ("min_max_util", False)][int(rng.integers(3))]
    cfg = SimConfig(aggregate_gbps=float(rng.uniform(0.5, 3.0)),
                    sim_seconds=float(rng.uniform(0.001, 0.004)), seed=seed,
                    queue_capacity_packets=int(rng.choice([1, 2, 3, 4, 5, 1000])),
                    routing=routing, per_flow_hashing=hashing,
                    warmup_fraction=float(rng.choice([0.0, 0.3])))
    return topo, m, build_routing(topo, m, routing), cfg


def test_replay_bitwise_equals_reference_on_random_runs(monkeypatch):
    # Each run twice: in one window, and in windows of a few packets per
    # flow, so link states, arrivals and deliveries carry from window to
    # window.
    seen = set()
    for seed in range(12):
        args = random_case(seed)
        want = _bits(reference_run(*args))
        stats = run(*args)
        assert _bits(stats) == want, seed
        with monkeypatch.context() as patch:
            patch.setattr(simnet, "_WINDOW_PACKETS", 64)
            assert _bits(run(*args)) == want, seed
        table, cfg = args[2], args[3]
        split = any(len(h) > 1 for h in table.values())
        seen |= {name for name, hit in (
            ("dropped", stats.loss_rate > 0),
            ("in flight", any(r.in_flight > 0 for r in stats.flows.values())),
            ("warm-up", cfg.warmup_fraction > 0),
            ("hashed split", cfg.per_flow_hashing and split),
            ("per-packet split", not cfg.per_flow_hashing and split),
        ) if hit}
    assert seen == {"dropped", "in flight", "warm-up", "hashed split", "per-packet split"}


def diamond(a="a", b="b", via=("x", "y")):
    return [SimLink(end, v, 50.0, "mw", 0.05) for v in via for end in (a, b)]


def test_per_packet_splits_replay_bitwise_equals_reference():
    topo = SimTopology(["a", "b", "x", "y"], diamond())
    m = TrafficMatrix({("a", "b"): 1.0})
    table = build_routing(topo, m, "min_max_util")
    assert len(table[("a", "b")]) == 2
    cfg = SimConfig(aggregate_gbps=0.08, sim_seconds=0.003, seed=2, routing="min_max_util")
    stats = run(topo, m, table, cfg)
    assert _bits(stats) == _bits(reference_run(topo, m, table, cfg))
    assert stats.link_utilization[("a", "x")] > 0 and stats.link_utilization[("a", "y")] > 0


def test_split_paths_do_not_change_when_a_flow_is_added():
    # Two separate diamonds, each pair split per packet. The c -> d flows
    # draw from their own streams, so a -> b's packets take the same paths
    # with them as without them.
    topo = SimTopology(["a", "b", "c", "d", "p", "q", "x", "y"],
                       diamond() + diamond("c", "d", ("p", "q")))
    both = TrafficMatrix({("a", "b"): 1.0, ("c", "d"): 1.0})
    table = build_routing(topo, both, "min_max_util")
    assert len(table[("a", "b")]) == len(table[("c", "d")]) == 2
    cfg = SimConfig(aggregate_gbps=0.16, sim_seconds=0.003, seed=3, queue_capacity_packets=2,
                    routing="min_max_util")
    stats = run(topo, both, table, cfg)
    # The matrix is normalized: half the aggregate keeps a -> b's rate.
    alone = run(topo, TrafficMatrix({("a", "b"): 1.0}), table,
                dataclasses.replace(cfg, aggregate_gbps=0.08))
    assert _bits(stats) == _bits(reference_run(topo, both, table, cfg))
    for key in (("a", "b"), ("b", "a")):
        assert stats.flows[key] == alone.flows[key]
    near = [e for e in stats.link_utilization if not {"c", "d", "p", "q"} & set(e)]
    assert [stats.link_utilization[e] for e in near] == [alone.link_utilization[e] for e in near]
    assert stats.loss_rate > 0


def test_link_cycle_replay_bitwise_equals_reference():
    # Round a ring of five, each site's flow to the site two ahead goes the
    # short way, so link (s0, s1) feeds (s1, s2), ..., and (s4, s0) feeds
    # (s0, s1) again: no link order exists.
    nodes = [f"s{i}" for i in range(5)]
    topo = SimTopology(nodes, [SimLink(nodes[i], nodes[(i + 1) % 5], 50.0, "mw", 0.05)
                               for i in range(5)])
    m = TrafficMatrix({(nodes[i], nodes[(i + 2) % 5]): 1.0 for i in range(5)})
    table = build_routing(topo, m, "shortest_path")
    assert table[("s4", "s1")] == (("s0", 1.0),)
    cfg = SimConfig(aggregate_gbps=0.1, sim_seconds=0.003, seed=5, queue_capacity_packets=3)
    assert _bits(run(topo, m, table, cfg)) == _bits(reference_run(topo, m, table, cfg))


def test_link_cycle_with_per_packet_splits_replay_bitwise_equals_reference():
    # On a ring of six with links of 40, 70 and 100 km, a flow to the
    # opposite site splits per packet both ways round (210 km each), and the
    # flows to the sites two ahead run round the cycle of the five-ring
    # test. Windows span less than a 100 km link, so the feeds from the
    # shorter links fix the link order.
    nodes = [f"s{i}" for i in range(6)]
    topo = SimTopology(nodes, [SimLink(nodes[i], nodes[(i + 1) % 6], 40.0 + 30.0 * (i % 3),
                                       "mw", 0.05) for i in range(6)])
    m = TrafficMatrix({**{(nodes[i], nodes[(i + 2) % 6]): 1.0 for i in range(6)},
                       ("s0", "s3"): 2.0, ("s1", "s4"): 1.0})
    table = build_routing(topo, m, "min_max_util")
    assert len(table[("s0", "s3")]) == 2
    cfg = SimConfig(aggregate_gbps=0.25, sim_seconds=0.004, seed=8, queue_capacity_packets=4,
                    routing="min_max_util", warmup_fraction=0.2)
    stats = run(topo, m, table, cfg)
    assert _bits(stats) == _bits(reference_run(topo, m, table, cfg))
    assert stats.loss_rate > 0
    assert all(r.delivered > 0 for r in stats.flows.values())


def test_equal_time_arrivals_replay_bitwise_equals_reference(monkeypatch):
    # Every phase is 0 and every time a multiple of 2^-10 s in [0, 2): a -> z
    # sends one packet per 2^-10 s over a link of 1 s that admits each as
    # the last leaves, so from 1 s on its packets reach m exactly when m -> z
    # generates one. Link (m, z) takes one packet per 2^-10 s with one queue
    # slot: at each such instant the packet admitted second is dropped, and
    # it is m -> z's, the higher flow id, though its generation was dealt
    # first.
    class ZeroPhases:
        def __init__(self, seed):
            pass

        def uniform(self, low, high):
            return low
    monkeypatch.setattr(np.random, "default_rng", ZeroPhases)
    monkeypatch.setattr(geo, "C_VACUUM_KM_S", 1000.0)  # 1000 km of microwave = 1 s
    topo = SimTopology(["a", "m", "z"], [
        SimLink("a", "m", 1000.0, "mw", 0.001024),  # 1000-bit packet: 2^-10 s
        SimLink("m", "z", 1.0, "mw", 0.001024)])
    m = TrafficMatrix({("a", "z"): 1.0, ("m", "z"): 1.0})
    table = build_routing(topo, m, "shortest_path")
    cfg = SimConfig(packet_bytes=125, sim_seconds=1.01, queue_capacity_packets=1,
                    aggregate_gbps=2 * 0.001024, warmup_fraction=0.0)
    stats = run(topo, m, table, cfg)
    assert _bits(stats) == _bits(reference_run(topo, m, table, cfg))
    assert stats.flows[("a", "z")].dropped == 0
    assert stats.flows[("m", "z")].dropped > 0


def test_replay_generates_a_phase_at_the_last_instant(monkeypatch):
    # A generation at exactly sim_seconds still counts; later generations
    # must come before it.
    class LastInstant:
        def __init__(self, seed):
            pass

        def uniform(self, low, high):
            return 0.003
    monkeypatch.setattr(np.random, "default_rng", LastInstant)
    topo = single_link_topology()
    m = TrafficMatrix({("a", "b"): 1.0})
    table = build_routing(topo, m, "shortest_path")
    cfg = SimConfig(aggregate_gbps=0.001, sim_seconds=0.003, seed=0)  # one packet per 4 ms
    stats = run(topo, m, table, cfg)
    assert _bits(stats) == _bits(reference_run(topo, m, table, cfg))
    assert [r.sent for r in stats.flows.values()] == [1, 1]


def test_run_names_a_flow_whose_interval_rounds_away(monkeypatch):
    # Phases just below the end, an interval below half an ulp there and
    # one window for the run: t + interval rounds back to t.
    class LatePhases:
        def __init__(self, seed):
            pass

        def uniform(self, low, high):
            return math.nextafter(1.0, 0.0)
    monkeypatch.setattr(np.random, "default_rng", LatePhases)
    monkeypatch.setattr(simnet, "_WINDOW_PACKETS", 2 ** 80)
    topo = single_link_topology()
    m = TrafficMatrix({("a", "b"): 1.0})
    cfg = SimConfig(aggregate_gbps=1e11, sim_seconds=1.0)
    with pytest.raises(ValueError, match="flow a->b"):
        run(topo, m, build_routing(topo, m, "shortest_path"), cfg)


def test_run_raises_on_a_looping_table():
    topo = SimTopology(["a", "b", "c"], [
        SimLink("a", "b", 50.0, "mw", 0.05), SimLink("b", "c", 50.0, "mw", 0.05)])
    m = TrafficMatrix({("a", "c"): 1.0})
    table = {**build_routing(topo, m, "shortest_path"), ("b", "c"): (("a", 1.0),)}
    with pytest.raises(ValueError, match="routing loop"):
        run(topo, m, table, SimConfig(aggregate_gbps=0.01, sim_seconds=0.001))
