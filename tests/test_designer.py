import dataclasses
import heapq
import itertools
import json
import math
import os
import pickle
import sys

import numpy as np
import pytest

from lightwan import designer, los
from lightwan.designer import (
    DesignInput, ExactGuardExceeded, HybridEvaluator, NetworkDesign, PairRoute,
    build_design_input, eliminate_dominated, evaluate_design, greedy_candidates,
    solve_exact, solve_heuristic,
)
from lightwan.geo import GeoPoint, Site, geodesic_km
from lightwan.graphcore import distance_matrix
from lightwan.los import LosParams, TerrainGrid, Tower
from lightwan.traffic import TrafficMatrix, gravity_matrix, pair_key

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from dict_graph import (  # noqa: E402
    WeightedGraph, hop_dict_graph, hop_graph_of, hop_rows, shortest_paths_from,
)
from dict_stats import reference_stretch_stats  # noqa: E402
from test_graphcore import assert_walk_matches  # noqa: E402


# --- independent oracles -----------------------------------------------------

def fw_pair_lengths(inp: DesignInput, built) -> dict:
    """All-pairs hybrid path lengths via numpy min-plus Floyd-Warshall."""
    ids = inp.site_ids
    n = len(ids)
    idx = {s: i for i, s in enumerate(ids)}
    mat = np.full((n, n), np.inf)
    np.fill_diagonal(mat, 0.0)
    for (a, b), o in inp.fiber_km_eq.items():
        i, j = idx[a], idx[b]
        mat[i, j] = mat[j, i] = min(mat[i, j], o)
    for pair in built:
        m = inp.mw_km[pair]
        i, j = idx[pair[0]], idx[pair[1]]
        mat[i, j] = mat[j, i] = min(mat[i, j], m)
    for k in range(n):
        mat = np.minimum(mat, mat[:, k:k + 1] + mat[k:k + 1, :])
    return {(a, b): mat[idx[a], idx[b]] for i, a in enumerate(ids) for b in ids[i + 1:]}


def fw_objective(inp: DesignInput, built) -> float:
    lengths = fw_pair_lengths(inp, built)
    total = 0.0
    for (a, b), h in inp.traffic.items():
        le = lengths[(a, b)]
        if math.isinf(le):
            return math.inf
        total += h / inp.geodesic[(a, b)] * le
    return total


def exhaustive_optimum(inp: DesignInput, pool=None):
    """Brute-force best subset of MW links under budget (numpy FW oracle)."""
    pool = sorted(inp.mw_km) if pool is None else sorted(pool)
    best_val = fw_objective(inp, [])
    best_set: tuple = ()
    for r in range(1, len(pool) + 1):
        for combo in itertools.combinations(pool, r):
            if sum(inp.mw_cost[p] for p in combo) > inp.budget:
                continue
            val = fw_objective(inp, combo)
            if val < best_val - 1e-12:
                best_val = val
                best_set = combo
    return best_val, set(best_set)


def dijkstra_oracle(inp: DesignInput, built, src) -> dict:
    """Test-local Dijkstra over the merged hybrid adjacency."""
    adj: dict[str, dict[str, float]] = {s: {} for s in inp.site_ids}
    for (a, b), o in inp.fiber_km_eq.items():
        adj[a][b] = min(adj[a].get(b, math.inf), o)
        adj[b][a] = adj[a][b]
    for pair in built:
        m = inp.mw_km[pair]
        a, b = pair
        if m < adj[a].get(b, math.inf):
            adj[a][b] = adj[b][a] = m
    dist = {src: 0.0}
    heap = [(0.0, src)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in adj[u].items():
            nd = d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


# --- Dijkstra reference evaluation -----------------------------------------------
# evaluate_design as it was before routes came from the distance kernel's
# next hops: Dijkstra from every site over a WeightedGraph of the hybrid
# weights, ties to the lexicographically smallest node sequence.

def reference_evaluate_design(inp: DesignInput, built_links) -> NetworkDesign:
    built = sorted(set(pair_key(*p) for p in built_links))
    towers = sum(inp.mw_cost[p] for p in built)
    ev = HybridEvaluator(inp)
    w = ev.graph_for(built)
    dist = distance_matrix(w).tolist()
    ids = inp.site_ids
    g = WeightedGraph()
    for i, a in enumerate(ids):
        g.add_node(a)
        for j in range(i):
            if math.isfinite(w[i, j]):
                g.add_edge(ids[j], a, float(w[i, j]))

    def edge_medium(a: str, b: str) -> str:
        i, j = ev.index[a], ev.index[b]
        return "mw" if w[i, j] < ev.fiber[i, j] else "fiber"

    routes = {}
    per_pair_stretch = {}
    for i, src in enumerate(ids):
        paths = shortest_paths_from(g, src)
        for j, dst in enumerate(ids[i + 1:], i + 1):
            p = paths.get(dst)
            if p is None:
                raise designer.InfeasibleDesignError(f"pair ({src}, {dst}) cannot be routed")
            media = tuple(edge_medium(u, v) for u, v in p.edges)
            s = dist[i][j] / inp.geodesic[(src, dst)]
            routes[(src, dst)] = PairRoute(p.nodes, media, dist[i][j], s)
            per_pair_stretch[(src, dst)] = s
    stats = reference_stretch_stats(per_pair_stretch, inp.traffic)
    return NetworkDesign(tuple(built), routes, stats, towers, inp.budget)


def assert_design_matches_reference(inp: DesignInput, built) -> set:
    """evaluate_design against reference_evaluate_design: stats, lengths and
    stretches bitwise equal, node sequences by `assert_walk_matches`.
    Returns the pairs whose node sequence changed."""
    got = evaluate_design(HybridEvaluator(inp), built)
    want = reference_evaluate_design(inp, built)
    assert got.stats == want.stats
    assert (got.built_links, got.towers_used) == (want.built_links, want.towers_used)
    assert got.routes.keys() == want.routes.keys()
    ev = HybridEvaluator(inp)
    w = ev.graph_for(got.built_links)
    dist = distance_matrix(w)
    changed = set()
    for pair, ref in want.routes.items():
        route = got.routes[pair]
        assert (route.length_km, route.stretch) == (ref.length_km, ref.stretch)
        assert_walk_matches(w, dist, [ev.index[n] for n in route.nodes],
                            [ev.index[n] for n in ref.nodes])
        if route.nodes != ref.nodes:
            changed.add(pair)
        else:
            assert route.media == ref.media
    return changed


# --- slow reference solver ------------------------------------------------------
# The solver as it was before the budget-aware bound and batched scoring:
# branch-and-bound bounded by every undecided link built for free, and
# greedy and local search scoring one link set at a time.

def reference_branch_and_bound(inp: DesignInput, cands, ev) -> frozenset:
    cands = sorted(set(cands))
    costs = [inp.mw_cost[p] for p in cands]
    best_set = frozenset()
    best_val = ev.objective(best_set)
    tol = designer._REL_TOL

    def consider(subset):
        nonlocal best_set, best_val
        val = ev.objective(subset)
        if val < best_val - tol * max(1.0, abs(best_val)):
            best_val = val
            best_set = subset

    def dfs(i, chosen, cost):
        rest = cands[i:]
        rest_cost = sum(costs[i:])
        relaxed = chosen | frozenset(rest)
        if ev.objective(relaxed) >= best_val - tol * max(1.0, abs(best_val)):
            return
        if cost + rest_cost <= inp.budget:
            consider(relaxed)
            return
        if i == len(cands):
            consider(chosen)
            return
        if cost + costs[i] <= inp.budget:
            dfs(i + 1, chosen | {cands[i]}, cost + costs[i])
        dfs(i + 1, chosen, cost)

    dfs(0, frozenset(), 0.0)
    return best_set


def reference_greedy(inp: DesignInput, ev) -> list:
    pool = eliminate_dominated(ev)
    chosen, chosen_set, cost = [], frozenset(), 0.0
    current = ev.objective(chosen_set)
    while cost < 2.0 * inp.budget:
        best_pair, best_val = None, current
        for pair in pool:
            if pair in chosen_set:
                continue
            val = ev.objective(chosen_set | {pair})
            if val < best_val:
                best_val, best_pair = val, pair
        if best_pair is None:
            break
        chosen.append(best_pair)
        chosen_set = chosen_set | {best_pair}
        cost += inp.mw_cost[best_pair]
        current = best_val
    return chosen


def reference_local_improve(inp: DesignInput, ev, built, pool, max_moves=1000) -> set:
    built = set(built)
    cost = sum(inp.mw_cost[p] for p in built)
    current = ev.objective(frozenset(built))
    for _ in range(max_moves):
        best_move, best_val = None, current
        for added in pool:
            if added in built:
                continue
            if cost + inp.mw_cost[added] <= inp.budget:
                val = ev.objective(frozenset(built) | {added})
                if val < best_val:
                    best_val, best_move = val, (None, added)
        for removed in sorted(built):
            for added in pool:
                if added in built:
                    continue
                if cost - inp.mw_cost[removed] + inp.mw_cost[added] > inp.budget:
                    continue
                val = ev.objective(frozenset(built) - {removed} | {added})
                if val < best_val:
                    best_val, best_move = val, (removed, added)
        if best_move is None:
            break
        removed, added = best_move
        if removed is not None:
            built.remove(removed)
            cost -= inp.mw_cost[removed]
        built.add(added)
        cost += inp.mw_cost[added]
        current = best_val
    return built


def reference_heuristic(inp: DesignInput) -> set:
    """Built set of the reference solve_heuristic."""
    ev = HybridEvaluator(inp)
    pool = eliminate_dominated(ev)
    if len(pool) <= designer.EXACT_CANDIDATE_GUARD:
        return set(reference_branch_and_bound(inp, pool, ev))
    cands = reference_greedy(inp, ev)
    if len(cands) <= designer.EXACT_CANDIDATE_GUARD:
        built = set(reference_branch_and_bound(inp, cands, ev))
    else:
        built, cost = set(), 0.0
        for pair in cands:
            if cost + inp.mw_cost[pair] <= inp.budget:
                built.add(pair)
                cost += inp.mw_cost[pair]
    return reference_local_improve(inp, ev, built, pool)


def greedy(inp: DesignInput) -> list:
    """greedy_candidates over the dominance-free pool, as solve_heuristic
    runs it."""
    ev = HybridEvaluator(inp)
    return greedy_candidates(ev, eliminate_dominated(ev))


class MemoEvaluator(HybridEvaluator):
    """The evaluator with the per-set cache it once kept, for the reference
    solvers: their kernel work is the number of distinct sets they score."""

    def __init__(self, inp: DesignInput) -> None:
        super().__init__(inp)
        self.memo: dict = {}

    def objective(self, built: frozenset) -> float:
        if built not in self.memo:
            self.memo[built] = super().objective(built)
        return self.memo[built]


def kernel_calls(monkeypatch, fn, *args):
    """fn(*args) and the number of matrices of each of its calls to
    designer.distance_matrix (a stack counts each of its matrices)."""
    sizes = []
    kernel = designer.distance_matrix

    def counting(w):
        sizes.append(len(w) if w.ndim == 3 else 1)
        return kernel(w)

    with monkeypatch.context() as m:
        m.setattr(designer, "distance_matrix", counting)
        out = fn(*args)
    return out, sizes


def kernel_rows(monkeypatch, fn, *args):
    """fn(*args) and the number of matrices it passed to
    designer.distance_matrix."""
    out, sizes = kernel_calls(monkeypatch, fn, *args)
    return out, sum(sizes)


# --- instance generator --------------------------------------------------------

def random_instance(seed, n_sites=6, mw_fraction=0.5, budget_fraction=0.45,
                    max_cost=6) -> DesignInput:
    rng = np.random.default_rng(seed)
    sites = [Site(f"s{i}", GeoPoint(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5))),
                  float(rng.uniform(1, 10))) for i in range(n_sites)]
    ids = sorted(s.id for s in sites)
    loc = {s.id: s.location for s in sites}
    d = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            d[(a, b)] = geodesic_km(loc[a], loc[b])
    # Fiber: ring plus random chords, inflated conduit lengths; o is the
    # metric closure of that conduit graph times 1.5.
    conduit = {}
    for i in range(n_sites):
        a, b = ids[i], ids[(i + 1) % n_sites]
        conduit[pair_key(a, b)] = d[pair_key(a, b)] * float(rng.uniform(1.1, 1.6))
    for _ in range(n_sites // 2):
        i, j = rng.choice(n_sites, size=2, replace=False)
        key = pair_key(ids[i], ids[j])
        conduit.setdefault(key, d[key] * float(rng.uniform(1.1, 1.6)))
    o = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            # metric closure by FW over conduits
            pass
    nn = len(ids)
    idx = {s: i for i, s in enumerate(ids)}
    mat = np.full((nn, nn), np.inf)
    np.fill_diagonal(mat, 0.0)
    for (a, b), km in conduit.items():
        mat[idx[a], idx[b]] = mat[idx[b], idx[a]] = km
    for k in range(nn):
        mat = np.minimum(mat, mat[:, k:k + 1] + mat[k:k + 1, :])
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            o[(a, b)] = mat[idx[a], idx[b]] * 1.5
    m = {}
    c = {}
    for key in sorted(d):
        if rng.random() < mw_fraction:
            m[key] = d[key] * float(rng.uniform(1.0, 1.25))
            c[key] = float(rng.integers(1, max_cost + 1))
    total_cost = sum(c.values())
    traffic = gravity_matrix(sites)
    return DesignInput(sites=sites, traffic=traffic, geodesic=d, mw_km=m, mw_cost=c,
                       fiber_km_eq=o, budget=math.floor(budget_fraction * total_cost))


# --- tests ---------------------------------------------------------------------

def test_objective_hand_summed_three_sites():
    sites = [Site("a", GeoPoint(0, 0), 1.0), Site("b", GeoPoint(0, 1), 1.0),
             Site("c", GeoPoint(1, 0), 1.0)]
    d = {("a", "b"): 100.0, ("a", "c"): 120.0, ("b", "c"): 150.0}
    o = {("a", "b"): 180.0, ("a", "c"): 210.0, ("b", "c"): 240.0}
    m = {("a", "b"): 105.0}
    c = {("a", "b"): 2.0}
    h = TrafficMatrix({("a", "b"): 0.5, ("a", "c"): 0.3, ("b", "c"): 0.2})
    inp = DesignInput(sites, h, d, m, c, o, budget=10.0)
    design = evaluate_design(HybridEvaluator(inp), [("a", "b")])
    # Routes: a-b direct MW 105; a-c fiber 210; b-c fiber 240.
    expected = 0.5 / 100 * 105 + 0.3 / 120 * 210 + 0.2 / 150 * 240
    assert designer.objective(inp, design) == pytest.approx(expected, rel=1e-12)


def test_objective_all_mw_geodesic_sums_to_one():
    inp = random_instance(2, n_sites=5, mw_fraction=1.0)
    inp.mw_km = {k: inp.geodesic[k] for k in inp.mw_km}
    inp.budget = sum(inp.mw_cost.values())
    design = evaluate_design(HybridEvaluator(inp), sorted(inp.mw_km))
    assert designer.objective(inp, design) == pytest.approx(1.0, rel=1e-12)


def test_objective_fiber_only_at_exact_slowdown():
    sites = [Site("a", GeoPoint(0, 0), 1.0), Site("b", GeoPoint(0, 1), 1.0)]
    d = {("a", "b"): geodesic_km(sites[0].location, sites[1].location)}
    o = {("a", "b"): 1.5 * d[("a", "b")]}
    inp = DesignInput(sites, TrafficMatrix({("a", "b"): 1.0}), d, {}, {}, o, budget=0.0)
    design = evaluate_design(HybridEvaluator(inp), [])
    assert designer.objective(inp, design) == pytest.approx(1.5, rel=1e-12)


def test_objective_equals_weighted_mean_stretch_identity():
    for seed in range(6):
        inp = random_instance(seed)
        design = solve_heuristic(inp)
        assert designer.objective(inp, design) == pytest.approx(design.stats.mean, rel=1e-9)


def test_objective_raises_on_unrouted_pair():
    sites = [Site("a", GeoPoint(0, 0), 1.0), Site("b", GeoPoint(0, 1), 1.0)]
    d = {("a", "b"): 111.0}
    inp = DesignInput(sites, TrafficMatrix({("a", "b"): 1.0}), d, {}, {}, {}, budget=0.0)
    with pytest.raises(designer.InfeasibleDesignError, match=r"pair \(a, b\) cannot be routed"):
        evaluate_design(HybridEvaluator(inp), [])


def test_input_validation():
    sites = [Site("a", GeoPoint(0, 0), 1.0), Site("b", GeoPoint(0, 1), 1.0)]
    d = {("a", "b"): 100.0}
    with pytest.raises(ValueError):  # m below geodesic
        DesignInput(sites, TrafficMatrix({("a", "b"): 1.0}), d,
                    {("a", "b"): 90.0}, {("a", "b"): 1.0}, {("a", "b"): 150.0}, 1.0)
    with pytest.raises(ValueError):  # o below 1.5 d
        DesignInput(sites, TrafficMatrix({("a", "b"): 1.0}), d,
                    {}, {}, {("a", "b"): 120.0}, 1.0)
    with pytest.raises(ValueError):  # cost below one tower
        DesignInput(sites, TrafficMatrix({("a", "b"): 1.0}), d,
                    {("a", "b"): 100.0}, {("a", "b"): 0.5}, {("a", "b"): 150.0}, 1.0)
    with pytest.raises(ValueError):  # negative budget
        DesignInput(sites, TrafficMatrix({("a", "b"): 1.0}), d, {}, {},
                    {("a", "b"): 150.0}, -1.0)


@pytest.mark.parametrize("field", ["geodesic", "mw_km", "mw_cost", "fiber_km_eq"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_input_rejects_non_finite_entries(field, value):
    # Each used to solve, to solve to another mean or to fail later in
    # routing, as nan passes every bound check.
    inp = random_instance(0, n_sites=6)
    matrix = dict(getattr(inp, field))
    a, b = pair = sorted(inp.mw_km)[1]
    matrix[pair] = value
    with pytest.raises(ValueError, match=rf"^{field} for \({a}, {b}\) must be finite, got {value}$"):
        dataclasses.replace(inp, **{field: matrix})


def test_eliminate_dominated_simple_cases():
    inp = random_instance(4, n_sites=5, mw_fraction=1.0)
    # Make one MW link twice its own fiber path: dominated.
    fiber = fw_pair_lengths(inp, [])
    victim = sorted(inp.mw_km)[0]
    inp.mw_km[victim] = 2.0 * fiber[victim]
    keep = eliminate_dominated(HybridEvaluator(inp))
    assert victim not in keep
    # All links strictly under their fiber alternative survive.
    for pair in inp.mw_km:
        if inp.mw_km[pair] < fiber[pair]:
            assert pair in keep


def test_eliminate_dominated_preserves_exact_optimum():
    for seed in range(8):
        inp = random_instance(seed, n_sites=6, mw_fraction=0.5)
        full_val, _ = exhaustive_optimum(inp)
        reduced_val, _ = exhaustive_optimum(inp, pool=eliminate_dominated(HybridEvaluator(inp)))
        assert reduced_val == pytest.approx(full_val, rel=1e-12)


def test_greedy_budget_zero_empty():
    inp = random_instance(1)
    inp.budget = 0.0
    assert greedy(inp) == []


def test_greedy_two_sites_single_link():
    sites = [Site("a", GeoPoint(0, 0), 1.0), Site("b", GeoPoint(0, 1), 1.0)]
    d = {("a", "b"): geodesic_km(sites[0].location, sites[1].location)}
    o = {("a", "b"): 1.6 * d[("a", "b")]}
    m = {("a", "b"): 1.01 * d[("a", "b")]}
    inp = DesignInput(sites, TrafficMatrix({("a", "b"): 1.0}), d, m,
                      {("a", "b"): 3.0}, o, budget=2.0)
    assert greedy(inp) == [("a", "b")]  # fits within 2x budget
    # The terminating addition may overshoot the inflated budget; the exact
    # solver still rejects it under the real one.
    inp2 = DesignInput(sites, TrafficMatrix({("a", "b"): 1.0}), d, m,
                       {("a", "b"): 3.0}, o, budget=1.0)
    assert greedy(inp2) == [("a", "b")]
    assert solve_heuristic(inp2).built_links == ()


def test_greedy_candidates_contain_exhaustive_optimum():
    # Instance-specific property (greedy carries no guarantee): on these
    # instances the 2x-budget greedy pass keeps every optimal link.
    for seed in (0, 2, 3, 4):
        inp = random_instance(seed, n_sites=8, mw_fraction=0.35, budget_fraction=0.4)
        _, best_set = exhaustive_optimum(inp)
        cands = set(greedy(inp))
        assert best_set <= cands, f"seed {seed}: {best_set - cands} missing"


def test_greedy_miss_recovered_by_local_improvement():
    # Seed 1 is a counterexample where greedy's inflated-budget cutoff
    # drops a cheap optimal link; the full pipeline still lands on the
    # exhaustive optimum.
    inp = random_instance(1, n_sites=8, mw_fraction=0.35, budget_fraction=0.4)
    best_val, best_set = exhaustive_optimum(inp)
    assert not best_set <= set(greedy(inp))
    assert solve_heuristic(inp).stats.mean == pytest.approx(best_val, rel=1e-9)


def test_greedy_nested_budgets_give_nested_candidates():
    base = random_instance(9, n_sites=7, mw_fraction=0.6)
    prev: list = []
    for budget in np.linspace(0, sum(base.mw_cost.values()), 6):
        inp = random_instance(9, n_sites=7, mw_fraction=0.6)
        inp.budget = float(budget)
        cands = greedy(inp)
        assert cands[:len(prev)] == prev
        prev = cands


def test_solve_exact_zero_candidates_is_fiber_only():
    inp = random_instance(5)
    design = solve_exact(HybridEvaluator(inp), [])
    assert design.built_links == ()
    assert design.stats.mean == pytest.approx(fw_objective(inp, []), rel=1e-12)


def test_solve_exact_two_candidates_budget_for_one():
    inp = random_instance(12, n_sites=5, mw_fraction=0.9)
    cands = eliminate_dominated(HybridEvaluator(inp))[:2]
    assert len(cands) == 2
    inp.budget = max(inp.mw_cost[c] for c in cands)
    design = solve_exact(HybridEvaluator(inp), cands)
    best_val, best_set = exhaustive_optimum(inp, pool=cands)
    assert design.stats.mean == pytest.approx(best_val, rel=1e-9)


def test_solve_exact_matches_bruteforce_enumeration():
    for seed in range(6):
        inp = random_instance(seed, n_sites=6, mw_fraction=0.5)
        cands = eliminate_dominated(HybridEvaluator(inp))
        design = solve_exact(HybridEvaluator(inp), cands)
        best_val, _ = exhaustive_optimum(inp, pool=cands)
        assert design.stats.mean == pytest.approx(best_val, rel=1e-9)
        assert design.towers_used <= inp.budget


def test_solve_exact_guard():
    inp = random_instance(0, n_sites=8, mw_fraction=1.0)
    fake = [pair_key(f"s{i}", f"s{j}") for i in range(8) for j in range(i + 1, 8)]
    with pytest.raises(ExactGuardExceeded):
        solve_exact(HybridEvaluator(inp), fake[:26])


def test_objectives_batch_bitwise_equals_single_calls(monkeypatch):
    # s0 has no fiber, so a set without one of its MW links is unroutable.
    for seed in range(6):
        base = random_instance(seed, n_sites=7, mw_fraction=0.7)
        inp = dataclasses.replace(base, fiber_km_eq={
            p: o for p, o in base.fiber_km_eq.items() if "s0" not in p})
        links = sorted(inp.mw_km)
        rng = np.random.default_rng(seed)
        sets = [frozenset(p for p in links if rng.random() < 0.4) for _ in range(25)]
        sets += [frozenset(), sets[3], frozenset(links), sets[3]]
        single = [HybridEvaluator(inp).objective(s).hex() for s in sets]
        assert "inf" in single and any(v != "inf" for v in single)
        # A small batch cap splits the stack over several kernel calls.
        monkeypatch.setattr(designer, "_BATCH_ELEMENTS", 3 * len(inp.site_ids) ** 2)
        ev = HybridEvaluator(inp)
        stack = np.array([ev.graph_for(s) for s in sets])
        state = pickle.dumps(vars(ev))
        vals, sizes = kernel_calls(monkeypatch, ev.score, stack)
        assert [v.hex() for v in vals] == single
        assert sum(sizes) == len(sets) and max(sizes) == 3
        assert [v.hex() for v in ev.score(stack[::-1])] == single[::-1]
        assert pickle.dumps(vars(ev)) == state


def reference_objectives(ev: HybridEvaluator, d: np.ndarray) -> list[float]:
    """One `coef @ row` per set of the distance stack d, as the evaluator
    scored before its single vecdot: the oracle of `_objectives`."""
    out = []
    for v in d.reshape(len(d), -1).take(ev._demand_at, axis=1):
        total = float(ev._coef @ v)
        out.append(total if math.isfinite(total) else math.inf)
    return out


def test_objectives_vecdot_bitwise_equals_per_set_dot():
    # Solved stacks of 1-200 sets where s0 has no fiber, so some sets are
    # unroutable; then 40 sites (780 pairs), distances spread over nine
    # decades with some inf, so the summation order shows in the bits.
    base = random_instance(4, n_sites=7, mw_fraction=0.7)
    inp = dataclasses.replace(base, fiber_km_eq={
        p: o for p, o in base.fiber_km_eq.items() if "s0" not in p})
    ev, links = HybridEvaluator(inp), sorted(inp.mw_km)
    big = HybridEvaluator(random_instance(5, n_sites=40))
    rng = np.random.default_rng(6)
    seen = set()
    for m in (1, 2, 3, 17, 100, 200):
        d = distance_matrix(np.array([ev.graph_for(p for p in links if rng.random() < 0.4)
                                      for _ in range(m)]))
        got = ev._objectives(d)
        assert [v.hex() for v in got] == [v.hex() for v in reference_objectives(ev, d)]
        seen.update(math.isinf(v) for v in got)
        d = 10.0 ** rng.uniform(-3.0, 6.0, (m, 40, 40))
        d[rng.random(d.shape) < 0.5 / 780] = math.inf
        got = big._objectives(d)
        assert [v.hex() for v in got] == [v.hex() for v in reference_objectives(big, d)]
        seen.update(math.isinf(v) for v in got)
    assert seen == {True, False}


@pytest.mark.parametrize("fraction", [0.1, 0.25, 0.45, 0.7])
def test_branch_and_bound_matches_reference(fraction, monkeypatch):
    for seed in range(30):
        inp = random_instance(seed, n_sites=6 + seed % 2, mw_fraction=0.6,
                              budget_fraction=fraction)
        pool = eliminate_dominated(HybridEvaluator(inp))
        ref_ev = MemoEvaluator(inp)
        best, rows = kernel_rows(monkeypatch, designer._branch_and_bound,
                                 HybridEvaluator(inp), pool)
        assert solve_exact(HybridEvaluator(inp), pool).built_links == tuple(sorted(best))
        assert best == reference_branch_and_bound(inp, pool, ref_ev)
        assert rows <= len(ref_ev.memo)


@pytest.mark.parametrize("fraction", [0.08, 0.2, 0.45])
def test_greedy_and_local_search_match_reference(fraction):
    # Pools of 25-36 links: all but one exceed the exact guard; at 0.45
    # greedy returns more than the guard and its order is trimmed.
    for seed in range(30):
        inp = random_instance(seed, n_sites=10, mw_fraction=0.75, budget_fraction=fraction)
        pool = eliminate_dominated(HybridEvaluator(inp))
        ev, ref_ev = HybridEvaluator(inp), MemoEvaluator(inp)
        assert greedy(inp) == reference_greedy(inp, ref_ev)
        assert (designer._local_improve(ev, set(), pool, max_moves=4)
                == reference_local_improve(inp, ref_ev, set(), pool, max_moves=4))
        if fraction < 0.3 or seed < 10:  # local search over a large built set is slow
            assert set(solve_heuristic(inp).built_links) == reference_heuristic(inp)


def test_solve_exact_no_affordable_candidate_evaluates_once(monkeypatch):
    inp = random_instance(3, n_sites=6, mw_fraction=0.8)
    pool = eliminate_dominated(HybridEvaluator(inp))
    inp.budget = min(inp.mw_cost[p] for p in pool) - 0.5
    assert solve_exact(HybridEvaluator(inp), pool).built_links == ()
    best, rows = kernel_rows(monkeypatch, designer._branch_and_bound,
                             HybridEvaluator(inp), pool)
    assert (best, rows) == (frozenset(), 1)


def test_solve_exact_returns_at_root_when_affordable_links_fit(monkeypatch):
    # The dearest link cannot fit; all the others fit together, so the
    # root's bound set is feasible. The looser reference bound branches.
    inp = random_instance(3, n_sites=6, mw_fraction=0.8)
    pool = eliminate_dominated(HybridEvaluator(inp))
    dear = pool[0]
    others = pool[1:]
    inp.budget = sum(inp.mw_cost[p] for p in others)
    inp.mw_cost[dear] = inp.budget + 1.0
    ref_ev = MemoEvaluator(inp)
    assert solve_exact(HybridEvaluator(inp), pool).built_links == tuple(others)
    best, rows = kernel_rows(monkeypatch, designer._branch_and_bound,
                             HybridEvaluator(inp), pool)
    assert (best, rows) == (frozenset(others), 2)
    assert set(others) == reference_branch_and_bound(inp, pool, ref_ev)
    assert len(ref_ev.memo) > 2


def test_solve_exact_fractional_budget_uses_include_test():
    # 1.1 + 1.2 == 2.3 in floats but 2.3 - 1.1 < 1.2: a fit test written
    # as c <= budget - cost would drop y once x is taken and miss {x, y}.
    inp = random_instance(12, n_sites=5, mw_fraction=0.9)
    x, z, y = eliminate_dominated(HybridEvaluator(inp))[:3]
    inp.mw_cost.update({x: 1.1, z: 2.0, y: 1.2})  # z fits only alone
    inp.budget = 2.3
    assert 1.1 + 1.2 <= 2.3 < 1.1 + 2.0 and not 1.2 <= 2.3 - 1.1
    best_val, best_set = exhaustive_optimum(inp, pool=[x, z, y])
    assert best_set == {x, y}
    design = solve_exact(HybridEvaluator(inp), [x, z, y])
    assert design.built_links == (x, y)
    assert design.stats.mean == pytest.approx(best_val, rel=1e-12)


def test_solve_heuristic_matches_exhaustive_small():
    for seed in range(6):
        inp = random_instance(seed, n_sites=8, mw_fraction=0.35)
        design = solve_heuristic(inp)
        best_val, _ = exhaustive_optimum(inp)
        assert design.stats.mean <= best_val + 0.01
        assert design.towers_used <= inp.budget


# Kernel rows of solve_heuristic on random_instance(seed, n_sites=9), seeds
# 0-5, counted by kernel_rows while HybridEvaluator still cached every set
# it scored: its cache misses plus one matrix each for dominance elimination
# and evaluate_design. All six take the exact path (pools of 16-22 links).
CACHED_SOLVER_ROWS = [408, 4873, 304, 722, 3634, 2053]


def test_solve_heuristic_kernel_rows_within_cached_solver(monkeypatch):
    for seed, cached in enumerate(CACHED_SOLVER_ROWS):
        _, rows = kernel_rows(monkeypatch, solve_heuristic, random_instance(seed, n_sites=9))
        assert rows <= 1.05 * cached, f"seed {seed}: {rows} rows"


# Dominance elimination, branch-and-bound's empty incumbent and greedy's
# first round each solved the fiber-only matrix: two matrices per exact
# solve and three per greedy one. They now read the evaluator's one
# `fiber_dist`.
@pytest.mark.parametrize("case, exact", [
    (dict(n_sites=9), {True}),
    (dict(n_sites=9, mw_fraction=0.8, budget_fraction=0.04), {True, False}),
    (dict(n_sites=9, mw_fraction=0.8, budget_fraction=0.08), {True, False})])
def test_solve_heuristic_solves_the_fiber_matrix_once(monkeypatch, case, exact):
    paths = set()
    for seed in range(6):
        inp = random_instance(seed, **case)
        ev = HybridEvaluator(inp)
        paths.add(len(eliminate_dominated(ev)) <= designer.EXACT_CANDIDATE_GUARD)
        solved = []
        kernel = designer.distance_matrix

        def counting(w):
            solved.extend(np.array_equal(m, ev.fiber) for m in (w if w.ndim == 3 else w[None]))
            return kernel(w)

        with monkeypatch.context() as m:
            m.setattr(designer, "distance_matrix", counting)
            design = solve_heuristic(inp)
        assert sum(solved) == 1, f"seed {seed}"
        assert set(design.built_links) == reference_heuristic(inp)
        want = reference_evaluate_design(inp, design.built_links).stats
        assert design.stats == want and design.stats.mean.hex() == want.mean.hex()
        assert ev.objective(()).hex() == ev.score(ev.fiber[None])[0].hex()
    assert paths == exact


# Branch-and-bound kernel work on random_instance(seed, n_sites=9), seeds
# 0-5. The rows are those of scoring both children's bounds at their parent,
# one call per node, which takes 278 / 3,245 / 181 / 443 / 2,293 / 1,321
# calls; deferring exclude bounds to the next call keeps every row.
BNB_ROWS = [406, 4871, 302, 720, 3632, 2051]
BNB_MAX_CALLS = [130, 1628, 123, 279, 1341, 732]


def test_branch_and_bound_defers_exclude_bounds_without_extra_rows(monkeypatch):
    for seed, (want_rows, max_calls) in enumerate(zip(BNB_ROWS, BNB_MAX_CALLS)):
        inp = random_instance(seed, n_sites=9)
        pool = eliminate_dominated(HybridEvaluator(inp))
        best, sizes = kernel_calls(monkeypatch, designer._branch_and_bound,
                                   HybridEvaluator(inp), pool)
        assert best == reference_branch_and_bound(inp, pool, MemoEvaluator(inp))
        assert sum(sizes) == want_rows, f"seed {seed}"
        assert len(sizes) <= max_calls, f"seed {seed}: {len(sizes)} calls"


def test_searches_split_kernel_calls_at_the_batch_cap(monkeypatch):
    # A cap of three matrices, read at call time: the waiting exclude
    # bounds and the move stacks are split at it, with the same answers.
    for seed in range(4):
        inp = random_instance(seed, n_sites=9)
        pool = eliminate_dominated(HybridEvaluator(inp))
        unsplit = max(kernel_calls(monkeypatch, designer._branch_and_bound,
                                   HybridEvaluator(inp), pool)[1])
        monkeypatch.setattr(designer, "_BATCH_ELEMENTS", 3 * len(inp.site_ids) ** 2)
        best, sizes = kernel_calls(monkeypatch, designer._branch_and_bound,
                                   HybridEvaluator(inp), pool)
        monkeypatch.undo()
        assert unsplit > 3 and max(sizes) == 3
        assert sum(sizes) == BNB_ROWS[seed]
        assert best == reference_branch_and_bound(inp, pool, MemoEvaluator(inp))
    for seed in range(4):
        inp = random_instance(seed, n_sites=10, mw_fraction=0.75, budget_fraction=0.08)
        pool = eliminate_dominated(HybridEvaluator(inp))
        ref_ev = MemoEvaluator(inp)
        monkeypatch.setattr(designer, "_BATCH_ELEMENTS", 3 * len(inp.site_ids) ** 2)
        ev = HybridEvaluator(inp)
        cands, sizes = kernel_calls(monkeypatch, greedy, inp)
        assert max(sizes) == 3
        assert cands == reference_greedy(inp, ref_ev)
        built, sizes = kernel_calls(monkeypatch, designer._local_improve, ev,
                                    set(cands[:2]), pool, 3)
        assert max(sizes) == 3
        assert built == reference_local_improve(inp, ref_ev, set(cands[:2]), pool, 3)
        monkeypatch.undo()


class MoveLog(HybridEvaluator):
    """The evaluator, recording each move stack it scores as (added link
    indices, removed link indices, values)."""

    def __init__(self, inp: DesignInput) -> None:
        super().__init__(inp)
        self.log: list = []

    def move_objectives(self, base, added, removed=None):
        vals = super().move_objectives(base, added, removed)
        self.log.append((added.tolist(), removed.tolist(), vals))
        return vals


def test_local_improve_moves_in_reference_order():
    # Only exact ties read the order, so compare the move lists themselves:
    # adds in pool order, then swaps by removed pair ascending and added
    # pair in pool order, never removing the link the last move added.
    moved = 0
    for seed in range(6):
        inp = random_instance(seed, n_sites=10, mw_fraction=0.75, budget_fraction=0.2)
        ev = MoveLog(inp)
        pool = eliminate_dominated(ev)[::-1]  # pool order is not pair order
        start = set(greedy(inp)[:2])
        got = designer._local_improve(ev, start, pool, max_moves=3)
        built, last, current = set(start), None, ev.objective(start)
        for added, removed, vals in ev.log:
            cost = sum(inp.mw_cost[p] for p in built)
            unbuilt = [p for p in pool if p not in built]
            moves = [(a, a) for a in unbuilt if cost + inp.mw_cost[a] <= inp.budget]
            moves += [(r, a) for r in sorted(built - {last}) for a in unbuilt
                      if cost - inp.mw_cost[r] + inp.mw_cost[a] <= inp.budget]
            assert [(ev.links[r], ev.links[a]) for a, r in zip(added, removed)] == moves
            if not vals or min(vals) >= current:
                break
            (r, last), current = moves[vals.index(min(vals))], min(vals)
            built = built - {r} | {last}
            moved += 1
        assert got == built
    assert moved >= 6


def test_move_stacks_match_graph_for():
    base_inp = random_instance(4, n_sites=7, mw_fraction=0.8)
    links = sorted(base_inp.mw_km)
    tie, longer = links[1], links[4]
    # Two available MW links that are not shorter than their fiber entry.
    inp = dataclasses.replace(base_inp, mw_km={
        **base_inp.mw_km, tie: base_inp.fiber_km_eq[tie],
        longer: 1.1 * base_inp.fiber_km_eq[longer]})
    ev = HybridEvaluator(inp)
    assert ev.graph_for([tie, longer]).tobytes() == ev.fiber.tobytes()
    for built in (frozenset(links[::2]), frozenset(links[1::2])):
        # The matrix as graph_for once built it, one link at a time.
        want = ev.fiber.copy()
        for a, b in built:
            i, j = ev.index[a], ev.index[b]
            if inp.mw_km[(a, b)] < want[i, j]:
                want[i, j] = want[j, i] = inp.mw_km[(a, b)]
        base = ev.graph_for(built)
        assert base.tobytes() == want.tobytes()
        unbuilt = [p for p in links if p not in built]
        assert {tie, longer} & set(unbuilt) and {tie, longer} & built
        adds = ev.move_stack(base, np.array([ev.link[p] for p in unbuilt]))
        assert len(adds) == len(unbuilt)
        for added, w in zip(unbuilt, adds):
            assert w.tobytes() == ev.graph_for(built | {added}).tobytes()
        swaps = [(removed, added) for removed in sorted(built) for added in unbuilt]
        stack = ev.move_stack(base, np.array([ev.link[a] for _, a in swaps]),
                              np.array([ev.link[r] for r, _ in swaps]))
        assert len(stack) == len(swaps)
        for (removed, added), w in zip(swaps, stack):
            assert w.tobytes() == ev.graph_for(built - {removed} | {added}).tobytes()
        assert base.tobytes() == want.tobytes()  # the stacks are copies


def test_solve_heuristic_budget_zero_is_fiber_only():
    inp = random_instance(7)
    inp.budget = 0.0
    design = solve_heuristic(inp)
    assert design.built_links == ()
    assert design.stats.mean == pytest.approx(fw_objective(inp, []), rel=1e-12)


def test_solve_heuristic_unconstrained_budget_builds_all_useful():
    inp = random_instance(3, n_sites=6, mw_fraction=0.8)
    inp.budget = sum(inp.mw_cost.values())
    design = solve_heuristic(inp)
    lengths = fw_pair_lengths(inp, design.built_links)
    fiber = fw_pair_lengths(inp, [])
    for pair, _ in inp.traffic.items():
        best = min(fiber.get(pair, math.inf),
                   inp.mw_km.get(pair, math.inf))
        assert lengths[pair] <= best + 1e-9


def test_heuristic_monotone_over_budget_ladder():
    base_cost = sum(random_instance(15, n_sites=7, mw_fraction=0.7).mw_cost.values())
    means = []
    for frac in np.linspace(0.0, 1.0, 8):
        inp = random_instance(15, n_sites=7, mw_fraction=0.7)
        inp.budget = math.floor(frac * base_cost)
        means.append(solve_heuristic(inp).stats.mean)
    for earlier, later in zip(means, means[1:]):
        assert later <= earlier + 1e-9


def test_evaluate_design_matches_dijkstra_oracle():
    for seed in range(4):
        inp = random_instance(seed, n_sites=10, mw_fraction=0.4, budget_fraction=0.5)
        design = solve_heuristic(inp)
        for src in inp.site_ids:
            dist = dijkstra_oracle(inp, design.built_links, src)
            for (a, b), route in design.routes.items():
                if a == src:
                    assert route.length_km == pytest.approx(dist[b], rel=1e-12)


def affordable_links(inp: DesignInput, seed) -> list:
    """A seeded random set of MW links within the budget."""
    pool = sorted(inp.mw_km)
    built, cost = [], 0.0
    for k in np.random.default_rng(seed).permutation(len(pool)):
        if cost + inp.mw_cost[pool[k]] <= inp.budget:
            built.append(pool[k])
            cost += inp.mw_cost[pool[k]]
    return built


def test_evaluate_design_matches_dijkstra_reference():
    # 24 seeded instances of 6-20 sites, fiber only and with links built.
    # Fiber lengths are a metric closure, so direct fiber edges tie
    # multi-hop fiber paths and the tie branch is exercised.
    routes = changed = 0
    for seed in range(24):
        inp = random_instance(seed, n_sites=6 + seed % 15)
        for built in ([], affordable_links(inp, seed)):
            changed += len(assert_design_matches_reference(inp, built))
            routes += len(inp.site_ids) * (len(inp.site_ids) - 1) // 2
    assert 0 < changed < routes // 10


def test_evaluate_design_budget_enforced():
    inp = random_instance(6, n_sites=5, mw_fraction=0.9)
    inp.budget = 0.0
    with pytest.raises(ValueError):
        evaluate_design(HybridEvaluator(inp), sorted(inp.mw_km)[:1])


def test_evaluate_design_media_annotation():
    inp = random_instance(8, n_sites=6, mw_fraction=0.6)
    design = solve_heuristic(inp)
    built = set(design.built_links)
    for route in design.routes.values():
        for (u, v), medium in zip(route.edges, route.media):
            key = pair_key(u, v)
            if medium == "mw":
                assert key in built
            else:
                assert key in inp.fiber_km_eq


def test_routes_are_unsplittable_single_paths():
    inp = random_instance(10, n_sites=6)
    design = solve_heuristic(inp)
    ids = inp.site_ids
    assert len(design.routes) == len(ids) * (len(ids) - 1) // 2
    for (a, b), route in design.routes.items():
        assert route.nodes[0] == a and route.nodes[-1] == b
        assert len(set(route.nodes)) == len(route.nodes)


# --- deriving MW links from a hop graph -----------------------------------------

def corridor_fixture():
    km_per_deg = math.pi * 6371.0 / 180.0
    terr = TerrainGrid(np.zeros((60, 60)), -1.0, -1.0, 0.25)
    towers = []
    spacing = 30.0 / km_per_deg
    for i in range(1, 12):
        towers.append(Tower(f"t{i:02d}", GeoPoint(0.0, -0.9 + i * spacing), 80.0, 0.0))
    hg = los.build_hop_graph(towers, terr, LosParams(max_range_km=40.0, sample_step_m=500.0))
    a = Site("aa", GeoPoint(0.0, -0.9), 10.0)
    b = Site("bb", GeoPoint(0.0, -0.9 + 12 * spacing), 20.0)
    return a, b, hg


def test_site_links_over_corridor():
    a, b, hg = corridor_fixture()
    links = designer.site_links([a, b], hg, radius_km=35.0)
    key = pair_key(a.id, b.id)
    assert key in links
    link = links[key]
    assert link.path[0] == a.id and link.path[-1] == b.id
    assert link.tower_count == len(link.path) - 2
    assert link.length_km >= geodesic_km(a.location, b.location) - 1e-9


# The per-pair site links as they were before one search per site: a copy of
# the tower graph for every site pair with just those two sites attached.
# Kept as the oracle for `site_links` and, through `reference_pair_graph`,
# for `capacity.augment`.

def reference_pair_graph(hop_graph, a, b, radius_km):
    """Tower graph with the two sites attached to all towers within radius_km."""
    g = hop_dict_graph(hop_graph)
    for site in (a, b):
        g.add_node(site.id)
        for tid, tower in hop_graph.towers.items():
            d = geodesic_km(site.location, tower.location)
            if d <= radius_km and d > 0:
                g.add_edge(site.id, tid, d)
    return g


def reference_site_links(sites, hop_graph, radius_km=15.0):
    out = {}
    ordered = sorted(sites, key=lambda s: s.id)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            g = reference_pair_graph(hop_graph, a, b, radius_km)
            paths = shortest_paths_from(g, a.id)
            p = paths.get(b.id)
            if p is None or len(p.nodes) < 3:
                continue
            towers = len(p.nodes) - 2
            out[pair_key(a.id, b.id)] = designer.SiteLink(p.total_weight, towers, p.nodes)
    return out


def random_tower_instance(seed, n_towers=40, n_sites=5):
    """Sites and a LOS hop graph over a random inventory on rough terrain;
    the first site stands exactly on a tower (distance 0, not attached)."""
    rng = np.random.default_rng(seed)
    terr = TerrainGrid(rng.uniform(0.0, 40.0, (30, 30)), -0.5, -0.5, 0.1)
    towers = [Tower(f"t{i:03d}", GeoPoint(float(rng.uniform(0.0, 1.5)),
                                          float(rng.uniform(0.0, 1.5))),
                    float(rng.uniform(60.0, 150.0)), 0.0) for i in range(n_towers)]
    hg = los.build_hop_graph(towers, terr, LosParams(max_range_km=45.0, sample_step_m=1000.0))
    sites = [Site("s0", towers[0].location, 5.0)]
    sites += [Site(f"s{i}", GeoPoint(float(rng.uniform(0.0, 1.5)), float(rng.uniform(0.0, 1.5))),
                   float(rng.uniform(1.0, 10.0))) for i in range(1, n_sites)]
    return sites, hg, 25.0


@pytest.mark.parametrize("seed", range(6))
def test_site_links_match_per_pair_reference(seed):
    sites, hg, radius = random_tower_instance(seed)
    got = designer.site_links(sites, hg, radius)
    assert got == reference_site_links(sites, hg, radius)
    assert got
    # s0 stands on t000 (distance 0), so t000 is never its stub.
    for (a, b), link in got.items():
        if a == "s0":
            assert link.path[1] != "t000"


def lattice_hop_graph(n=6, step_deg=0.125):
    """An n x n tower lattice on the equator with every hop 10 km long, so
    many routes tie on km and the node-sequence rule decides. The step is
    a power of two, so cell-centre sites see mirrored towers at equal km."""
    towers = [Tower(f"t{i}{j}", GeoPoint(i * step_deg, j * step_deg), 50.0)
              for i in range(n) for j in range(n)]
    hops = [(f"t{i}{j}", f"t{i + di}{j + dj}", 10.0)
            for i in range(n) for j in range(n) for di, dj in ((0, 1), (1, 0))
            if i + di < n and j + dj < n]
    return hop_graph_of(towers, hops)


def test_site_links_match_reference_on_tied_lattice():
    hg = lattice_hop_graph()
    # Cell-centre sites attach to their cell's four corners. a and c share a
    # meridian, so their mirrored routes tie on km to the last bit and only
    # the node sequence picks one; "zz" is beyond every tower's radius.
    def cell(i, j):
        return GeoPoint((i + 0.5) * 0.125, (j + 0.5) * 0.125)

    sites = [Site("a", cell(0, 2), 1.0), Site("b", cell(2, 4), 1.0),
             Site("c", cell(4, 2), 1.0), Site("d", cell(3, 0), 1.0),
             Site("zz", GeoPoint(3.0, 3.0), 1.0)]
    got = designer.site_links(sites, hg, radius_km=12.0)
    assert got == reference_site_links(sites, hg, radius_km=12.0)
    assert len(got) == 6 and not any("zz" in pair for pair in got)
    assert got[("a", "c")].path == ("a", "t12", "t22", "t32", "t42", "c")


def test_site_links_other_sites_never_relay():
    # Two tower chains with a 60 km gap no hop spans (range 40 km); only the
    # middle site's stubs reach across. It has the smallest id, so it is
    # searched first and would relay for later searches if left attached.
    terr = TerrainGrid(np.zeros((40, 40)), -1.5, -1.5, 0.25)
    spacing = 30.0 / (math.pi * 6371.0 / 180.0)
    towers = [Tower(f"w{i}", GeoPoint(0.0, -1.0 + i * spacing), 80.0) for i in range(3)]
    towers += [Tower(f"e{i}", GeoPoint(0.0, -1.0 + (i + 4) * spacing), 80.0) for i in range(3)]
    hg = los.build_hop_graph(towers, terr, LosParams(max_range_km=40.0, sample_step_m=500.0))
    west = Site("west", GeoPoint(0.0, -1.0 - 0.5 * spacing), 1.0)
    mid = Site("mid", GeoPoint(0.0, -1.0 + 3 * spacing), 1.0)
    east = Site("zeast", GeoPoint(0.0, -1.0 + 6.5 * spacing), 1.0)
    got = designer.site_links([west, mid, east], hg, radius_km=35.0)
    assert got == reference_site_links([west, mid, east], hg, radius_km=35.0)
    assert set(got) == {("mid", "west"), ("mid", "zeast")}


def relisted_hops(tmp_path, hg, rows):
    """`hg` saved to a hops.csv, then `rows` (tower_a, tower_b, km) appended
    and the file loaded back."""
    path = tmp_path / "hops.csv"
    los.save_hops_csv(hg, str(path))
    with open(path, "a") as fh:
        fh.writelines(f"{a},{b},{km:.6f}\n" for a, b, km in rows)
    return los.load_hops_csv(str(path), list(hg.towers.values()))


def test_site_links_repeated_hop_keeps_last_length(tmp_path):
    # A hop of some site link's tower path listed again, reversed and three
    # times longer: the search graph keeps the later length, as a dict of
    # weights does, so that link gets longer or takes another route.
    sites, hg, radius = random_tower_instance(0)
    base = designer.site_links(sites, hg, radius)
    pair, link = next((p, v) for p, v in base.items() if v.tower_count >= 2)
    hop = {frozenset((a, b)): (a, b, km) for a, b, km in hop_rows(hg)}[frozenset(link.path[1:3])]
    relisted = relisted_hops(tmp_path, hg, [(hop[1], hop[0], 3.0 * hop[2])])
    assert len(relisted.hops) == len(hg.hops) + 1
    got = designer.site_links(sites, relisted, radius)
    assert got == reference_site_links(sites, relisted, radius)
    assert got[pair] != link


def test_site_links_rejects_site_id_of_a_tower():
    sites, hg, radius = random_tower_instance(0)
    sites[2] = Site("t005", sites[2].location, 1.0)
    with pytest.raises(ValueError, match="'t005'"):
        designer.site_links(sites, hg, radius)


def test_build_design_input_from_pipeline():
    a, b, hg = corridor_fixture()
    traffic = gravity_matrix([a, b])
    d = geodesic_km(a.location, b.location)
    fiber = {pair_key(a.id, b.id): d * 1.4}
    inp = build_design_input([a, b], traffic, hg, fiber, budget=50.0, radius_km=35.0)
    key = pair_key(a.id, b.id)
    assert inp.fiber_km_eq[key] == pytest.approx(d * 1.4 * 1.5, rel=1e-12)
    assert key in inp.mw_km
    design = solve_heuristic(inp)
    assert design.built_links == (key,)
    assert design.stats.mean < 1.5


# --- serialization ----------------------------------------------------------------

def test_design_input_json_roundtrip(tmp_path):
    inp = random_instance(20, n_sites=6)
    path = tmp_path / "instance.json"
    designer.save_design_input(inp, str(path))
    back = designer.load_design_input(str(path))
    assert back.site_ids == inp.site_ids
    assert back.budget == inp.budget
    assert back.mw_km == pytest.approx(inp.mw_km)
    assert back.fiber_km_eq == pytest.approx(inp.fiber_km_eq)
    assert back.traffic.as_dict() == pytest.approx(inp.traffic.as_dict())
    d1 = solve_heuristic(inp)
    d2 = solve_heuristic(back)
    assert d1.built_links == d2.built_links
    # The key is written as the one modelled fiber slowdown; a file without it loads alike.
    doc = json.loads(path.read_text())
    assert doc.pop("fiber_slowdown") == 1.5
    path.write_text(json.dumps(doc))
    assert designer.load_design_input(str(path)).fiber_km_eq == back.fiber_km_eq


def test_design_json_and_geojson(tmp_path):
    inp = random_instance(21, n_sites=5, mw_fraction=0.8)
    design = solve_heuristic(inp)
    dpath = tmp_path / "design.json"
    designer.save_design(design, str(dpath))
    assert designer.load_built_links(str(dpath)) == list(design.built_links)
    gj = designer.design_to_geojson(inp, design)
    assert gj["type"] == "FeatureCollection"
    media = {f["properties"]["medium"] for f in gj["features"]}
    assert media <= {"mw", "fiber"}
    json.dumps(gj)  # serializable
