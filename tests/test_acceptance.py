"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its pinned tolerance (run with -s to see them).

The full-scale US stretch medians depend on the proprietary InterTubes
conduit dataset and are checked only when it is supplied via
LIGHTWAN_INTERTUBES_{CONDUITS,ENDPOINTS}; everything else runs on
synthetic instances against independent oracles.
"""

import math
import os
import sys
import time

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from dict_graph import (  # noqa: E402
    WeightedGraph, connected, fiber_dict_graph, latency_graph, link_for, to_csr,
)
from test_designer import (  # noqa: E402
    exhaustive_optimum, fw_pair_lengths, random_instance,
)

from lightwan import capacity, designer, fiberbase, graphcore, los, simnet, weather
from lightwan.designer import HybridEvaluator, evaluate_design, solve_heuristic
from lightwan.fiberbase import FiberGraph, LeaseCostModel
from lightwan.geo import GeoPoint, Site
from lightwan.traffic import TrafficMatrix, pair_key


def report(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n}: {status} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_formula_fidelity():
    t0 = time.time()
    # Mid-hop of a 1 km hop at 1 GHz and K = 1.
    bulge, fres = los.clearance_terms_m(0.5, 0.5, 1.0, los.LosParams(f_ghz=1.0, k_factor=1.0))
    ok = (abs(fres - 8.7) <= 1e-9 * 8.7
          and 0.0195 <= bulge <= 0.0200
          and abs(bulge - 0.25 / 12.74) <= 1e-9 * bulge)
    elapsed = time.time() - t0
    report(1, ok and elapsed < 1.0,
           f"fresnel(1,1)={fres:.6f} m, bulge(D=1,K=1)={bulge:.6f} m, "
           f"{elapsed:.3f}s (<1s)")


def test_criterion_2_heuristic_optimality():
    t0 = time.time()
    worst = 0.0
    for seed in range(20):
        inp = random_instance(seed, n_sites=8, mw_fraction=0.35, budget_fraction=0.4)
        best_val, _ = exhaustive_optimum(inp)
        got = solve_heuristic(inp).stats.mean
        worst = max(worst, got - best_val)
        assert got >= best_val - 1e-9  # cannot beat the true optimum
    elapsed = time.time() - t0
    report(2, worst <= 0.01 and elapsed < 300.0,
           f"20 seeded 8-site instances, worst gap to exhaustive optimum "
           f"{worst:.6f} (<=0.01), {elapsed:.1f}s (<300s)")


def ladder_instance(budget):
    inp = random_instance(99, n_sites=15, mw_fraction=0.14, budget_fraction=0.0,
                          max_cost=5)
    inp.budget = float(budget)
    return inp


def test_criterion_3_budget_monotonicity():
    t0 = time.time()
    total_cost = sum(ladder_instance(0).mw_cost.values())
    budgets = [round(total_cost * f) for f in np.linspace(0.0, 1.0, 10)]
    means = []
    for budget in budgets:
        means.append(solve_heuristic(ladder_instance(budget)).stats.mean)
    monotone = all(later <= earlier + 1e-9 for earlier, later in zip(means, means[1:]))
    fiber_only = evaluate_design(HybridEvaluator(ladder_instance(0)), []).stats.mean
    zero_matches = means[0] == fiber_only
    elapsed = time.time() - t0
    report(3, monotone and zero_matches and elapsed < 120.0,
           f"15-site instance, 10-budget ladder {means[0]:.4f}->{means[-1]:.4f} "
           f"non-increasing={monotone}, B=0 equals fiber-only exactly="
           f"{zero_matches}, {elapsed:.1f}s (<120s)")


def test_criterion_4_augmentation_thresholds():
    got = (capacity.series_needed(0.5), capacity.series_needed(3.0),
           capacity.series_needed(8.5))
    report(4, got == (1, 2, 3), f"series_needed(0.5/3/8.5 Gbps) = {got} (exact 1/2/3)")


def test_criterion_5_lease_cost_anchor():
    g = FiberGraph()
    g.add_endpoint(Site("nyc", GeoPoint(40.7128, -74.0060)))
    g.add_endpoint(Site("chi", GeoPoint(41.8781, -87.6298)))
    g.add_link("nyc", "chi", 1200.0)
    plan = fiberbase.provision_wavelengths(g, TrafficMatrix({("chi", "nyc"): 1.0}), 75.0)
    cost = fiberbase.lease_cost(plan, g, LeaseCostModel(term_months=1))
    ok = (plan.links[0].capacity_gbps, plan.links[0].count) == (100.0, 1) \
        and cost.bandwidth_usd == 30000.0
    report(5, ok, f"100 Gbps x 1200 km x $0.25 = ${cost.bandwidth_usd:,.0f}/month "
                  "(exact $30,000)")


def _designed_ten_site():
    inp = random_instance(42, n_sites=10, mw_fraction=0.4, budget_fraction=0.5)
    design = solve_heuristic(inp)
    probe = capacity.route_demand(design, inp.traffic, 1.0)
    designed_aggregate = 3.9 / max(probe.mw.values())
    loads = capacity.route_demand(design, inp.traffic, designed_aggregate)
    caps = {pair: float(capacity.series_needed(load) ** 2)
            for pair, load in loads.mw.items()}
    topo = simnet.topology_from_design(inp, design, link_capacities=caps,
                                       fiber_capacity_gbps=1000.0)
    return inp, topo, designed_aggregate


def test_criterion_6_simulator_behavior():
    t0 = time.time()
    inp, topo, designed_aggregate = _designed_ten_site()
    table = simnet.build_routing(topo, inp.traffic, "shortest_path")

    def sweep(load, seed=7):
        cfg = simnet.SimConfig(aggregate_gbps=load * designed_aggregate,
                               sim_seconds=0.05, seed=seed,
                               queue_capacity_packets=1000)
        return simnet.run(topo, inp.traffic, table, cfg)

    stats70 = sweep(0.7)
    g = to_csr(latency_graph(topo))
    qsum, qn = 0.0, 0
    for (a, b), rec in stats70.flows.items():
        if rec.delivered == 0:
            continue
        p = graphcore.shortest_path(g, a, b)
        tx = sum(500 * 8 / (link_for(topo, u, v).capacity_gbps * 1e9) * 1000.0
                 for u, v in p.edges)
        qsum += max(rec.mean_delay_ms - (p.total_weight + tx), 0.0) * rec.delivered
        qn += rec.delivered
    queuing = qsum / qn
    stats120 = sweep(1.2)
    repeat = sweep(0.7)
    deterministic = repeat.flows == stats70.flows
    elapsed = time.time() - t0
    ok = (stats70.loss_rate == 0.0 and queuing < 0.1
          and stats120.loss_rate > 0.0 and deterministic and elapsed < 600.0)
    report(6, ok, f"10-site designed topology: loss@70%={stats70.loss_rate:.4f} "
                  f"(=0), mean queuing {queuing:.4f} ms (<0.1), "
                  f"loss@120%={stats120.loss_rate:.4f} (>0), "
                  f"seed-deterministic={deterministic}, {elapsed:.1f}s (<600s)")


def _weather_instance():
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from test_weather import hexagon_instance
    return hexagon_instance()


def test_criterion_7_weather_extremes():
    t0 = time.time()
    inp, design, coords = _weather_instance()
    report0 = weather.reroute_and_stats(inp, design, [("t", set())])

    def per_pair(report, k):
        return dict(zip(report.pairs.pairs, report.intervals[k].per_pair_stretch.tolist()))

    base = per_pair(report0, 0)
    base_ok = all(base[p] == r.stretch for p, r in design.routes.items())
    fiber_only = evaluate_design(HybridEvaluator(inp), [])
    report_all = weather.reroute_and_stats(
        inp, design, [("t", set(design.built_links))])
    fiber = per_pair(report_all, 0)
    fiber_ok = all(fiber[p] == r.stretch for p, r in fiber_only.routes.items())
    rng = np.random.default_rng(10)
    links = list(design.built_links)
    monotone = True
    for _ in range(100):
        small_idx = set(rng.choice(len(links), size=int(rng.integers(0, len(links))),
                                   replace=False))
        big_idx = small_idx | set(rng.choice(len(links),
                                             size=int(rng.integers(0, len(links))),
                                             replace=False))
        rep = weather.reroute_and_stats(inp, design, [
            ("a", {links[i] for i in small_idx}),
            ("b", {links[i] for i in big_idx})])
        sa, sb = per_pair(rep, 0), per_pair(rep, 1)
        if any(sb[p] < sa[p] - 1e-12 for p in sa):
            monotone = False
            break
    elapsed = time.time() - t0
    ok = base_ok and fiber_ok and monotone and elapsed < 120.0
    report(7, ok, f"zero-rain==baseline bit-exact={base_ok}, all-failed==fiber-only "
                  f"bit-exact={fiber_ok}, monotone over 100 random failure-set "
                  f"pairs={monotone}, {elapsed:.1f}s (<120s)")


def _sites_connected(fiber: FiberGraph, sites) -> bool:
    """True when every pair of `sites` is joined by fiber (a graph search)."""
    return connected(fiber_dict_graph(fiber), sites)


def test_criterion_8_fiber_pruning():
    t0 = time.time()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from test_fiberbase import build_mesh_12, exhaustive_mean_stretch
    g, sites = build_mesh_12()
    steps = fiberbase.prune_links(g, sites)
    connected_ok = all(_sites_connected(s.graph, sites) for s in steps)
    means = [s.stats.mean for s in steps]
    monotone = all(later >= earlier - 1e-12 for earlier, later in zip(means, means[1:]))
    minimal = True
    current = g.copy()
    for step in steps[1:]:
        damages = {}
        for key in sorted(current.links):
            trial = current.copy()
            trial.remove_link(*key)
            if not _sites_connected(trial, sites):
                continue
            damages[key] = exhaustive_mean_stretch(trial, sites)
        best = min(sorted(damages), key=lambda k: damages[k])
        if step.removed != best:
            minimal = False
            break
        current.remove_link(*step.removed)
    elapsed = time.time() - t0
    ok = connected_ok and monotone and minimal and elapsed < 120.0
    report(8, ok, f"12-node mesh, {len(steps) - 1} removals: connectivity kept="
                  f"{connected_ok}, mean non-decreasing={monotone}, every removal "
                  f"verified minimal-damage={minimal}, {elapsed:.1f}s (<120s)")


def test_criterion_9_oracle_equivalence():
    t0 = time.time()
    # Shortest paths and all-pairs on a 200-node random graph.
    rng = np.random.default_rng(200)
    names = [f"n{i:03d}" for i in range(200)]
    g = WeightedGraph()
    for n in names:
        g.add_node(n)
    for i in range(200):
        for j in range(i + 1, 200):
            if rng.random() < 0.03:
                g.add_edge(names[i], names[j], float(rng.uniform(0.5, 9.0)))
    idx = {n: i for i, n in enumerate(names)}
    mat = np.full((200, 200), np.inf)
    np.fill_diagonal(mat, 0.0)
    for a, b, w in g.edges():
        mat[idx[a], idx[b]] = mat[idx[b], idx[a]] = w
    for k in range(200):
        mat = np.minimum(mat, mat[:, k:k + 1] + mat[k:k + 1, :])
    paths_ok = True
    csr = to_csr(g)
    for src in names[:10]:
        lengths = {v: p.total_weight for v, p in graphcore.shortest_paths_from(csr, src).items()}
        for dst in names:
            want = mat[idx[src], idx[dst]]
            got = lengths.get(dst, math.inf)
            if not (math.isinf(want) and math.isinf(got)) \
                    and abs(got - want) > 1e-9:
                paths_ok = False
    sites = names[:40]
    ap = graphcore.distance_matrix(
        graphcore.weight_matrix(names, {(a, b): w for a, b, w in g.edges()}))
    ap_ok = all(abs(ap[idx[s], idx[t]] - mat[idx[s], idx[t]]) <= 1e-9
                or (math.isinf(ap[idx[s], idx[t]]) and math.isinf(mat[idx[s], idx[t]]))
                for s in sites for t in sites)

    # Demand routing and design evaluation against independent oracles.
    routing_ok = True
    eval_ok = True
    for seed in range(4):
        inp = random_instance(seed, n_sites=9, mw_fraction=0.5)
        design = solve_heuristic(inp)
        lengths = fw_pair_lengths(inp, design.built_links)
        for pair, route in design.routes.items():
            if abs(route.length_km - lengths[pair]) > 1e-9 * max(1.0, lengths[pair]):
                eval_ok = False
        loads = capacity.route_demand(design, inp.traffic, 50.0)
        expected: dict = {}
        for (a, b), h in inp.traffic.items():
            route = design.routes[(a, b)]
            for (u, v), medium in zip(route.edges, route.media):
                key = (medium, pair_key(u, v))
                expected[key] = expected.get(key, 0.0) + h * 50.0
        got_flat = {("mw", k): v for k, v in loads.mw.items()}
        got_flat.update({("fiber", k): v for k, v in loads.fiber.items()})
        for key in set(expected) | set(got_flat):
            if abs(expected.get(key, 0.0) - got_flat.get(key, 0.0)) > 1e-9:
                routing_ok = False
    elapsed = time.time() - t0
    ok = paths_ok and ap_ok and routing_ok and eval_ok and elapsed < 300.0
    report(9, ok, f"200-node shortest paths={paths_ok}, all-pairs={ap_ok}, "
                  f"demand routing={routing_ok}, design evaluation={eval_ok}, "
                  f"{elapsed:.1f}s (<300s)")


def test_criterion_10_conditional_full_data_replication():
    conduits = os.environ.get("LIGHTWAN_INTERTUBES_CONDUITS")
    endpoints = os.environ.get("LIGHTWAN_INTERTUBES_ENDPOINTS")
    if not conduits or not endpoints:
        print("ACCEPTANCE 10: SKIP - InterTubes-format dataset not supplied "
              "(set LIGHTWAN_INTERTUBES_{CONDUITS,ENDPOINTS})")
        pytest.skip("full conduit dataset not supplied")
    g = fiberbase.load_fiber_csv(conduits, endpoints)
    sites = sorted(g.endpoints)
    uniform = fiberbase.fiber_stretch_stats(g, sites)
    gravity = fiberbase.fiber_stretch_stats(
        g, sites, TrafficMatrix({
            pair_key(a, b): g.endpoints[a].population * g.endpoints[b].population
            for i, a in enumerate(sites) for b in sites[i + 1:]}))
    ok = abs(uniform.median - 1.93) <= 0.03 and abs(gravity.median - 1.85) <= 0.03
    report(10, ok, f"uniform median {uniform.median:.3f} (1.93 +- 0.03), "
                   f"gravity median {gravity.median:.3f} (1.85 +- 0.03)")
