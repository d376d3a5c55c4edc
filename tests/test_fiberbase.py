import dataclasses
import math
import os
import sys

import numpy as np
import pytest

from lightwan import fiberbase, graphcore
from lightwan.fiberbase import FiberGraph, LeaseCostModel, lease_cost, provision_wavelengths
from lightwan.geo import GeoPoint, Site, geodesic_km
from lightwan.traffic import PairIndex, TrafficMatrix, pair_key

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from dict_graph import connected, fiber_dict_graph, shortest_paths_from  # noqa: E402
from dict_stats import (  # noqa: E402
    finite_dict, reference_stretch_stats, reference_weighted_quantile,
)


def make_graph(points, links, inflation=1.0):
    g = FiberGraph()
    for sid, lat, lon in points:
        g.add_endpoint(Site(sid, GeoPoint(lat, lon)))
    for a, b in links:
        km = geodesic_km(g.endpoints[a].location, g.endpoints[b].location) * inflation
        g.add_link(a, b, km)
    return g


def exhaustive_shortest_km(g: FiberGraph, src: str, dst: str) -> float:
    # Independent oracle: enumerate every simple path.
    adj: dict[str, dict[str, float]] = {}
    for (a, b), km in g.links.items():
        adj.setdefault(a, {})[b] = km
        adj.setdefault(b, {})[a] = km
    best = math.inf

    def walk(node, seen, total):
        nonlocal best
        if node == dst:
            best = min(best, total)
            return
        for nbr, km in adj.get(node, {}).items():
            if nbr not in seen:
                walk(nbr, seen | {nbr}, total + km)

    walk(src, {src}, 0.0)
    return best


def exhaustive_mean_stretch(g: FiberGraph, sites, slowdown=1.5) -> float:
    vals = []
    ordered = sorted(sites)
    for i, s in enumerate(ordered):
        for t in ordered[i + 1:]:
            km = exhaustive_shortest_km(g, s, t)
            d = geodesic_km(g.endpoints[s].location, g.endpoints[t].location)
            vals.append(km * slowdown / d)
    return sum(vals) / len(vals)


def test_single_edge_along_geodesic_stretch():
    g = make_graph([("a", 0.0, 0.0), ("b", 0.0, 1.0)], [("a", "b")])
    stats = fiberbase.fiber_stretch_stats(g, ["a", "b"])
    assert stats.mean == pytest.approx(1.5, rel=1e-12)
    assert stats.median == pytest.approx(1.5, rel=1e-12)
    assert stats.p95 == pytest.approx(1.5, rel=1e-12)
    assert stats.weighting == "uniform"


def test_ring_with_chord_matches_exhaustive_oracle():
    points = [("s0", 0.0, 0.0), ("s1", 0.0, 1.0), ("s2", 1.0, 1.5),
              ("s3", 2.0, 1.0), ("s4", 2.0, 0.0)]
    links = [("s0", "s1"), ("s1", "s2"), ("s2", "s3"), ("s3", "s4"), ("s4", "s0"),
             ("s1", "s3")]
    g = make_graph(points, links, inflation=1.2)
    sites = [p[0] for p in points]
    stretch = fiberbase.pair_stretches(g, sites)
    assert np.isfinite(stretch).all()
    for (s, t), got in zip(PairIndex(sites).pairs, stretch.tolist()):
        km = exhaustive_shortest_km(g, s, t)
        d = geodesic_km(g.endpoints[s].location, g.endpoints[t].location)
        assert got == pytest.approx(km * 1.5 / d, rel=1e-12)
    stats = fiberbase.fiber_stretch_stats(g, sites)
    assert stats.mean == pytest.approx(exhaustive_mean_stretch(g, sites), rel=1e-12)


def test_disconnected_pair_excluded_with_warning(caplog):
    g = make_graph([("a", 0.0, 0.0), ("b", 0.0, 1.0), ("c", 5.0, 5.0)], [("a", "b")])
    with caplog.at_level("WARNING"):
        stats = fiberbase.fiber_stretch_stats(g, ["a", "b", "c"])
    assert stats.excluded_pairs == 2
    assert stats.pair_count == 1
    assert [r.getMessage() for r in caplog.records] == [
        "2 site pairs disconnected in fiber graph, first (a, c)"]


def test_gravity_equal_populations_equals_uniform():
    points = [("s0", 0.0, 0.0), ("s1", 0.0, 1.0), ("s2", 1.0, 1.0), ("s3", 1.0, 0.0)]
    g = make_graph(points, [("s0", "s1"), ("s1", "s2"), ("s2", "s3"), ("s3", "s0")],
                   inflation=1.3)
    sites = [p[0] for p in points]
    uniform = fiberbase.fiber_stretch_stats(g, sites)
    equal = TrafficMatrix({pair_key(a, b): 1.0
                           for i, a in enumerate(sites) for b in sites[i + 1:]})
    gravity = fiberbase.fiber_stretch_stats(g, sites, weights=equal)
    assert gravity.mean == pytest.approx(uniform.mean, rel=1e-12)
    assert gravity.median == uniform.median
    assert gravity.p95 == uniform.p95


def test_weighted_quantile_convention():
    vals = [1.0, 2.0, 3.0, 4.0]
    w = [1.0, 1.0, 1.0, 1.0]
    assert fiberbase.weighted_quantiles(vals, w, (0.5,))[0] == 2.0
    assert fiberbase.weighted_quantiles(vals, w, (0.95,))[0] == 4.0
    assert fiberbase.weighted_quantiles(vals, [10.0, 1.0, 1.0, 1.0], (0.5,))[0] == 1.0


QS = (0.0, 0.5, 0.95, 0.99, 1.0)


def random_stretch(rng, n):
    """n stretch values with ties (rounded to 0.05) and a few inf, and
    weights with ties and zeros."""
    values = np.round(rng.uniform(1.0, 3.0, n) * 20.0) / 20.0
    values[rng.random(n) < 0.1] = np.inf
    weights = rng.choice([0.0, 0.5, 1.0, rng.uniform(0.0, 2.0)], n) * rng.uniform(0.5, 1.5, n)
    weights[rng.random(n) < 0.3] = 1.0
    return values, weights


def test_weighted_quantile_bitwise_equals_reference():
    # The last 40 trials have thousands of values, as at paper scale.
    rng = np.random.default_rng(21)
    for trial in range(440):
        values, weights = random_stretch(rng, int(rng.integers(1, 40) if trial < 400
                                                  else rng.integers(1000, 4000)))
        if weights.sum() <= 0:
            weights[0] = 1.0
        want = [reference_weighted_quantile(values.tolist(), weights.tolist(), q) for q in QS]
        got = fiberbase.weighted_quantiles(values, weights, QS)
        assert [v.hex() for v in got] == [v.hex() for v in want], trial
        assert all(type(v) is float for v in got)
        assert fiberbase.weighted_quantiles(values, weights, (QS[trial % 5],))[0].hex() == \
            want[trial % 5].hex()


@pytest.mark.parametrize("weighting", ["uniform", "gravity"])
def test_stretch_stats_bitwise_equals_reference(weighting):
    rng = np.random.default_rng(22)
    for trial in range(200):
        n_sites = int(rng.integers(2, 14))
        pairs = PairIndex([f"s{i:02d}" for i in rng.permutation(n_sites)])
        traffic = None
        if weighting == "gravity":
            drawn = rng.choice([0.0, 1.0, 2.5], len(pairs.pairs)).tolist()
            traffic = TrafficMatrix({**dict(zip(pairs.pairs, drawn)), pairs.pairs[0]: 1.0})
            pairs = PairIndex(pairs.ids, traffic)
        stretch, _ = random_stretch(rng, len(pairs.pairs))
        stretch[0] = 1.25
        per_pair, cut = finite_dict(pairs.pairs, stretch)
        try:
            want = reference_stretch_stats(per_pair, traffic, cut)
        except ValueError as exc:  # every weighted pair is cut
            with pytest.raises(ValueError, match=str(exc)):
                fiberbase.stretch_stats(stretch, pairs.weights)
            continue
        got = fiberbase.stretch_stats(stretch, pairs.weights)
        assert got == want
        for field in dataclasses.fields(want):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert type(a) is type(b), field.name
            if isinstance(b, float):
                assert a.hex() == b.hex(), field.name


def test_prune_tree_returns_single_step():
    g = make_graph([("a", 0.0, 0.0), ("b", 0.0, 1.0), ("c", 0.0, 2.0)],
                   [("a", "b"), ("b", "c")], inflation=1.1)
    steps = fiberbase.prune_links(g, ["a", "b", "c"])
    assert len(steps) == 1
    assert steps[0].removed is None
    assert len(steps[0].graph.links) == 2


def test_prune_square_with_diagonal_removes_min_damage_link():
    points = [("s0", 0.0, 0.0), ("s1", 0.0, 1.0), ("s2", 1.0, 1.0), ("s3", 1.0, 0.0)]
    links = [("s0", "s1"), ("s1", "s2"), ("s2", "s3"), ("s3", "s0"), ("s0", "s2")]
    g = make_graph(points, links, inflation=1.25)
    sites = [p[0] for p in points]
    steps = fiberbase.prune_links(g, sites)
    first_removed = steps[1].removed
    # Exhaustive single-removal comparison over non-bridge links.
    damages = {}
    for key in g.links:
        trial = g.copy()
        trial.remove_link(*key)
        if not connected(fiber_dict_graph(trial), sites):
            continue
        damages[key] = exhaustive_mean_stretch(trial, sites)
    assert first_removed == min(sorted(damages), key=lambda k: damages[k])


def build_mesh_12():
    rng = np.random.default_rng(77)
    points = [(f"m{i:02d}", float(rng.uniform(0, 3)), float(rng.uniform(0, 3)))
              for i in range(12)]
    g = FiberGraph()
    for sid, lat, lon in points:
        g.add_endpoint(Site(sid, GeoPoint(lat, lon)))
    ids = [p[0] for p in points]
    links = set()
    for i in range(12):
        links.add(pair_key(ids[i], ids[(i + 1) % 12]))
    while len(links) < 20:
        a, b = rng.choice(12, size=2, replace=False)
        links.add(pair_key(ids[a], ids[b]))
    for a, b in sorted(links):
        km = geodesic_km(g.endpoints[a].location, g.endpoints[b].location)
        g.add_link(a, b, km * float(rng.uniform(1.05, 1.6)))
    return g, ids


def test_prune_mesh_properties():
    g, sites = build_mesh_12()
    steps = fiberbase.prune_links(g, sites)
    assert len(steps) > 1
    means = [s.stats.mean for s in steps]
    for earlier, later in zip(means, means[1:]):
        assert later >= earlier - 1e-12
    for step in steps:
        assert connected(fiber_dict_graph(step.graph), sites)
        assert step.stats.excluded_pairs == 0
    counts = [len(s.graph.links) for s in steps]
    assert counts == sorted(counts, reverse=True)


def test_provision_examples():
    # Degenerate single-link topologies exercise the selection table.
    def plan_for(demand):
        g = make_graph([("a", 0.0, 0.0), ("b", 0.0, 1.0)], [("a", "b")])
        m = TrafficMatrix({("a", "b"): 1.0})
        return provision_wavelengths(g, m, demand).links[0]

    w = plan_for(30.0)
    assert (w.capacity_gbps, w.count) == (40.0, 1)
    assert w.utilization == pytest.approx(0.75)
    w = plan_for(150.0)
    assert (w.capacity_gbps, w.count) == (100.0, 2)
    assert w.utilization == pytest.approx(0.75)
    w = plan_for(250.0)
    assert w.unprovisionable


def test_provision_zero_demand_link_flagged_under_floor():
    # A leased link the routing never touches still gets the smallest option.
    points = [("a", 0.0, 0.0), ("b", 0.0, 1.0), ("c", 0.0, 2.0)]
    g = make_graph(points, [("a", "b"), ("b", "c"), ("a", "c")])
    m = TrafficMatrix({("a", "b"): 1.0})
    plan = provision_wavelengths(g, m, 5.0)
    idle = next(a for a in plan.links if a.link == ("b", "c"))
    assert idle.demand_gbps == 0.0
    assert (idle.capacity_gbps, idle.count) == (1.0, 1)
    assert idle.under_floor


def test_provision_capacity_covers_demand_and_is_minimal():
    rng = np.random.default_rng(3)
    for demand in rng.uniform(0.1, 190.0, size=40):
        cap, cnt, under, unprov = fiberbase._pick_wavelength(float(demand))
        assert not unprov
        assert cap * cnt >= demand
        # Minimality among in-band options when any exist.
        options = [(c, k) for c in fiberbase.WAVELENGTH_GBPS for k in (1, 2)
                   if c * k >= demand and 0.20 <= demand / (c * k) <= 0.90]
        if options:
            best = min(options, key=lambda o: (o[0] * o[1], o[1]))
            assert (cap, cnt) == best


def test_lease_cost_ny_chicago_anchor():
    # 100 Gbps x 1200 km x $0.25/(Gbps km month) = $30,000 per month.
    g = FiberGraph()
    g.add_endpoint(Site("nyc", GeoPoint(40.7128, -74.0060)))
    g.add_endpoint(Site("chi", GeoPoint(41.8781, -87.6298)))
    g.add_link("nyc", "chi", 1200.0)
    m = TrafficMatrix({("chi", "nyc"): 1.0})
    plan = provision_wavelengths(g, m, 75.0)  # 100G x1 at util 0.75
    a = plan.links[0]
    assert (a.capacity_gbps, a.count) == (100.0, 1)
    report = lease_cost(plan, g, LeaseCostModel(term_months=1))
    assert report.bandwidth_usd == pytest.approx(30000.0, rel=1e-12)


def test_lease_cost_empty_plan_is_zero():
    g = FiberGraph()
    plan = fiberbase.WavelengthPlan((), 1.0)
    report = lease_cost(plan, g, LeaseCostModel())
    assert report.total_usd == 0.0
    assert report.site_count == 0


def test_lease_cost_toy_plan_spreadsheet_oracle():
    points = [("a", 0.0, 0.0), ("b", 0.0, 1.0), ("c", 0.0, 2.0)]
    g = make_graph(points, [("a", "b"), ("b", "c"), ("a", "c")])
    km = {k: v for k, v in g.links.items()}
    m = TrafficMatrix({("a", "b"): 0.5, ("b", "c"): 0.3, ("a", "c"): 0.2})
    aggregate = 60.0
    plan = provision_wavelengths(g, m, aggregate)
    model = LeaseCostModel()
    report = lease_cost(plan, g, model)
    expected_bw = 0.0
    for a in plan.links:
        expected_bw += a.capacity_gbps * a.count * km[a.link] * 0.25 * 60
    expected_site = 3 * (10000.0 + 2000.0 * 60)
    assert report.bandwidth_usd == pytest.approx(expected_bw, rel=1e-12)
    assert report.site_usd == pytest.approx(expected_site, rel=1e-12)
    seconds = 60 * fiberbase.SECONDS_PER_MONTH
    assert report.dollars_per_gb == pytest.approx(
        (expected_bw + expected_site) / (aggregate / 8.0 * seconds), rel=1e-12)


def test_fiber_graph_flags_subgeodesic_links(caplog):
    g = FiberGraph()
    g.add_endpoint(Site("a", GeoPoint(0.0, 0.0)))
    g.add_endpoint(Site("b", GeoPoint(0.0, 1.0)))
    with caplog.at_level("WARNING"):
        g.add_link("a", "b", 50.0)  # geodesic is ~111 km
    assert any("shorter than geodesic" in r.message for r in caplog.records)
    assert ("a", "b") in g.links


def test_conduit_listed_twice_keeps_its_last_length(tmp_path, caplog):
    # Either order names the same conduit; the later row's length wins, and
    # each repeat logs a warning naming the file, the pair and both lengths.
    endpoints = tmp_path / "endpoints.csv"
    endpoints.write_text("id,lat,lon\na,0,0\nb,0,1\nc,1,1\n")
    conduits = tmp_path / "conduits.csv"
    conduits.write_text("endpoint_a,endpoint_b,fiber_km\na,b,120\nb,c,200\nb,a,360\na,b,400\n")
    with caplog.at_level("WARNING", logger="lightwan.fiberbase"):
        g = fiberbase.load_fiber_csv(str(conduits), str(endpoints))
    assert g.links == {("a", "b"): 400.0, ("b", "c"): 200.0}
    assert [r.getMessage() for r in caplog.records] == [
        f"{conduits}: conduit (b, a) listed again: 360.0 km replaces 120.0 km",
        f"{conduits}: conduit (a, b) listed again: 400.0 km replaces 360.0 km"]


# --- slow reference: one full stretch summary per trial removal -----------------
# `prune_links` as it was before stacked trial scoring. The stacked code must
# take the same steps with bitwise the same statistics.

def reference_fiber_stats(g, sites, weights=None):
    """`fiber_stretch_stats` through the dict oracle."""
    per_pair, cut = finite_dict(PairIndex(sites).pairs, fiberbase.pair_stretches(g, sites))
    return reference_stretch_stats(per_pair, weights, cut)


def reference_prune_links(g, sites, weights=None):
    work = g.copy()
    steps = [fiberbase.PruneStep(work.copy(), reference_fiber_stats(work, sites, weights), None)]
    while True:
        safe = graphcore.bridges(work.links)
        candidates = sorted(k for k in work.links if k not in safe)
        if not candidates:
            break
        best_key = None
        best_mean = math.inf
        for key in candidates:
            trial = work.copy()
            trial.remove_link(*key)
            mean = reference_fiber_stats(trial, sites, weights).mean
            if mean < best_mean:
                best_mean = mean
                best_key = key
        work.remove_link(*best_key)
        steps.append(fiberbase.PruneStep(work.copy(), reference_fiber_stats(work, sites, weights),
                                         best_key))
    return steps


def random_conduits(seed, n=14, n_sites=10, chords=8, island=False):
    """Ring plus chords over n endpoints, the first n_sites of them sites;
    with `island`, two more sites on a triangle of their own, so some site
    pairs are disconnected."""
    rng = np.random.default_rng(seed)
    points = [(f"e{i:02d}", float(rng.uniform(0, 4)), float(rng.uniform(0, 4)))
              for i in range(n)]
    ids = [p[0] for p in points]
    links = {pair_key(ids[i], ids[(i + 1) % n]) for i in range(n)}
    while len(links) < n + chords:
        a, b = rng.choice(n, size=2, replace=False)
        links.add(pair_key(ids[a], ids[b]))
    sites = ids[:n_sites]
    if island:
        points += [("x0", 8.0, 8.0), ("x1", 8.5, 8.2), ("x2", 8.2, 8.9)]
        links |= {("x0", "x1"), ("x1", "x2"), ("x0", "x2")}
        sites = sites + ["x0", "x1"]
    g = FiberGraph()
    for sid, lat, lon in points:
        g.add_endpoint(Site(sid, GeoPoint(lat, lon)))
    for a, b in sorted(links):
        km = geodesic_km(g.endpoints[a].location, g.endpoints[b].location)
        g.add_link(a, b, km * float(rng.uniform(1.05, 1.6)))
    return g, sites


def gravity_like(rng, sites):
    return TrafficMatrix({pair_key(a, b): float(rng.uniform(0.0, 5.0)) * (rng.random() > 0.2)
                          for i, a in enumerate(sites) for b in sites[i + 1:]})


def assert_same_steps(got, want):
    assert [s.removed for s in got] == [s.removed for s in want]
    for a, b in zip(got, want):
        assert a.stats == b.stats
        assert a.stats.mean.hex() == b.stats.mean.hex()
        assert list(a.graph.links.items()) == list(b.graph.links.items())


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("weighting", ["uniform", "gravity"])
def test_prune_links_matches_reference(seed, weighting):
    g, sites = random_conduits(seed, island=seed % 2 == 1)
    weights = None if weighting == "uniform" else gravity_like(np.random.default_rng(seed), sites)
    want = reference_prune_links(g, sites, weights)
    got = fiberbase.prune_links(g, sites, weights)
    assert len(want) > 2
    assert_same_steps(got, want)
    if seed % 2 == 1:
        assert all(s.stats.excluded_pairs == 2 * 10 for s in got)


def test_prune_links_logs_one_disconnect_warning_per_step(caplog):
    # Two of 12 sites sit on an island: 20 disconnected pairs at every step.
    g, sites = random_conduits(1, island=True)
    with caplog.at_level("WARNING", logger="lightwan.fiberbase"):
        steps = fiberbase.prune_links(g, sites)
    warnings = [r.getMessage() for r in caplog.records if "disconnected" in r.getMessage()]
    assert len(steps) > 2
    assert warnings == ["20 site pairs disconnected in fiber graph, first (e00, x0)"] * len(steps)


def test_prune_links_trial_chunks_match_reference(monkeypatch):
    # A batch limit below one trial's matrix scores every trial on its own;
    # one of a few trials splits each round across several stacked calls.
    g, sites = random_conduits(11, island=True)
    weights = gravity_like(np.random.default_rng(11), sites)
    want = reference_prune_links(g, sites, weights)
    n = len(g.endpoints)
    for limit in (1, 3 * n * n):
        monkeypatch.setattr(fiberbase, "_BATCH_ELEMENTS", limit)
        assert_same_steps(fiberbase.prune_links(g, sites, weights), want)


# --- Dijkstra reference demand routing ------------------------------------------
# `route_fiber_demand` as it was before routes came from the distance
# kernel: Dijkstra from every source, ties to the lexicographically smallest
# node sequence. Loads must come out bitwise equal.

def reference_route_fiber_demand(g, weights, aggregate_gbps):
    wg = fiber_dict_graph(g)
    loads = {key: 0.0 for key in g.links}
    demands = weights.scaled(aggregate_gbps)
    for src in sorted({s for pair in demands for s in pair}):
        if src not in g.endpoints:
            raise KeyError(f"unknown site {src!r}")
        paths = shortest_paths_from(wg, src)
        for (a, b), gbps in demands.items():
            if a != src:
                continue
            if b not in g.endpoints:
                raise KeyError(f"unknown site {b!r}")
            if b not in paths:
                raise ValueError(f"site pair ({a}, {b}) disconnected in fiber graph")
            for u, v in paths[b].edges:
                loads[pair_key(u, v)] += gbps
    return loads


def test_route_fiber_demand_matches_reference():
    for seed in range(24):
        g, sites = random_conduits(seed, n=14 + seed % 10, chords=4 + seed % 8)
        weights = gravity_like(np.random.default_rng(seed), sites)
        got = fiberbase.route_fiber_demand(g, weights, 40.0)
        want = reference_route_fiber_demand(g, weights, 40.0)
        assert list(got.items()) == list(want.items())


def test_route_fiber_demand_names_pair_at_fault():
    g, sites = random_conduits(3, island=True)
    weights = gravity_like(np.random.default_rng(3), sites)
    for route in (fiberbase.route_fiber_demand, reference_route_fiber_demand):
        with pytest.raises(ValueError,
                           match=r"site pair \(e00, x0\) disconnected in fiber graph"):
            route(g, weights, 40.0)
        with pytest.raises(KeyError, match="unknown site 'aa'"):
            route(g, TrafficMatrix({("e01", "e02"): 1.0, ("aa", "e05"): 2.0}), 40.0)
        # An unknown destination is unknown too, not a disconnected pair.
        with pytest.raises(KeyError, match="unknown site 'zz'"):
            route(g, TrafficMatrix({("e01", "e02"): 1.0, ("e05", "zz"): 2.0}), 40.0)


@pytest.mark.parametrize("seed, weighting, island", [
    (2, "uniform", False), (3, "gravity", False), (4, "uniform", True), (5, "gravity", True)])
def test_prune_step_stats_equal_a_fresh_summary(seed, weighting, island):
    # Each step's statistics come from its chosen trial; they must be
    # those of a full summary of the pruned graph, float for float.
    g, sites = random_conduits(seed, island=island)
    weights = None if weighting == "uniform" else gravity_like(np.random.default_rng(seed), sites)
    steps = fiberbase.prune_links(g, sites, weights)
    assert len(steps) > 2
    for step in steps:
        want = fiberbase.fiber_stretch_stats(step.graph, sites, weights)
        for field in dataclasses.fields(want):
            got, ref = getattr(step.stats, field.name), getattr(want, field.name)
            assert type(got) is type(ref), field.name
            assert (got.hex() == ref.hex()) if isinstance(ref, float) else got == ref, field.name
        assert want.excluded_pairs == (20 if island else 0)
