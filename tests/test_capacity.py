import dataclasses
import math
import os
import sys

import numpy as np
import pytest

from lightwan import capacity, designer, los, simnet
from lightwan.capacity import (
    AugmentationPlan, LinkAugmentation, MwCostModel, augment, mw_cost, route_demand,
    series_needed,
)
from lightwan.geo import GeoPoint, Site, geodesic_km
from lightwan.los import LosParams, TerrainGrid, Tower
from lightwan.traffic import TrafficMatrix, gravity_matrix, pair_key

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from dict_graph import hop_graph_of, hop_rows, tower_disjoint_paths  # noqa: E402
from test_designer import random_tower_instance, reference_pair_graph, relisted_hops  # noqa: E402

KM_PER_DEG = math.pi * 6371.0 / 180.0


def test_series_needed_paper_thresholds():
    assert series_needed(0.5) == 1
    assert series_needed(3.0) == 2
    assert series_needed(8.5) == 3


def test_series_needed_boundaries():
    assert series_needed(0.0) == 1
    assert series_needed(1.0) == 1
    assert series_needed(1.0001) == 2
    assert series_needed(4.0) == 2
    assert series_needed(9.0) == 3
    assert series_needed(16.5) == 5
    assert series_needed(2.0, per_series_capacity_gbps=0.5) == 2  # 2^2 x 0.5 = 2


def test_series_invariant_random():
    rng = np.random.default_rng(2)
    for demand in rng.uniform(0.0, 200.0, size=100):
        k = series_needed(float(demand))
        assert k * k >= demand
        if k > 1:
            assert (k - 1) ** 2 < demand


def two_site_design(mw_len=100.0, with_fiber=True):
    sites = [Site("aa", GeoPoint(0, 0), 1.0), Site("bb", GeoPoint(0, 1), 1.0)]
    d = {("aa", "bb"): geodesic_km(sites[0].location, sites[1].location)}
    m = {("aa", "bb"): max(mw_len, d[("aa", "bb")])}
    o = {("aa", "bb"): 1.6 * d[("aa", "bb")]} if with_fiber else {}
    inp = designer.DesignInput(sites, TrafficMatrix({("aa", "bb"): 1.0}), d, m,
                               {("aa", "bb"): 2.0}, o, budget=5.0)
    return inp, designer.evaluate_design(designer.HybridEvaluator(inp), [("aa", "bb")])


def test_route_demand_zero_aggregate():
    _, design = two_site_design()
    loads = route_demand(design, TrafficMatrix({("aa", "bb"): 1.0}), 0.0)
    assert all(v == 0.0 for v in loads.mw.values())
    assert not loads.fiber


def test_route_demand_single_pair_full_path():
    _, design = two_site_design()
    loads = route_demand(design, TrafficMatrix({("aa", "bb"): 1.0}), 100.0)
    assert loads.mw == {("aa", "bb"): 100.0}


def test_mw_link_tying_fiber_routes_as_fiber():
    # A user-supplied design builds a MW link exactly as long as its fiber
    # link. Routing keeps fiber on a tie, so the route labels the edge
    # fiber and the MW link carries no load.
    d = geodesic_km(GeoPoint(0, 0), GeoPoint(0, 1))
    inp, design = two_site_design(mw_len=1.6 * d)
    assert inp.mw_km[("aa", "bb")] == inp.fiber_km_eq[("aa", "bb")]
    assert design.routes[("aa", "bb")].media == ("fiber",)
    loads = route_demand(design, inp.traffic, 10.0)
    assert loads.mw.get(("aa", "bb"), 0.0) == 0.0
    assert loads.fiber == {("aa", "bb"): 10.0}
    topo = simnet.topology_from_design(inp, design)
    assert [(l.a, l.b, l.medium) for l in topo.links] == [("aa", "bb", "fiber")]


def test_route_demand_matches_bruteforce_accumulation():
    import os, sys
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from test_designer import random_instance

    inp = random_instance(14, n_sites=6, mw_fraction=0.6)
    design = designer.solve_heuristic(inp)
    aggregate = 80.0
    loads = route_demand(design, inp.traffic, aggregate)
    expected_mw: dict = {}
    expected_fiber: dict = {}
    for (a, b), h in inp.traffic.items():
        route = design.routes[(a, b)]
        for (u, v), medium in zip(route.edges, route.media):
            key = pair_key(u, v)
            tgt = expected_mw if medium == "mw" else expected_fiber
            tgt[key] = tgt.get(key, 0.0) + h * aggregate
    assert loads.mw == pytest.approx(expected_mw)
    assert loads.fiber == pytest.approx(expected_fiber)
    # Demand conservation: summed link load equals sum of demand x hops.
    total = sum(loads.mw.values()) + sum(loads.fiber.values())
    expected_total = sum(h * aggregate * len(design.routes[p].media)
                         for p, h in inp.traffic.items())
    assert total == pytest.approx(expected_total)


def corridor(n_rows: int):
    """n_rows parallel tower chains between two sites; rows too far apart
    to interconnect, so each row is one interior-disjoint series."""
    terr = TerrainGrid(np.zeros((40, 40)), -1.5, -1.5, 0.25)
    spacing = 30.0 / KM_PER_DEG
    row_gap = 0.40  # ~44 km, beyond the 40 km max range
    towers = []
    for r in range(n_rows):
        lat = 0.0 + r * row_gap
        for i in range(1, 10):
            towers.append(Tower(f"r{r}t{i:02d}", GeoPoint(lat, -1.2 + i * spacing), 90.0, 0.0))
    hg = los.build_hop_graph(towers, terr, LosParams(max_range_km=40.0, sample_step_m=500.0))
    mid_lat = (n_rows - 1) * row_gap / 2.0
    a = Site("aa", GeoPoint(mid_lat, -1.2), 5.0)
    b = Site("bb", GeoPoint(mid_lat, -1.2 + 10 * spacing), 5.0)
    radius = (22.0 + 44.0 * (n_rows - 1) / 2.0) + 10.0
    return a, b, hg, radius


def corridor_design(n_rows, demand_gbps):
    a, b, hg, radius = corridor(n_rows)
    traffic = TrafficMatrix({(a.id, b.id): 1.0})
    d = geodesic_km(a.location, b.location)
    fiber = {pair_key(a.id, b.id): 1.5 * d}
    inp = designer.build_design_input([a, b], traffic, hg, fiber, budget=100.0,
                                      radius_km=radius)
    design = designer.solve_heuristic(inp)
    assert design.built_links == (pair_key(a.id, b.id),)
    loads = route_demand(design, traffic, demand_gbps)
    plan = augment(design, loads, hg, [a, b], radius_km=radius)
    return plan


def reference_augment(design, loads, hop_graph, sites, radius_km,
                      per_series_capacity_gbps=1.0):
    """`augment` as it was before the tower graph was shared: a fresh copy
    of the tower graph, with the link's two sites attached, per built link."""
    by_id = {s.id: s for s in sites}
    entries = []
    for link in design.built_links:
        demand = loads.mw.get(link, 0.0)
        k = series_needed(demand, per_series_capacity_gbps)
        a, b = link
        g = reference_pair_graph(hop_graph, by_id[a], by_id[b], radius_km)
        paths = tower_disjoint_paths(g, a, b, k)
        endpoints = {a, b}
        primary = [n for n in paths[0].nodes if n not in endpoints]
        primary_hops = max(0, len(primary) - 1)
        extra = paths[1:]
        towers = set(primary)
        extra_hops = []
        for p in extra:
            series = [n for n in p.nodes if n not in endpoints]
            towers.update(series)
            extra_hops.append(max(0, len(series) - 1))
        shortfall = (k - 1) - len(extra)
        entries.append(LinkAugmentation(
            link=link, demand_gbps=demand, series_count=k,
            series_found=len(extra), shortfall=shortfall,
            primary_hops=primary_hops, extra_series_hops=tuple(extra_hops),
            new_towers=shortfall * 2 * primary_hops, towers_used=tuple(sorted(towers))))
    return AugmentationPlan(tuple(entries), per_series_capacity_gbps)


def random_design(seed):
    sites, hg, radius = random_tower_instance(seed, n_towers=60, n_sites=6)
    fiber = {pair_key(a.id, b.id): 1.4 * geodesic_km(a.location, b.location)
             for i, a in enumerate(sites) for b in sites[i + 1:]}
    inp = designer.build_design_input(sites, gravity_matrix(sites), hg, fiber,
                                      budget=60.0, radius_km=radius)
    return sites, hg, radius, inp, designer.solve_heuristic(inp)


@pytest.mark.parametrize("seed", range(4))
def test_augment_matches_per_link_reference(seed):
    sites, hg, radius, inp, design = random_design(seed)
    loads = route_demand(design, inp.traffic, 40.0)
    plan = augment(design, loads, hg, sites, radius_km=radius)
    assert plan == reference_augment(design, loads, hg, sites, radius)
    assert len(plan.links) >= 5
    assert max(e.series_count for e in plan.links) >= 2
    assert any(e.series_found for e in plan.links)


def test_augment_other_sites_never_relay():
    # u-v has one tower chain q1..q4. Towers r1 (near u) and r2 (near v)
    # share no hop; only the stubs of site m, or of site z, reach both. m
    # and z end the links searched before u-v (m as the first end of one,
    # z as the second), so if either stayed attached it would give u-v a
    # second, disjoint series u, r1, m or z, r2, v.
    towers = {t.id: t for t in (
        Tower("q1", GeoPoint(0.0, 0.05), 50.0), Tower("q2", GeoPoint(-0.1, 0.12), 50.0),
        Tower("q3", GeoPoint(-0.1, 0.18), 50.0), Tower("q4", GeoPoint(0.0, 0.25), 50.0),
        Tower("r1", GeoPoint(0.08, 0.05), 50.0), Tower("r2", GeoPoint(0.08, 0.25), 50.0))}
    hops = [(a, b, geodesic_km(towers[a].location, towers[b].location))
            for a, b in (("q1", "q2"), ("q2", "q3"), ("q3", "q4"))]
    hg = hop_graph_of(towers.values(), hops)
    sites = [Site(sid, GeoPoint(lat, lon)) for sid, lat, lon in (
        ("k", 0.16, 0.05), ("m", 0.1, 0.15), ("u", 0.0, 0.0), ("v", 0.0, 0.3), ("z", 0.1, 0.16))]
    links = (("k", "m"), ("m", "z"), ("u", "v"))
    design = designer.NetworkDesign(links, {}, None, 0.0, 0.0)
    loads = capacity.LinkLoads({("k", "m"): 0.5, ("m", "z"): 0.5, ("u", "v"): 3.0}, {})
    plan = augment(design, loads, hg, sites, radius_km=13.0)
    assert plan == reference_augment(design, loads, hg, sites, 13.0)
    uv = plan.links[2]
    assert (uv.series_count, uv.series_found, uv.towers_used) == (2, 0, ("q1", "q2", "q3", "q4"))


def test_augment_repeated_hop_keeps_last_length(tmp_path):
    # A shortcut from the first to the last tower of a built link's primary
    # series, listed at 0.5 km and then reversed at 1,000 km: the later
    # length wins, so the shortcut is never taken and the plan is unchanged.
    sites, hg, radius, inp, design = random_design(0)
    loads = route_demand(design, inp.traffic, 40.0)
    plan = augment(design, loads, hg, sites, radius_km=radius)
    hops = {frozenset((a, b)) for a, b, _ in hop_rows(hg)}
    first, last = next((p[1], p[-2]) for p in map(inp.tower_paths.get, design.built_links)
                       if len(p) >= 5 and frozenset((p[1], p[-2])) not in hops)
    relisted = relisted_hops(tmp_path, hg, [(first, last, 0.5), (last, first, 1000.0)])
    assert len(relisted.hops) == len(hg.hops) + 2
    got = augment(design, loads, relisted, sites, radius_km=radius)
    assert got == reference_augment(design, loads, relisted, sites, radius) == plan


def test_augment_rejects_site_id_of_a_tower():
    sites, hg, radius, inp, design = random_design(0)
    loads = route_demand(design, inp.traffic, 40.0)
    # Give an endpoint of a built link the id of a tower.
    clash = {design.built_links[0][0]: "t007"}
    sites = [dataclasses.replace(s, id=clash.get(s.id, s.id)) for s in sites]
    links = tuple(tuple(clash.get(x, x) for x in link) for link in design.built_links)
    design = dataclasses.replace(design, built_links=links)
    with pytest.raises(ValueError, match="'t007'"):
        augment(design, loads, hg, sites, radius_km=radius)


def test_augment_low_demand_single_series():
    plan = corridor_design(2, demand_gbps=0.8)
    entry = plan.links[0]
    assert entry.series_count == 1
    assert entry.shortfall == 0
    assert plan.total_new_towers == 0


def test_augment_two_chains_available():
    plan = corridor_design(2, demand_gbps=3.0)
    entry = plan.links[0]
    assert entry.series_count == 2
    assert entry.series_found == 1
    assert entry.shortfall == 0
    assert plan.total_new_towers == 0
    assert plan.hops_by_category == {0: entry.primary_hops}


def test_augment_shortfall_charged_as_new_towers():
    plan = corridor_design(1, demand_gbps=3.0)
    entry = plan.links[0]
    assert entry.series_count == 2
    assert entry.series_found == 0
    assert entry.shortfall == 1
    assert entry.new_towers == 2 * entry.primary_hops
    assert plan.hops_by_category == {1: entry.primary_hops}


def test_augment_k_squared_invariant():
    for rows, demand in ((2, 3.9), (1, 2.5), (2, 0.2)):
        plan = corridor_design(rows, demand)
        e = plan.links[0]
        k = e.series_count
        assert k * k * plan.per_series_capacity_gbps >= e.demand_gbps
        if k > 1:
            assert (k - 1) ** 2 * plan.per_series_capacity_gbps < e.demand_gbps


def test_mw_cost_empty_design():
    plan = AugmentationPlan((), 1.0)
    report = mw_cost(plan, MwCostModel(), aggregate_gbps=0.0)
    assert report.total_usd == 0.0
    assert report.dollars_per_gb == 0.0


def test_mw_cost_single_hop_arithmetic():
    # One tower-tower hop, one series, two existing towers, 1 Gbps for the
    # 5-year default term.
    entry = LinkAugmentation(link=("aa", "bb"), demand_gbps=1.0, series_count=1,
                             series_found=0, shortfall=0, primary_hops=1,
                             extra_series_hops=(), new_towers=0,
                             towers_used=("t1", "t2"))
    plan = AugmentationPlan((entry,), 1.0)
    report = mw_cost(plan, MwCostModel(), aggregate_gbps=1.0)
    assert report.capex_usd == pytest.approx(150000.0)
    assert report.rent_usd == pytest.approx(37500.0 * 2 * 5)
    assert report.total_usd == pytest.approx(525000.0)
    seconds = 5 * capacity.SECONDS_PER_YEAR
    assert report.dollars_per_gb == pytest.approx(525000.0 / (1.0 / 8.0 * seconds))
    assert report.dollars_per_gb == pytest.approx(0.0266, abs=2e-4)


def test_mw_cost_toy_plan_spreadsheet():
    entries = (
        LinkAugmentation(("a", "b"), 2.5, 2, 1, 0, 4, (5,), 0,
                         tuple(f"ab{i}" for i in range(11))),
        LinkAugmentation(("a", "c"), 0.5, 1, 0, 0, 3, (), 0,
                         tuple(f"ac{i}" for i in range(4))),
        LinkAugmentation(("b", "c"), 5.0, 3, 1, 1, 2, (2,), 4,
                         tuple(f"bc{i}" for i in range(3))),
    )
    plan = AugmentationPlan(entries, 1.0)
    model = MwCostModel()
    report = mw_cost(plan, model, aggregate_gbps=10.0)
    radios = (4 + 5 + 0 * 4) + 3 + (2 + 2 + 1 * 2)
    new_towers = 4
    towers = 11 + 4 + 3 + new_towers
    capex = 150000.0 * radios + 100000.0 * new_towers
    rent = 37500.0 * towers * 5
    assert report.radio_hops == radios
    assert report.capex_usd == pytest.approx(capex)
    assert report.rent_usd == pytest.approx(rent)
    gb = 10.0 / 8.0 * 5 * capacity.SECONDS_PER_YEAR
    assert report.dollars_per_gb == pytest.approx((capex + rent) / gb)


def test_cost_monotone_in_aggregate():
    prev = 0.0
    for aggregate in (1.0, 2.0, 5.0, 9.0):
        plan = corridor_design(2, demand_gbps=aggregate)
        report = mw_cost(plan, MwCostModel(), aggregate)
        assert report.total_usd >= prev
        prev = report.total_usd


def test_plan_serialization(tmp_path):
    plan = corridor_design(2, demand_gbps=3.0)
    report = mw_cost(plan, MwCostModel(), 3.0)
    jpath = tmp_path / "plan.json"
    cpath = tmp_path / "cats.csv"
    capacity.plan_to_json(plan, report, str(jpath))
    capacity.plan_categories_csv(plan, str(cpath))
    import json
    doc = json.loads(jpath.read_text())
    assert doc["total_new_towers"] == 0
    assert "cost" in doc
    lines = cpath.read_text().strip().splitlines()
    assert len(lines) == 1 + len(plan.links)
