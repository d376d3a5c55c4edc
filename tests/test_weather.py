import math
import os
import re
import sys

import numpy as np
import pytest

from lightwan import designer, los, weather
from lightwan.designer import DesignInput, HybridEvaluator, evaluate_design
from lightwan.geo import GeoPoint, Site, geodesic_km, write_csv
from lightwan.graphcore import distance_matrix
from lightwan.los import TerrainGrid
from lightwan.traffic import PairIndex, TrafficMatrix, pair_key
from lightwan.weather import (
    AttenuationModel, IntervalResult, WeatherReport, failed_links, rain_attenuation_db,
    reroute_and_stats, select_intervals,
)

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from dict_stats import reference_stretch_stats, reference_weighted_quantile  # noqa: E402


def test_attenuation_zero_rain():
    assert rain_attenuation_db(10.0, 0.0) == 0.0


def test_attenuation_direct_evaluation():
    got = rain_attenuation_db(10.0, 25.0, AttenuationModel())
    assert got == pytest.approx(0.01217 * 25.0 ** 1.2571 * 10.0, rel=1e-12)
    assert got == pytest.approx(6.96, abs=0.01)


def test_attenuation_linear_in_length():
    a = rain_attenuation_db(10.0, 12.0)
    b = rain_attenuation_db(20.0, 12.0)
    assert b == pytest.approx(2 * a, rel=1e-12)


def test_attenuation_model_validation():
    with pytest.raises(ValueError):
        AttenuationModel(alpha=0.0)
    with pytest.raises(ValueError):
        AttenuationModel(fail_threshold_db=0.0)
    with pytest.raises(ValueError):
        rain_attenuation_db(-1.0, 5.0)


# --- a small hybrid design with recorded tower paths -------------------------

def hexagon_instance():
    """Six sites on a ring; MW links on four pairs with synthetic 2-hop
    tower chains, fiber everywhere along the ring."""
    sites = [Site(f"s{i}", GeoPoint(0.5 * i, 1.0 + 0.3 * (i % 3)), float(i + 1))
             for i in range(6)]
    ids = sorted(s.id for s in sites)
    loc = {s.id: s.location for s in sites}
    d = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            d[(a, b)] = geodesic_km(loc[a], loc[b])
    conduit = {}
    for i in range(6):
        key = pair_key(ids[i], ids[(i + 1) % 6])
        conduit[key] = d[key] * 1.3
    # metric closure of the ring
    import itertools
    o = {}
    for a, b in itertools.combinations(ids, 2):
        best = math.inf
        n = len(ids)
        ia, ib = ids.index(a), ids.index(b)
        # two ways around the ring
        for direction in (1, -1):
            total = 0.0
            i = ia
            while i != ib:
                j = (i + direction) % n
                total += conduit[pair_key(ids[i], ids[j])]
                i = j
            best = min(best, total)
        o[(a, b)] = best * 1.5
    mw_pairs = [("s0", "s3"), ("s1", "s4"), ("s2", "s5"), ("s0", "s2")]
    m, c, tower_paths, coords = {}, {}, {}, dict(loc)
    for idx, (a, b) in enumerate(mw_pairs):
        key = pair_key(a, b)
        m[key] = d[key] * 1.02
        c[key] = 2.0
        mid1 = GeoPoint((loc[a].lat * 2 + loc[b].lat) / 3, (loc[a].lon * 2 + loc[b].lon) / 3)
        mid2 = GeoPoint((loc[a].lat + loc[b].lat * 2) / 3, (loc[a].lon + loc[b].lon * 2) / 3)
        t1, t2 = f"tw{idx}a", f"tw{idx}b"
        coords[t1], coords[t2] = mid1, mid2
        tower_paths[key] = (key[0], t1, t2, key[1])
    traffic = TrafficMatrix({(a, b): 1.0 for a, b in d})
    inp = DesignInput(sites, traffic, d, m, c, o, budget=8.0, tower_paths=tower_paths)
    design = evaluate_design(HybridEvaluator(inp), sorted(m))
    return inp, design, coords


def failure_sets(design, inp, coords, frames):
    return [failed for _, failed in failed_links(design, inp.tower_paths, coords, frames)]


def test_failed_links_zero_rain_empty():
    inp, design, coords = hexagon_instance()
    assert failure_sets(design, inp, coords, [("t0", {})]) == [set()]


def test_failed_links_extreme_rain_everywhere():
    inp, design, coords = hexagon_instance()
    rates = {weather.link_id(p): 500.0 for p in design.built_links}
    assert failure_sets(design, inp, coords, [("t0", rates)]) == [set(design.built_links)]


def test_failed_links_single_target():
    inp, design, coords = hexagon_instance()
    victim = design.built_links[0]
    frames = [("t0", {weather.link_id(victim): 400.0})]
    assert failure_sets(design, inp, coords, frames) == [{victim}]


def test_failed_links_raster_rain_cell_over_one_hop():
    inp, design, coords = hexagon_instance()
    victim = design.built_links[0]
    chain = inp.tower_paths[victim]
    hop_mid_lat = (coords[chain[1]].lat + coords[chain[2]].lat) / 2
    hop_mid_lon = (coords[chain[1]].lon + coords[chain[2]].lon) / 2
    rain = np.zeros((120, 120))
    # Storm cell: intense rain in a small block centred on the hop.
    i = int((hop_mid_lat + 2.0) / 0.05)  # rows from the bottom
    j = int((hop_mid_lon + 2.0) / 0.05)
    rain[max(0, 120 - 1 - i - 4):120 - 1 - i + 5, max(0, j - 4):j + 5] = 300.0
    grid = TerrainGrid(rain, -2.0, -2.0, 0.05)
    [failed] = failure_sets(design, inp, coords, [("t0", grid)])
    assert victim in failed


def reference_failed_links(design, tower_paths, coords, frames, model=AttenuationModel()):
    """The per-hop loop that `failed_links` replaced: each hop's rain is the
    `np.mean` of its own raster samples, or its link's rate in a CSV frame
    (absent links dry), and the fade-margin test runs on Python floats.
    Returns per frame (timestamp, failed links, per-hop rates in built-link
    then chain order)."""
    out = []
    for t, rain in frames:
        failed, rates = set(), []
        for pair in design.built_links:
            chain = tower_paths[pair]
            for u, v in zip(chain, chain[1:]):
                a, b = coords[u], coords[v]
                km = geodesic_km(a, b)
                if isinstance(rain, TerrainGrid):
                    lats, lons, _ = los._path_samples(a, b, max(1, math.ceil(km)))
                    rate = float(np.mean(rain.sample_many(lats, lons)))
                else:
                    rate = rain.get(weather.link_id(pair), 0.0)
                rates.append(rate)
                if rain_attenuation_db(km, rate, model) > model.fail_threshold_db:
                    failed.add(pair)
        out.append((t, failed, rates))
    return out


def assert_failed_links_match_reference(inp, design, coords, frames):
    """`failed_links` against `reference_failed_links`: the same failure
    set per frame, in frame order, from bitwise the same per-hop rates (as
    they reach `rain_attenuation_db`); returns the failure sets."""
    want = reference_failed_links(design, inp.tower_paths, coords, frames)
    rates = []
    original = weather.rain_attenuation_db

    def recorded(km, rate, model):
        rates.append(rate)
        return original(km, rate, model)

    got = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(weather, "rain_attenuation_db", recorded)
        for t, failed in failed_links(design, inp.tower_paths, coords, frames):
            got.append((t, failed, rates[:]))
            rates.clear()
    assert [(t, f) for t, f, _ in got] == [(t, f) for t, f, _ in want]
    for (t, _, a), (_, _, b) in zip(got, want):
        assert all(type(r) is float for r in a), t
        assert [r.hex() for r in a] == [r.hex() for r in b], t
    return [f for _, f, _ in got]


@pytest.mark.parametrize("seed", range(3))
def test_failed_links_matches_reference_on_random_rasters(seed):
    # Storm levels from drizzle to downpour, so sets run from empty to all.
    inp, design, coords = hexagon_instance()
    rng = np.random.default_rng(seed)
    frames = [(f"t{k}", TerrainGrid(rng.uniform(0.0, top, (120, 120)), -2.0, -2.0, 0.05))
              for k, top in enumerate(np.linspace(10.0, 80.0, 8).tolist())]
    sets = assert_failed_links_match_reference(inp, design, coords, frames)
    assert set() in sets and set(design.built_links) in sets
    assert any(0 < len(f) < len(design.built_links) for f in sets)


def test_failed_links_matches_reference_at_the_fade_margin():
    # Each link's rate is the one at which its longest hop just meets the
    # margin, or a float either side of it: only a hop strictly past the
    # margin fails its link.
    inp, design, coords = hexagon_instance()
    model = AttenuationModel()
    margin = {}
    for pair in design.built_links:
        chain = inp.tower_paths[pair]
        km = max(geodesic_km(coords[u], coords[v]) for u, v in zip(chain, chain[1:]))
        margin[weather.link_id(pair)] = (
            model.fail_threshold_db / (model.k_coeff * km)) ** (1.0 / model.alpha)
    frames = []
    for k, step in enumerate((-math.inf, 0.0, math.inf)):
        frames.append((f"t{k}", {lid: math.nextafter(r, step) if step else r
                                 for lid, r in margin.items()}))
    frames.append(("t3", {lid: r for lid, r in list(margin.items())[::2]}))
    sets = assert_failed_links_match_reference(inp, design, coords, frames)
    assert sets[0] == set() and sets[2] == set(design.built_links)


def test_raster_hop_samples_once_per_hop_bitwise(monkeypatch):
    # Several frames over the same hops: each hop's great-circle samples are
    # computed once, and every frame reads exactly what a per-frame
    # recomputation reads.
    inp, design, coords = hexagon_instance()
    rng = np.random.default_rng(5)
    frames = [(f"t{k}", TerrainGrid(rng.uniform(0.0, 200.0, (120, 120)), -2.0, -2.0, 0.05))
              for k in range(4)]
    hops = {(coords[u], coords[v]) for pair in design.built_links
            for u, v in zip(inp.tower_paths[pair], inp.tower_paths[pair][1:])}
    calls = []

    def counted(a, b, n):
        calls.append((a, b))
        return los._path_samples(a, b, n)

    monkeypatch.setattr(weather, "_path_samples", counted)
    assert_failed_links_match_reference(inp, design, coords, frames)
    assert len(calls) == len(hops) > 4
    assert set(calls) == hops


def test_failed_links_names_the_frame_and_link_a_raster_misses():
    inp, design, coords = hexagon_instance()
    covered = TerrainGrid(np.full((120, 120), 5.0), -2.0, -2.0, 0.05)
    victim = design.built_links[-1]
    # The last link's first tower sits in a NODATA cell; the other grid is far away.
    holed = np.full((120, 120), 5.0)
    tower = coords[inp.tower_paths[victim][1]]
    holed[119 - int((tower.lat + 2.0) / 0.05), int((tower.lon + 2.0) / 0.05)] = -9999.0
    frames = [("t0", covered), ("t1", TerrainGrid(holed, -2.0, -2.0, 0.05))]
    lid = weather.link_id(victim)
    with pytest.raises(ValueError, match=f"^{re.escape(f'rain frame t1: link {lid!r}: ')}"
                                         "sample touches NODATA cells$"):
        failure_sets(design, inp, coords, frames)
    away = [("t2", TerrainGrid(np.zeros((2, 2)), 100.0, 0.0, 1.0))]
    first = weather.link_id(design.built_links[0])
    with pytest.raises(ValueError, match=f"^{re.escape(f'rain frame t2: link {first!r}: ')}"
                                         "sample outside terrain bounds$"):
        failure_sets(design, inp, coords, away)


def test_failed_links_without_built_links_reads_rasters():
    inp, _, coords = hexagon_instance()
    design = evaluate_design(HybridEvaluator(inp), [])
    grid = TerrainGrid(np.zeros((2, 2)), 100.0, 0.0, 1.0)
    assert failure_sets(design, inp, coords, [("t0", grid), ("t1", {})]) == [set(), set()]


def per_pair(report, k):
    """Interval k's stretch row as a dict by pair."""
    return dict(zip(report.pairs.pairs, report.intervals[k].per_pair_stretch.tolist()))


def test_reroute_no_failures_equals_baseline_bit_exact():
    inp, design, coords = hexagon_instance()
    report = reroute_and_stats(inp, design, [("t0", set())])
    got = per_pair(report, 0)
    for pair, route in design.routes.items():
        assert got[pair] == route.stretch  # bit-exact
    assert report.intervals[0].stats.mean == design.stats.mean


def test_reroute_all_failed_equals_fiber_only_bit_exact():
    inp, design, coords = hexagon_instance()
    fiber_only = evaluate_design(HybridEvaluator(inp), [])
    report = reroute_and_stats(inp, design, [("t0", set(design.built_links))])
    got = per_pair(report, 0)
    for pair, route in fiber_only.routes.items():
        assert got[pair] == route.stretch
    assert report.intervals[0].stats.mean == fiber_only.stats.mean


def test_reroute_single_failure_matches_hand_recomputation():
    inp, design, coords = hexagon_instance()
    victim = design.built_links[0]
    report = reroute_and_stats(inp, design, [("t0", {victim})])
    got = per_pair(report, 0)
    # Oracle: its own Dijkstra over the surviving hybrid adjacency.
    import heapq
    adj: dict[str, dict[str, float]] = {s: {} for s in inp.site_ids}
    for (a, b), o in inp.fiber_km_eq.items():
        adj[a][b] = min(adj[a].get(b, math.inf), o)
        adj[b][a] = adj[a][b]
    for pair in design.built_links:
        if pair == victim:
            continue
        a, b = pair
        w = inp.mw_km[pair]
        if w < adj[a].get(b, math.inf):
            adj[a][b] = adj[b][a] = w
    for src in inp.site_ids:
        dist = {src: 0.0}
        heap = [(0.0, src)]
        seen = set()
        while heap:
            dval, u = heapq.heappop(heap)
            if u in seen:
                continue
            seen.add(u)
            for v, w in adj[u].items():
                nd = dval + w
                if nd < dist.get(v, math.inf):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        for (a, b), s in got.items():
            if a == src:
                assert s == pytest.approx(dist[b] / inp.geodesic[(a, b)], rel=1e-12)


def test_stretch_monotone_under_failure_inclusion():
    inp, design, coords = hexagon_instance()
    rng = np.random.default_rng(4)
    links = list(design.built_links)
    fair = {p: r.stretch for p, r in design.routes.items()}
    fiber_only = {p: r.stretch for p, r in evaluate_design(HybridEvaluator(inp), []).routes.items()}
    for _ in range(50):
        size_small = int(rng.integers(0, len(links)))
        small = set(rng.choice(len(links), size=size_small, replace=False))
        extra = set(rng.choice(len(links), size=int(rng.integers(0, len(links))), replace=False))
        big = small | extra
        report = reroute_and_stats(inp, design, [
            ("a", {links[i] for i in small}), ("b", {links[i] for i in big})])
        sa, sb = per_pair(report, 0), per_pair(report, 1)
        for pair in sa:
            assert sb[pair] >= sa[pair] - 1e-12          # superset is never better
            assert sa[pair] >= fair[pair] - 1e-12        # never beats fair weather
            assert sa[pair] <= fiber_only[pair] + 1e-12  # fiber backstop


def test_select_intervals_deterministic_and_daily():
    stamps = [f"2015-07-{d:02d}T{h:02d}:00" for d in range(1, 6) for h in range(24)]
    a = select_intervals(stamps, per_day=1, seed=3)
    b = select_intervals(stamps, per_day=1, seed=3)
    assert a == b
    assert len(a) == 5
    assert [t[:10] for t in a] == sorted({t[:10] for t in stamps})
    c = select_intervals(stamps, per_day=2, seed=3)
    assert len(c) == 10


def test_csv_outputs(tmp_path):
    inp, design, coords = hexagon_instance()
    report = reroute_and_stats(inp, design, [("t0", set()), ("t1", {design.built_links[0]})])
    ip = tmp_path / "intervals.csv"
    pp = tmp_path / "pct.csv"
    weather.write_intervals_csv(report, str(ip))
    weather.write_percentiles_csv(report, str(pp))
    lines = ip.read_text().strip().splitlines()
    assert lines[0] == "timestamp,pair,stretch"
    assert len(lines) == 1 + 2 * len(design.routes)
    pct = pp.read_text().strip().splitlines()
    assert pct[0] == "pair,min,median,p95,p99,max"
    assert len(pct) == 1 + len(design.routes)


def test_rain_csv_loader(tmp_path):
    p = tmp_path / "rain.csv"
    p.write_text("timestamp,link_id,rain_mm_h\n2015-07-01T10:00,s0|s3,25.0\n"
                 "2015-07-01T09:00,s1|s4,0\n")
    sites = ["s0", "s1", "s3", "s4"]
    assert weather.load_rain_csv(str(p), sites) == {"2015-07-01T10:00": {"s0|s3": 25.0},
                                                    "2015-07-01T09:00": {"s1|s4": 0.0}}


def test_rain_csv_loader_stores_link_ids_in_canonical_order(tmp_path):
    # A reversed id is the same link; a pair of sites with no built link is
    # read too and stays dry.
    p = tmp_path / "rain.csv"
    p.write_text("timestamp,link_id,rain_mm_h\nt0,cb|ca,80.0\nt0,cc|cb,65.0\nt1,ca|cc,5\n")
    assert weather.load_rain_csv(str(p), ["ca", "cb", "cc"]) == {
        "t0": {"ca|cb": 80.0, "cb|cc": 65.0}, "t1": {"ca|cc": 5.0}}


@pytest.mark.parametrize("lid", ["ca", "ca|cb|cc", "ca|ca", "ca|cx", "|ca", "ca cb"])
def test_rain_csv_loader_rejects_a_link_id_not_two_sites(tmp_path, lid):
    p = tmp_path / "rain.csv"
    p.write_text(f"timestamp,link_id,rain_mm_h\nt0,ca|cb,1.0\nt0,{lid},2.0\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: line 3: link "
                                         rf"{re.escape(repr(lid))}: a link id must be two "
                                         rf"distinct sites of the instance joined by '\|'$"):
        weather.load_rain_csv(str(p), ["ca", "cb", "cc"])


@pytest.mark.parametrize("rate", ["nan", "inf", "-5", "-0.1"])
def test_rain_csv_loader_rejects_a_rate_not_finite_and_non_negative(tmp_path, rate):
    p = tmp_path / "rain.csv"
    p.write_text(f"timestamp,link_id,rain_mm_h\nt0,a|b,1.0\nt0,a|c,{rate}\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: line 3: link 'a\|c': "
                                         rf"rain_mm_h {re.escape(rate)} must be finite and >= 0$"):
        weather.load_rain_csv(str(p), ["a", "b", "c"])


def reference_reroute_and_stats(inp, design, failures_by_interval):
    """The per-interval loop that `reroute_and_stats` replaced, with the
    per-pair dicts and dict statistics of that time: one reroute per
    interval, repeated failure sets included. Returns per interval
    (timestamp, failed links, stretch by pair, stats)."""
    intervals = []
    ids = inp.site_ids
    for t, failed in failures_by_interval:
        failed_tuple = tuple(sorted(set(failed)))
        ev = HybridEvaluator(inp)
        dist = distance_matrix(ev.graph_for(
            [p for p in design.built_links if p not in failed_tuple])).tolist()
        per_pair = {(s, u): dist[i][j] / inp.geodesic[(s, u)]
                    for i, s in enumerate(ids) for j, u in enumerate(ids) if i < j}
        finite = {k: v for k, v in per_pair.items() if math.isfinite(v)}
        if not finite:
            raise ValueError(f"interval {t}: no connected pairs")
        stats = reference_stretch_stats(finite, inp.traffic, len(per_pair) - len(finite))
        intervals.append((t, failed_tuple, per_pair, stats))
    return intervals


def assert_report_matches_reference(got, want):
    """A report against `reference_reroute_and_stats`, field by field (an
    array row has no `==`); the rows of one failure set are one read-only
    array."""
    assert len(got.intervals) == len(want)
    rows = {}
    for interval, (t, failed, stretch, stats) in zip(got.intervals, want):
        assert (interval.timestamp, interval.failed, interval.stats) == (t, failed, stats)
        assert interval.stats.mean.hex() == stats.mean.hex()
        assert dict(zip(got.pairs.pairs, interval.per_pair_stretch.tolist())) == stretch
        assert not interval.per_pair_stretch.flags.writeable
        assert rows.setdefault(failed, interval.per_pair_stretch) is interval.per_pair_stretch


def assert_one_reroute_per_failure_set(monkeypatch, inp, design, rain, coords):
    """`analyze` over the frames of `rain` ({timestamp: frame}) in time
    order equals the per-interval oracle on `reference_failed_links`, and
    reroutes each distinct failure set once, all over one evaluator;
    returns the report."""
    times = sorted(rain)
    want = reference_reroute_and_stats(inp, design, [
        (t, failed) for t, failed, _ in reference_failed_links(
            design, inp.tower_paths, coords, [(t, rain[t]) for t in times])])
    calls = []
    original = weather.stretch_under_failures

    def counted(ev, design, failed):
        calls.append(tuple(failed))
        return original(ev, design, failed)

    evaluators = []

    class Counted(HybridEvaluator):
        def __init__(self, inp):
            evaluators.append(inp)
            super().__init__(inp)

    monkeypatch.setattr(weather, "stretch_under_failures", counted)
    monkeypatch.setattr(weather, "HybridEvaluator", Counted)
    got = weather.analyze(inp, design, ((t, rain[t]) for t in times), coords)
    assert evaluators == [inp]
    assert_report_matches_reference(got, want)
    assert [i.timestamp for i in got.intervals] == times
    distinct = {i.failed for i in got.intervals}
    assert len(calls) == len(distinct) < len(times)
    assert set(calls) == distinct
    return got


def test_reroute_once_per_distinct_failure_set(monkeypatch):
    inp, design, coords = hexagon_instance()
    links = [weather.link_id(p) for p in design.built_links]
    patterns = [{}, {links[0]: 400.0}, {links[1]: 300.0, links[2]: 500.0}, {links[0]: 1.0}]
    series = {f"2015-07-01T{h:02d}:00": patterns[h * 7 % 4] for h in range(12)}
    report = assert_one_reroute_per_failure_set(monkeypatch, inp, design, series, coords)
    # Dry and drizzle hours share the no-failure result.
    assert {i.failed for i in report.intervals} == {
        (), (design.built_links[0],), tuple(sorted(design.built_links[1:3]))}


def synthetic_report(seed, n_sites=6, n_intervals=9):
    """A report over random rows with ties, a cut pair (inf) in some
    intervals, and intervals sharing rows; the stats are not read."""
    rng = np.random.default_rng(seed)
    pairs = PairIndex([f"s{i}" for i in range(n_sites)])
    rows = np.round(rng.uniform(1.0, 2.0, (4, len(pairs.pairs))) * 10.0) / 10.0
    rows[1, 2] = rows[3, 0] = np.inf
    picks = rng.integers(0, len(rows), n_intervals)
    return WeatherReport(tuple(IntervalResult(f"t{k}", (), rows[r], None)
                               for k, r in enumerate(picks.tolist())), pairs)


@pytest.mark.parametrize("seed", range(4))
def test_pair_percentiles_and_csvs_equal_the_dict_form(seed, tmp_path):
    # The columns of the (intervals x pairs) array against a per-pair
    # series and the loop quantile, and both CSVs against rows written from
    # dicts by pair, as before: byte for byte.
    report = synthetic_report(seed, n_intervals=3 + 5 * seed)
    series = {p: [] for p in report.pairs.pairs}
    for interval in report.intervals:
        for p, s in zip(report.pairs.pairs, interval.per_pair_stretch.tolist()):
            series[p].append(s)
    want = {}
    for p, values in sorted(series.items()):
        w = [1.0] * len(values)
        want[p] = [min(values), *(reference_weighted_quantile(values, w, q)
                                   for q in (0.5, 0.95, 0.99)), max(values)]
    table = report.pair_percentiles()
    assert table.shape == (5, len(report.pairs.pairs))
    for p, column in zip(report.pairs.pairs, table.T.tolist()):
        assert [v.hex() for v in column] == [v.hex() for v in want[p]], p
    weather.write_intervals_csv(report, str(tmp_path / "got_i.csv"))
    weather.write_percentiles_csv(report, str(tmp_path / "got_p.csv"))
    write_csv(str(tmp_path / "want_i.csv"), "timestamp,pair,stretch",
              ([i.timestamp, weather.link_id(p), repr(s)] for i in report.intervals
               for p, s in sorted(zip(report.pairs.pairs, i.per_pair_stretch.tolist()))))
    write_csv(str(tmp_path / "want_p.csv"), "pair,min,median,p95,p99,max",
              ([weather.link_id(p), *map(repr, row)] for p, row in want.items()))
    for name in ("i", "p"):
        got = (tmp_path / f"got_{name}.csv").read_text()
        assert got == (tmp_path / f"want_{name}.csv").read_text()
        assert "np." not in got and "inf" in got


def test_report_without_intervals_writes_headers_only(tmp_path):
    report = WeatherReport((), PairIndex(["a", "b", "c"]))
    weather.write_intervals_csv(report, str(tmp_path / "i.csv"))
    weather.write_percentiles_csv(report, str(tmp_path / "p.csv"))
    assert (tmp_path / "i.csv").read_text().splitlines() == ["timestamp,pair,stretch"]
    assert (tmp_path / "p.csv").read_text().splitlines() == ["pair,min,median,p95,p99,max"]
