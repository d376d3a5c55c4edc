import dataclasses
import math
import os
import re
import sys

import numpy as np
import pytest

from lightwan import los
from lightwan.geo import GeoPoint, geodesic_km
from lightwan.los import LosParams, TerrainGrid, Tower

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from dict_graph import hop_rows  # noqa: E402

KM_PER_DEG = math.pi * 6371.0 / 180.0  # equatorial degree of longitude


def flat_terrain(elevation=0.0, half_extent_deg=3.0, cellsize=0.05):
    n = int(2 * half_extent_deg / cellsize)
    return TerrainGrid(np.full((n, n), elevation), -half_extent_deg, -half_extent_deg, cellsize)


def tower_at(tid, lat, lon, height=100.0, ground=0.0):
    return Tower(tid, GeoPoint(lat, lon), height, ground)


def sample_at(grid, point):
    return float(grid.sample_many([point.lat], [point.lon])[0])


def hop_feasible(a, b, terrain, p):
    """One a-b hop through the batched kernel: both towers inside the
    terrain (else the error `build_hop_graph` raises), within range, and
    clear by `los._clearance`, towers in the given order."""
    for t in (a, b):
        if not terrain.contains(t.location):
            raise ValueError(f"tower {t.id!r} outside terrain bounds")
    d_km = geodesic_km(a.location, b.location)
    if d_km > p.max_range_km:
        return False
    return bool(los._clearance([a, b], np.array([0]), np.array([1]), np.array([d_km]),
                               terrain, p)[0])


def terms(d1, d2, d, f_ghz=11.0, k_factor=1.3):
    """(bulge, Fresnel width) of `los.clearance_terms_m`; on arrays, a
    zero-length hop's Fresnel width (0/0) reads nan without a warning."""
    with np.errstate(invalid="ignore"):
        return los.clearance_terms_m(d1, d2, d, LosParams(f_ghz=f_ghz, k_factor=k_factor))


def test_fresnel_paper_value():
    # Mid-hop of a 1 km hop at 1 GHz.
    assert terms(0.5, 0.5, 1.0, f_ghz=1.0)[1] == pytest.approx(8.7, rel=1e-12)


def test_fresnel_zero_distance():
    # Zero distance from either end of the hop.
    assert terms(0.0, 37.0, 37.0)[1] == 0.0
    assert terms(37.0, 0.0, 37.0)[1] == 0.0


def test_fresnel_direct_evaluation():
    assert terms(50.0, 50.0, 100.0)[1] == pytest.approx(8.7 * 10.0 / math.sqrt(11.0), rel=1e-12)


def test_fresnel_monotone_and_continuous_at_zero():
    # Mid-hop, over hop lengths up to 120 km (the function takes d_km > 0).
    d = np.linspace(0.0, 120.0, 200)[1:]
    assert np.all(np.diff(terms(d / 2.0, d / 2.0, d)[1]) >= 0.0)
    assert terms(0.5e-12, 0.5e-12, 1e-12)[1] < 1e-5


def test_fresnel_rejects_bad_inputs():
    with pytest.raises(ValueError, match="f_ghz"):
        LosParams(f_ghz=-1.0)
    with pytest.raises(ValueError, match="f_ghz"):
        LosParams(f_ghz=0.0)


def test_bulge_paper_midpoint_value():
    v = terms(0.5, 0.5, 1.0, k_factor=1.0)[0]
    assert 0.0195 <= v <= 0.0200


def test_bulge_endpoint_zero():
    assert terms(0.0, 37.0, 37.0)[0] == 0.0


def test_bulge_direct_evaluation():
    assert terms(50.0, 50.0, 100.0)[0] == pytest.approx(2500.0 / (12.74 * 1.3), rel=1e-12)


def test_bulge_monotone_in_distance():
    d = np.linspace(0.0, 50.0, 100)
    v = terms(d, d, 2.0 * d)[0]
    assert v[0] == 0.0 and np.all(np.diff(v) > 0.0)


def test_bulge_rejects_negative():
    with pytest.raises(ValueError, match="k_factor"):
        LosParams(k_factor=-0.1)


def test_terrain_bilinear_interpolation():
    # Linear-in-x surface is reproduced exactly by bilinear sampling.
    vals = np.tile(np.arange(10, dtype=float), (10, 1)) * 10.0
    grid = TerrainGrid(vals, 0.0, 0.0, 0.1)
    mid = sample_at(grid, GeoPoint(0.5, 0.35))
    assert mid == pytest.approx(30.0, rel=1e-12)
    with pytest.raises(ValueError):
        sample_at(grid, GeoPoint(0.5, 2.0))


def test_terrain_nodata_rejected_on_sample():
    vals = np.zeros((4, 4))
    vals[2, 2] = -9999.0
    grid = TerrainGrid(vals, 0.0, 0.0, 0.1, nodata=-9999.0)
    with pytest.raises(ValueError):
        sample_at(grid, GeoPoint(0.15, 0.25))


def test_load_terrain_asc(tmp_path):
    p = tmp_path / "t.asc"
    p.write_text(
        "ncols 3\nnrows 2\nxllcorner -1.0\nyllcorner -1.0\ncellsize 1.0\n"
        "NODATA_value -9999\n"
        "5 6 7\n1 2 3\n")
    g = los.load_terrain_asc(str(p))
    assert g.ncols == 3 and g.nrows == 2
    # Row 0 of the file is the northern row.
    assert sample_at(g, GeoPoint(-0.5, -0.5)) == pytest.approx(1.0)
    assert sample_at(g, GeoPoint(0.5, -0.5)) == pytest.approx(5.0)


def test_hop_feasible_flat_terrain():
    terr = flat_terrain()
    a = tower_at("a", 0.0, 0.0)
    b = tower_at("b", 0.0, 10.0 / KM_PER_DEG)
    assert geodesic_km(a.location, b.location) == pytest.approx(10.0, rel=1e-3)
    assert hop_feasible(a, b, terr, LosParams())


def test_hop_blocked_by_ridge():
    terr = flat_terrain()
    # 200 m ridge column at the midpoint of the 10 km hop.
    lon_mid = 5.0 / KM_PER_DEG
    j = int((lon_mid - terr.xllcorner) / terr.cellsize)
    terr.values[:, j - 1:j + 2] = 200.0
    a = tower_at("a", 0.0, 0.0)
    b = tower_at("b", 0.0, 10.0 / KM_PER_DEG)
    assert not hop_feasible(a, b, terr, LosParams())


def test_hop_range_gate():
    terr = flat_terrain(half_extent_deg=1.0, cellsize=0.05)
    a = tower_at("a", 0.0, 0.0, height=500.0)
    b = tower_at("b", 0.0, 101.0 / KM_PER_DEG)
    assert not hop_feasible(a, b, terr, LosParams(max_range_km=100.0))


def test_hop_outside_terrain_raises():
    terr = flat_terrain(half_extent_deg=0.5)
    a = tower_at("a", 0.0, 0.0)
    b = tower_at("b", 0.0, 2.0)
    with pytest.raises(ValueError, match="tower 'b' outside terrain bounds"):
        hop_feasible(a, b, terr, LosParams())
    with pytest.raises(ValueError, match="tower 'b' outside terrain bounds"):
        los.build_hop_graph([a, b], terr, LosParams(max_range_km=300.0))


def test_hop_symmetry_random_pairs():
    rng = np.random.default_rng(21)
    terr = flat_terrain()
    terr.values[:] = rng.uniform(0.0, 60.0, size=terr.values.shape)
    params = LosParams(sample_step_m=200.0)
    for _ in range(40):
        a = tower_at("a", float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)),
                     height=float(rng.uniform(40, 120)),
                     ground=float(rng.uniform(0, 50)))
        b = tower_at("b", float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)),
                     height=float(rng.uniform(40, 120)),
                     ground=float(rng.uniform(0, 50)))
        assert hop_feasible(a, b, terr, params) == hop_feasible(b, a, terr, params)


def test_hop_monotone_in_constraints():
    # Tightening height fraction, range, or raising terrain can only lose hops.
    rng = np.random.default_rng(5)
    terr = flat_terrain()
    terr.values[:] = rng.uniform(0.0, 40.0, size=terr.values.shape)
    raised = flat_terrain()
    raised.values[:] = terr.values + rng.uniform(0.0, 40.0, size=terr.values.shape)
    towers = [tower_at(f"t{i}", float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)),
                       height=float(rng.uniform(30, 90))) for i in range(12)]
    loose = LosParams(sample_step_m=150.0)
    for tight in (LosParams(sample_step_m=150.0, usable_height_fraction=0.5),
                  LosParams(sample_step_m=150.0, max_range_km=40.0)):
        for i, a in enumerate(towers):
            for b in towers[i + 1:]:
                if hop_feasible(a, b, terr, tight):
                    assert hop_feasible(a, b, terr, loose)
    for i, a in enumerate(towers):
        for b in towers[i + 1:]:
            if hop_feasible(a, b, raised, loose):
                assert hop_feasible(a, b, terr, loose)


def test_build_hop_graph_single_tower():
    terr = flat_terrain()
    hg = los.build_hop_graph([tower_at("solo", 0.0, 0.0)], terr, LosParams())
    assert len(hg.hops) == 0


def test_build_hop_graph_collinear_range_arithmetic():
    terr = flat_terrain(half_extent_deg=2.5, cellsize=0.1)
    spacing = 60.0 / KM_PER_DEG
    towers = [tower_at(f"t{i}", 0.0, (i - 1) * spacing, height=400.0) for i in range(3)]
    hg = los.build_hop_graph(towers, terr, LosParams(max_range_km=100.0))
    edges = {(a, b) for a, b, _ in hop_rows(hg)}
    assert edges == {("t0", "t1"), ("t1", "t2")}


def test_hop_graph_equality_compares_towers_and_hop_rows():
    terr = flat_terrain(half_extent_deg=2.5, cellsize=0.1)
    spacing = 60.0 / KM_PER_DEG
    towers = [tower_at(f"t{i}", 0.0, (i - 1) * spacing, height=400.0) for i in range(3)]
    hg = los.build_hop_graph(towers, terr, LosParams(max_range_km=100.0))
    assert len(hg.hops) == 2
    same = los.HopGraph(dict(hg.towers), hg.hops.copy())
    assert same == hg and not same != hg
    longer = hg.hops.copy()
    longer["km"][0] += 1e-9
    assert los.HopGraph(hg.towers, longer) != hg
    assert los.HopGraph(hg.towers, hg.hops[:1]) != hg
    zeros = np.zeros(2, los.HOP_DTYPE)
    assert los.HopGraph({}, zeros) == los.HopGraph({}, zeros.copy())
    assert los.HopGraph({"t0": towers[0]}, hg.hops) != hg
    assert hg != (hg.towers, hg.hops)


def test_build_hop_graph_matches_bruteforce():
    rng = np.random.default_rng(33)
    terr = flat_terrain()
    terr.values[:] = rng.uniform(0.0, 80.0, size=terr.values.shape)
    towers = []
    for i in range(10):
        for j in range(10):
            towers.append(tower_at(f"g{i}{j}", -0.9 + 0.2 * i, -0.9 + 0.2 * j,
                                   height=float(rng.uniform(25, 110))))
    params = LosParams(sample_step_m=250.0, max_range_km=40.0)
    hg = los.build_hop_graph(towers, terr, params)
    expected = set()
    for i, a in enumerate(towers):
        for b in towers[i + 1:]:
            if hop_feasible(a, b, terr, params):
                key = (min(a.id, b.id), max(a.id, b.id))
                expected.add(key)
    got = {(a, b) for a, b, _ in hop_rows(hg)}
    assert got == expected


@pytest.mark.parametrize("height, ground, field", [
    (math.nan, 0.0, "height"), (math.inf, 0.0, "height"), (0.0, 0.0, "height"),
    (95.0, math.nan, "ground elevation"), (95.0, -math.inf, "ground elevation")])
def test_tower_needs_a_finite_height_above_zero_and_a_finite_ground(height, ground, field):
    with pytest.raises(ValueError, match=f"tower 't1': {field} must be"):
        Tower("t1", GeoPoint(0.0, 0.0), height, ground)


def test_cull_all_below_height():
    towers = [tower_at(f"t{i}", 0.0, 0.1 * i, height=50.0) for i in range(5)]
    assert los.cull_towers(towers, 100.0, 0.5, 50, seed=1) == []


def test_cull_under_threshold_keeps_all():
    towers = [tower_at(f"t{i}", 0.01 * i, 0.01 * i, height=150.0) for i in range(10)]
    assert len(los.cull_towers(towers, 100.0, 0.5, 50, seed=1)) == 10


def test_cull_deterministic_sampling():
    towers = [tower_at(f"t{i:03d}", 0.001 * (i % 7), 0.002 * (i % 11), height=150.0)
              for i in range(200)]
    first = los.cull_towers(towers, 100.0, 0.5, 50, seed=42)
    second = los.cull_towers(towers, 100.0, 0.5, 50, seed=42)
    assert len(first) == 50
    assert [t.id for t in first] == [t.id for t in second]
    other = los.cull_towers(towers, 100.0, 0.5, 50, seed=43)
    assert [t.id for t in other] != [t.id for t in first]


def test_towers_csv_roundtrip(tmp_path):
    terr = flat_terrain(elevation=12.0)
    p = tmp_path / "towers.csv"
    p.write_text("id,lat,lon,height_m,ground_elevation_m\n"
                 "a,0.0,0.0,120,\n"
                 "b,0.1,0.1,80,44.0\n")
    towers = los.load_towers_csv(str(p), terrain=terr)
    assert towers[0].ground_elevation_m == pytest.approx(12.0)
    assert towers[1].ground_elevation_m == 44.0


def test_hops_csv_roundtrip(tmp_path):
    terr = flat_terrain()
    towers = [tower_at("a", 0.0, 0.0), tower_at("b", 0.0, 0.2)]
    hg = los.build_hop_graph(towers, terr, LosParams())
    path = tmp_path / "hops.csv"
    los.save_hops_csv(hg, str(path))
    back = los.load_hops_csv(str(path), towers)
    assert {(a, b) for a, b, _ in hop_rows(back)} == {(a, b) for a, b, _ in hop_rows(hg)}


def test_hops_csv_keeps_every_row_and_saves_in_id_order(tmp_path):
    # Rows out of order, one pair listed twice (once reversed): loading
    # keeps all four rows in file order, and saving sorts them by
    # (tower_a, tower_b) with equal keys in file order.
    towers = [tower_at(t, 0.0, 0.1 * i) for i, t in enumerate(["c", "a", "b"])]
    path = tmp_path / "hops.csv"
    path.write_text("tower_a,tower_b,length_km\nb,c,3.5\na,b,2.0\nc,b,4.25\nb,c,1.0\n")
    hg = los.load_hops_csv(str(path), towers)
    assert list(hg.towers) == ["a", "b", "c"]
    assert len(hg.hops) == 4
    assert hop_rows(hg) == [("b", "c", 3.5), ("a", "b", 2.0), ("c", "b", 4.25), ("b", "c", 1.0)]
    out = tmp_path / "saved.csv"
    los.save_hops_csv(hg, str(out))
    assert out.read_text().splitlines() == [
        "tower_a,tower_b,length_km", "a,b,2.0", "b,c,3.5", "b,c,1.0", "c,b,4.25"]


# --- slow reference: the per-pair clearance loop ---------------------------------
# `hop_feasible` and `build_hop_graph` as they were before the batched
# clearance kernel: one great-circle sample set and one terrain read per
# pair. The batched code must give bitwise the same hops.

def reference_path_samples(a, b, n):
    va = los._unit_vector(a)
    vb = los._unit_vector(b)
    omega = math.acos(min(1.0, max(-1.0, float(np.dot(va, vb)))))
    idx = np.arange(n + 1)
    wb = idx / n
    wa = (n - idx) / n
    if omega < 1e-12:
        pts = np.outer(wa, va) + np.outer(wb, vb)
        pts /= np.linalg.norm(pts, axis=1)[:, None]
    else:
        pts = (np.outer(np.sin(wa * omega), va) + np.outer(np.sin(wb * omega), vb)) / math.sin(omega)
    lats = np.degrees(np.arcsin(np.clip(pts[:, 2], -1.0, 1.0)))
    lons = np.degrees(np.arctan2(pts[:, 1], pts[:, 0]))
    return lats, lons, wb


def reference_terms(a, b, terrain, p):
    """(line, needed, lats, lons) at every sample of a hop of nonzero length."""
    d_km = geodesic_km(a.location, b.location)
    n = max(1, math.ceil(d_km * 1000.0 / p.sample_step_m))
    lats, lons, frac = reference_path_samples(a.location, b.location, n)
    elev = terrain.sample_many(lats, lons)
    d1 = d_km * frac
    d2 = d_km * frac[::-1]
    bulge = d1 * d2 / (12.74 * p.k_factor)
    fresnel = 2.0 * 8.7 * np.sqrt(d1 * d2 / d_km) / math.sqrt(p.f_ghz)
    alt_a = a.ground_elevation_m + p.usable_height_fraction * a.height_m
    alt_b = b.ground_elevation_m + p.usable_height_fraction * b.height_m
    line = alt_a * frac[::-1] + alt_b * frac
    needed = elev + bulge + fresnel + p.obstruction_margin_m
    return line, needed, lats, lons


def reference_hop_feasible(a, b, terrain, p):
    if not terrain.contains(a.location) or not terrain.contains(b.location):
        raise ValueError("tower outside terrain bounds")
    d_km = geodesic_km(a.location, b.location)
    if d_km > p.max_range_km:
        return False
    if d_km == 0.0:
        return True
    line, needed, _, _ = reference_terms(a, b, terrain, p)
    return bool(np.all(line >= needed))


def reference_hops(towers, terrain, p):
    ordered = sorted(towers, key=lambda t: t.id)
    hops = []
    for i, ta in enumerate(ordered):
        for tb in ordered[i + 1:]:
            d = geodesic_km(ta.location, tb.location)
            if d > p.max_range_km:
                continue
            if reference_hop_feasible(ta, tb, terrain, p):
                hops.append((ta.id, tb.id, d.hex()))
    return hops


def hop_list(hop_graph):
    return [(a, b, km.hex()) for a, b, km in hop_rows(hop_graph)]


class RecordingTerrain(TerrainGrid):
    """A terrain that keeps every (lats, lons) it is asked to sample."""

    def __init__(self, base):
        super().__init__(base.values, base.xllcorner, base.yllcorner, base.cellsize)
        self.lats, self.lons = [], []

    def sample_many(self, lats, lons):
        self.lats.append(np.array(lats, dtype=float))
        self.lons.append(np.array(lons, dtype=float))
        return super().sample_many(lats, lons)

    def samples(self):
        return np.concatenate(self.lats).tobytes(), np.concatenate(self.lons).tobytes()


    def points(self):
        """Each (lat, lon) read, in order, as its 16 bytes."""
        pairs = np.column_stack((np.concatenate(self.lats), np.concatenate(self.lons)))
        return np.ascontiguousarray(pairs).view("V16").ravel().tolist()


def is_subsequence(part, whole):
    rest = iter(whole)
    return all(any(x == y for y in rest) for x in part)


def batched_equals_reference(towers, terrain, params, exact=False):
    """The batched hop graph equals the per-pair loop's, and it read the
    terrain at a bitwise subsequence of the loop's points, in order, leaving
    out the samples the segment screen clears. With `exact` (cells too narrow
    to screen) it read bitwise the same points."""
    batched, reference = RecordingTerrain(terrain), RecordingTerrain(terrain)
    got = hop_list(los.build_hop_graph(towers, batched, params))
    assert got == reference_hops(towers, reference, params)
    if exact:
        assert batched.samples() == reference.samples()
    else:
        assert is_subsequence(batched.points(), reference.points())
        assert len(batched.points()) < len(reference.points())
    return got


def ridged_terrain(seed, half_extent_deg=1.0, cellsize=0.01):
    """Noise plus a few Gaussian ridges, so some hops clear and some do not."""
    rng = np.random.default_rng(seed)
    n = int(round(2 * half_extent_deg / cellsize))
    y, x = (np.mgrid[0:n, 0:n] + 0.5) * cellsize - half_extent_deg
    z = rng.uniform(0.0, 30.0, size=(n, n))
    for _ in range(3):
        angle = rng.uniform(0.0, math.pi)
        dist = np.abs(math.cos(angle) * x + math.sin(angle) * y - rng.uniform(-0.5, 0.5))
        z += rng.uniform(80.0, 250.0) * np.exp(-(dist / rng.uniform(0.02, 0.08)) ** 2)
    return TerrainGrid(z, -half_extent_deg, -half_extent_deg, cellsize)


def random_towers(rng, count, extent=0.9):
    return [tower_at(f"t{i:03d}", float(rng.uniform(-extent, extent)),
                     float(rng.uniform(-extent, extent)),
                     height=float(rng.uniform(20.0, 150.0)),
                     ground=float(rng.uniform(0.0, 40.0))) for i in range(count)]


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_build_hop_graph_matches_reference_on_ridged_terrain(seed):
    rng = np.random.default_rng(100 + seed)
    terr = ridged_terrain(seed)
    towers = random_towers(rng, 40)
    params = LosParams(sample_step_m=float(rng.uniform(60.0, 250.0)),
                       max_range_km=float(rng.uniform(30.0, 70.0)),
                       k_factor=float(rng.uniform(1.0, 1.5)),
                       usable_height_fraction=float(rng.uniform(0.6, 1.0)),
                       obstruction_margin_m=float(rng.uniform(0.0, 5.0)))
    expected = batched_equals_reference(towers, terr, params)
    # Some hops clear, some are blocked: both sides of the test are exercised.
    in_range = sum(1 for i, a in enumerate(towers) for b in towers[i + 1:]
                   if geodesic_km(a.location, b.location) <= params.max_range_km)
    assert 0 < len(expected) < in_range


@pytest.mark.parametrize("chunk,rows", [(7, 3), (97, 5), (4096, 1)])
def test_build_hop_graph_chunking_matches_reference(monkeypatch, chunk, rows):
    # Chunks much smaller than a hop split hops across chunks and chunk
    # boundaries fall mid-list; small row blocks split the range screen.
    monkeypatch.setattr(los, "_CHUNK_SAMPLES", chunk)
    monkeypatch.setattr(los, "_SCREEN_ROWS", rows)
    rng = np.random.default_rng(9)
    terr = ridged_terrain(9)
    towers = random_towers(rng, 14)
    params = LosParams(sample_step_m=400.0, max_range_km=60.0)
    # 0.01-degree cells hold under _MIN_SEGMENT samples of 400 m: no screen.
    assert terr.cellsize * KM_PER_DEG * 1000.0 / 400.0 < los._MIN_SEGMENT
    batched_equals_reference(towers, terr, params, exact=True)


def test_hop_feasible_matches_reference_and_is_symmetric():
    rng = np.random.default_rng(17)
    terr = ridged_terrain(17)
    params = LosParams(sample_step_m=150.0, max_range_km=80.0)
    towers = random_towers(rng, 30)
    for a, b in zip(towers[::2], towers[1::2]):
        ref = reference_hop_feasible(a, b, terr, params)
        assert hop_feasible(a, b, terr, params) is ref
        assert hop_feasible(b, a, terr, params) is ref


@pytest.mark.parametrize("chunk", [7, 97])
@pytest.mark.parametrize("cellsize, step", [(0.02, 100.0), (0.01, 400.0)])
def test_build_hop_graph_reads_at_most_chunk_samples_a_call(monkeypatch, chunk, cellsize, step):
    # Screen blocks leave runs of samples that do not add up to whole calls;
    # each block's leftovers are read in calls of at most _CHUNK_SAMPLES, on
    # the screened path (0.02-degree cells, 100 m steps) and on the one block
    # of whole hops of the unscreened one (0.01-degree cells, 400 m steps).
    monkeypatch.setattr(los, "_CHUNK_SAMPLES", chunk)
    rng = np.random.default_rng(31)
    terr = ridged_terrain(31, cellsize=cellsize)
    towers = random_towers(rng, 16)
    params = LosParams(sample_step_m=step, max_range_km=50.0)
    screened = cellsize * KM_PER_DEG * 1000.0 / step >= los._MIN_SEGMENT
    assert screened == (cellsize == 0.02)
    recording = RecordingTerrain(terr)
    got = hop_list(los.build_hop_graph(towers, recording, params))
    assert got == reference_hops(towers, terr, params) != []
    assert max(len(lats) for lats in recording.lats) == chunk


def test_path_samples_match_reference_bitwise():
    rng = np.random.default_rng(4)
    for _ in range(30):
        a = GeoPoint(float(rng.uniform(-60, 60)), float(rng.uniform(-170, 170)))
        b = GeoPoint(float(rng.uniform(-60, 60)), float(rng.uniform(-170, 170)))
        for pb in (b, GeoPoint(a.lat + 1e-9, a.lon), a):
            n = int(rng.integers(1, 50))
            got = los._path_samples(a, pb, n)
            ref = reference_path_samples(a, pb, n)
            for g, r in zip(got, ref):
                assert g.tobytes() == r.tobytes()


def test_build_hop_graph_range_within_one_ulp():
    # Towers tall enough that every hop in range clears: a pair at exactly
    # the range limit is kept, one ulp beyond it is not.
    rng = np.random.default_rng(23)
    terr = ridged_terrain(23)
    towers = [dataclasses.replace(t, height_m=800.0) for t in random_towers(rng, 12)]
    for a, b in [(towers[0], towers[1]), (towers[2], towers[5]), (towers[7], towers[3])]:
        d = geodesic_km(a.location, b.location)
        pair = tuple(sorted((a.id, b.id)))
        for limit in (np.nextafter(d, 0.0), d, np.nextafter(d, math.inf)):
            params = LosParams(sample_step_m=300.0, max_range_km=float(limit))
            got = hop_list(los.build_hop_graph(towers, terr, params))
            assert got == reference_hops(towers, terr, params)
            assert any((h[0], h[1]) == pair for h in got) == (d <= limit)


def test_build_hop_graph_coincident_and_near_coincident_towers():
    terr = ridged_terrain(5)
    towers = [tower_at("c0", 0.3, 0.3, height=300.0), tower_at("c1", 0.3, 0.3, height=320.0),
              tower_at("c2", 0.3 + 1e-12, 0.3, height=300.0),
              tower_at("c3", 0.3 + 1e-6, 0.3, height=300.0),
              tower_at("c4", 0.45, 0.2, height=40.0)]
    params = LosParams(sample_step_m=100.0)
    got = batched_equals_reference(towers, terr, params)
    # Coincident towers form a zero-length hop; 1e-12 degrees apart the
    # great-circle angle rounds to zero and the chord branch is taken.
    assert ("c0", "c1", (0.0).hex()) in got
    assert hop_feasible(towers[0], towers[1], terr, params)
    assert ("c0", "c2") in {(h[0], h[1]) for h in got}
    a, b = towers[0], towers[2]
    assert los._omega(los._unit_vector(a.location), los._unit_vector(b.location)) < 1e-12
    assert geodesic_km(a.location, b.location) > 0.0


def test_build_hop_graph_out_of_bounds_tower():
    terr = ridged_terrain(3, half_extent_deg=0.5)
    inside = [tower_at("a", 0.0, 0.0, height=400.0), tower_at("b", 0.1, 0.2, height=400.0)]
    params = LosParams(sample_step_m=100.0, max_range_km=50.0)
    # Outside the raster but with no partner in range: ignored, no raise.
    far = tower_at("far", 0.0, 2.0)
    got = hop_list(los.build_hop_graph(inside + [far], terr, params))
    assert got == reference_hops(inside + [far], terr, params) != []
    # Outside the raster and in range of a tower: the error names it.
    near = tower_at("edge", 0.0, 0.6)
    with pytest.raises(ValueError, match="tower 'edge' outside terrain bounds"):
        los.build_hop_graph(inside + [near], terr, params)
    with pytest.raises(ValueError, match="tower 'edge' outside terrain bounds"):
        hop_feasible(inside[0], near, terr, params)
    # Of two outside towers in range, the first of the first pair in id order.
    with pytest.raises(ValueError, match="tower 'edge' outside terrain bounds"):
        los.build_hop_graph(inside + [near, tower_at("far2", 0.0, 0.7)], terr, params)
    with pytest.raises(ValueError, match="tower 'a0' outside terrain bounds"):
        los.build_hop_graph(inside + [near, tower_at("a0", 0.0, 0.7)], terr, params)


def test_build_hop_graph_nodata_cells():
    terr = ridged_terrain(8)
    towers = random_towers(np.random.default_rng(8), 16, extent=0.4)
    params = LosParams(sample_step_m=200.0, max_range_km=40.0)
    expected = reference_hops(towers, terr, params)
    # NODATA far from every hop changes nothing...
    terr.values[:20, -20:] = np.nan
    assert hop_list(los.build_hop_graph(towers, terr, params)) == expected
    # ...NODATA under a hop in range is an error, as for one pair.
    terr.values[95:105, 95:105] = np.nan
    with pytest.raises(ValueError, match="NODATA"):
        reference_hops(towers, terr, params)
    with pytest.raises(ValueError, match="NODATA"):
        los.build_hop_graph(towers, terr, params)


def test_towers_csv_missing_ground_names_first_tower(tmp_path):
    p = tmp_path / "towers.csv"
    p.write_text("id,lat,lon,height_m,ground_elevation_m\n"
                 "a,0.0,0.0,120,5\n"
                 "b,0.1,0.1,80,\n"
                 "c,0.2,0.1,80,\n")
    with pytest.raises(ValueError, match="tower b lacks ground elevation"):
        los.load_towers_csv(str(p))
    # With terrain, every missing elevation comes from one batched read and
    # equals the one-point read; a tower outside the raster is named.
    terr = ridged_terrain(2)
    towers = los.load_towers_csv(str(p), terrain=terr)
    assert [t.ground_elevation_m for t in towers] == [
        5.0, sample_at(terr, GeoPoint(0.1, 0.1)), sample_at(terr, GeoPoint(0.2, 0.1))]
    p.write_text("id,lat,lon,height_m,ground_elevation_m\n"
                 "a,0.0,0.0,120,\n"
                 "z,0.0,1.5,80,\n")
    with pytest.raises(ValueError, match="tower 'z' outside terrain bounds"):
        los.load_towers_csv(str(p), terrain=terr)


def reference_load_terrain_asc(path):
    """The one-float-at-a-time ESRI ASCII reader that `load_terrain_asc` replaced."""
    header: dict[str, float] = {}
    rows: list[list[float]] = []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            key = parts[0].lower()
            if key in ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value"):
                header[key] = float(parts[1])
            else:
                rows.append([float(tok) for tok in parts])
    for req in ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize"):
        if req not in header:
            raise ValueError(f"{path}: missing header field {req}")
    values = np.array([v for row in rows for v in row], dtype=float)
    ncols, nrows = int(header["ncols"]), int(header["nrows"])
    if values.size != ncols * nrows:
        raise ValueError(f"{path}: expected {ncols * nrows} values, found {values.size}")
    return TerrainGrid(values.reshape(nrows, ncols), header["xllcorner"],
                       header["yllcorner"], header["cellsize"],
                       header.get("nodata_value", -9999.0))


def asc_text(values, header="ncols {c}\nnrows {r}\nxllcorner -1.5\nyllcorner 0.25\n"
             "cellsize 0.02\nNODATA_value -9999\n", sep="\n"):
    rows = [" ".join(f"{v:g}" for v in row) for row in values]
    return header.format(r=len(values), c=len(values[0])) + sep.join(rows) + "\n"


def ridged_values(seed, nrows=70, ncols=130):
    # Rounded to 0.1 m and written with %g, as bench/inputs.py writes its terrain.
    rng = np.random.default_rng(seed)
    lat, lon = np.meshgrid(np.linspace(0.0, 1.4, nrows), np.linspace(0.0, 2.6, ncols),
                           indexing="ij")
    z = 20.0 + 15.0 * np.sin(lon * rng.uniform(2, 5)) * np.cos(lat * rng.uniform(2, 5))
    z += rng.uniform(250.0, 450.0) * np.exp(-((lon - lat - 0.6) / 0.04) ** 2)
    return np.round(z, 1)


def _terrain_cases():
    demo = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "demo", "terrain.asc")
    with open(demo) as fh:
        yield "demo", fh.read()
    yield "generated", asc_text(ridged_values(0))
    holes = np.random.default_rng(1).uniform(-50.0, 900.0, (6, 9)).round(3)
    holes[1, 2] = holes[4, 0] = holes[5, 8] = -9999.0
    yield "nodata_cells", asc_text(holes)
    yield "upper_case_keys", asc_text(holes, header="NCOLS {c}\nNROWS {r}\nXLLCORNER -1.5\n"
                                      "YLLCORNER 0.25\nCELLSIZE 0.02\nNODATA_VALUE -9999\n")
    yield "blank_lines", asc_text(holes, header="ncols {c}\n\nnrows {r}\nxllcorner -1.5\n"
                                  "yllcorner 0.25\ncellsize 0.02\n\n", sep="\n\n  \n")
    wrapped = asc_text(holes).splitlines()
    cut = wrapped[8].split(" ")
    wrapped[8] = " ".join(cut[:4]) + "\n\t" + " ".join(cut[4:])
    yield "row_wrapped", "\n".join(wrapped) + "\n"
    yield "no_nodata_value", asc_text(ridged_values(2, 5, 7),
                                      header="ncols {c}\nnrows {r}\nxllcorner 3\nyllcorner -4\n"
                                      "cellsize 0.5\n")
    yield "one_line", asc_text([holes.ravel()]).replace(f"ncols {holes.size}\nnrows 1",
                                                        "ncols 9\nnrows 6")


@pytest.mark.parametrize("text", [t for _, t in _terrain_cases()],
                         ids=[name for name, _ in _terrain_cases()])
def test_load_terrain_asc_matches_reference_bitwise(tmp_path, text):
    p = tmp_path / "t.asc"
    p.write_text(text)
    got, want = los.load_terrain_asc(str(p)), reference_load_terrain_asc(str(p))
    assert got.values.tobytes() == want.values.tobytes()
    assert ((got.nrows, got.ncols, got.xllcorner, got.yllcorner, got.cellsize, got.nodata)
            == (want.nrows, want.ncols, want.xllcorner, want.yllcorner, want.cellsize,
                want.nodata))


@pytest.mark.parametrize("text, message", [
    ("ncols 2\nnrows 1\nxllcorner 0\ncellsize 1\n1 2\n", "missing header field yllcorner"),
    ("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2\n3\n",
     "expected 4 values, found 3"),
    ("ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n", "expected 2 values, found 0"),
])
def test_load_terrain_asc_errors(tmp_path, text, message):
    p = tmp_path / "t.asc"
    p.write_text(text)
    for load in (los.load_terrain_asc, reference_load_terrain_asc):
        with pytest.raises(ValueError, match=f"{re.escape(str(p))}: {message}"):
            load(str(p))


@pytest.mark.parametrize("text, line, message", [
    ("ncols\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2\n3 4\n", 1,
     "header field 'ncols' has no value"),
    ("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\nCELLSIZE\n1 2\n3 4\n", 5,
     "header field 'CELLSIZE' has no value"),
    ("ncols 2\nnrows 2\nxllcorner 0\nyllcorner abc\ncellsize 1\n1 2\n3 4\n", 4,
     "could not convert string to float: 'abc'"),
    # The bad value is on line 7; the retry on the joined body would call it row 0.
    ("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2\n3 x\n", 7,
     "could not convert string to float: 'x'"),
    ("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n\n1 2 3\n\n  4e1.5\n", 9,
     "could not convert string to float: '4e1.5'"),
])
def test_load_terrain_asc_names_line_of_a_bad_field(tmp_path, text, line, message):
    p = tmp_path / "t.asc"
    p.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{p}: line {line}: {message}')}$"):
        los.load_terrain_asc(str(p))


# --- the segment screen -------------------------------------------------------
# `_clearance` clears a segment of samples unread when its line clears the
# highest terrain its reads can touch; these cases hold it to the per-pair
# reference where that bound is tight, where it must not apply, and over
# several ratios of cell size to sample step.

@pytest.mark.parametrize("seed,cellsize,step,chunk", [
    (0, 0.004, 120.0, 4096),  # 3.7 samples a cell: too few to screen
    (1, 0.004, 60.0, 4096),
    (2, 0.01, 90.0, 97),      # small chunks: runs span chunks and blocks
    (3, 0.02, 100.0, 4096),   # the bench's cells and step
    (4, 0.05, 120.0, 7),
])
def test_screen_matches_reference_over_cell_to_step_ratios(monkeypatch, seed, cellsize,
                                                           step, chunk):
    monkeypatch.setattr(los, "_CHUNK_SAMPLES", chunk)
    rng = np.random.default_rng(200 + seed)
    terr = ridged_terrain(seed, cellsize=cellsize)
    towers = random_towers(rng, 24)
    params = LosParams(sample_step_m=step, max_range_km=float(rng.uniform(40.0, 70.0)),
                       k_factor=float(rng.uniform(1.0, 1.5)),
                       obstruction_margin_m=float(rng.uniform(0.0, 5.0)))
    exact = cellsize * KM_PER_DEG * 1000.0 / step < los._MIN_SEGMENT
    got = batched_equals_reference(towers, terr, params, exact)
    in_range = [(a, b) for i, a in enumerate(towers) for b in towers[i + 1:]
                if geodesic_km(a.location, b.location) <= params.max_range_km]
    assert 0 < len(got) < len(in_range)
    for a, b in in_range[::7]:
        ref = reference_hop_feasible(a, b, terr, params)
        assert hop_feasible(a, b, terr, params) is ref
        assert hop_feasible(b, a, terr, params) is ref


def test_screen_and_sampler_read_one_clearance_function(monkeypatch):
    # 20 m more bulge everywhere blocks some hops. The segment screen and the
    # sampler both read it, so the screened graph is the sampled-only one.
    rng = np.random.default_rng(203)
    terr = ridged_terrain(3, cellsize=0.02)
    towers = random_towers(rng, 24)
    params = LosParams(sample_step_m=100.0, max_range_km=60.0)
    plain = hop_list(los.build_hop_graph(towers, terr, params))
    clearance_terms_m, callers = los.clearance_terms_m, set()

    def higher(d1, d2, d, p):
        callers.add(sys._getframe(1).f_code.co_name)
        bulge, fresnel = clearance_terms_m(d1, d2, d, p)
        return bulge + 20.0, fresnel

    monkeypatch.setattr(los, "clearance_terms_m", higher)
    screened = hop_list(los.build_hop_graph(towers, terr, params))
    assert callers == {"screen", "clears"}
    assert set(screened) < set(plain)
    monkeypatch.setattr(los, "_MIN_SEGMENT", 10 ** 9)  # no segment screened
    assert hop_list(los.build_hop_graph(towers, terr, params)) == screened


def test_screen_leaves_samples_at_line_equal_to_needed():
    # Flat terrain at the highest elevation where the reference still
    # clears the hop: one ulp higher it is blocked. At that elevation some
    # sample often sits exactly at line == needed; the screen's slack keeps
    # that sample read, and both decisions match the reference.
    params = LosParams(sample_step_m=100.0)  # 11 samples a 0.01-degree cell

    def flat(elevation):
        return TerrainGrid(np.full((100, 100), elevation), -0.5, -0.5, 0.01)

    ties = 0
    for seed in range(6):
        rng = np.random.default_rng(seed)
        a, b = (tower_at(t, float(rng.uniform(-0.3, 0.3)), float(rng.uniform(-0.3, 0.3)),
                         height=float(rng.uniform(40.0, 120.0))) for t in "ab")
        lo, hi = -1000.0, 1000.0
        while (mid := (lo + hi) / 2.0) not in (lo, hi):
            line, needed, _, _ = reference_terms(a, b, flat(mid), params)
            lo, hi = (mid, hi) if np.all(line >= needed) else (lo, mid)
        line, needed, lats, lons = reference_terms(a, b, flat(lo), params)
        recording = RecordingTerrain(flat(lo))
        assert los.build_hop_graph([a, b], recording, params).hops.size == 1
        assert hop_feasible(a, b, flat(lo), params)
        assert not hop_feasible(a, b, flat(hi), params)
        assert los.build_hop_graph([a, b], flat(hi), params).hops.size == 0
        read = set(recording.points())
        assert len(read) < len(line)
        for k in np.flatnonzero(line == needed).tolist():
            ties += 1
            assert np.array([lats[k], lons[k]]).view("V16")[0].tobytes() in read
    assert ties >= 3


@pytest.mark.parametrize("seed", range(4))
def test_screen_with_nodata_in_segment_windows(seed):
    # One NODATA cell in the 5 x 5 cells around a sample of a clear hop: in
    # some segment's window, read by no sample or by some. Either way the
    # answer, or the error, is the reference's.
    rng = np.random.default_rng(300 + seed)
    base = ridged_terrain(seed)
    towers = random_towers(rng, 10, extent=0.5)
    params = LosParams(sample_step_m=100.0, max_range_km=50.0)
    by_id = {t.id: t for t in towers}
    hops = reference_hops(towers, base, params)
    for a, b, _ in [hops[i] for i in rng.choice(len(hops), 3, replace=False)]:
        a, b = by_id[a], by_id[b]
        lats, lons, _ = reference_path_samples(a.location, b.location, 50)
        k = int(rng.integers(1, 50))
        row = base.nrows - 1 - int((lats[k] - base.yllcorner) / base.cellsize)
        col = int((lons[k] - base.xllcorner) / base.cellsize)
        for dr in range(-2, 3):
            for dc in range(-2, 3):
                terr = TerrainGrid(base.values.copy(), base.xllcorner, base.yllcorner,
                                   base.cellsize)
                terr.values[row + dr, col + dc] = np.nan
                try:
                    ref = reference_hop_feasible(a, b, terr, params)
                except ValueError as exc:
                    assert "NODATA" in str(exc)
                    for call in (lambda: hop_feasible(a, b, terr, params),
                                 lambda: hop_feasible(b, a, terr, params),
                                 lambda: los.build_hop_graph([a, b], terr, params)):
                        with pytest.raises(ValueError, match="NODATA"):
                            call()
                else:
                    assert hop_feasible(a, b, terr, params) is ref
                    assert hop_feasible(b, a, terr, params) is ref
                    assert los.build_hop_graph([a, b], terr, params).hops.size == ref


def test_screen_leaves_great_circle_beyond_the_grid_edge_to_raise():
    # Both towers lie just inside the grid's northern edge at 41 N; the
    # great circle between them bulges poleward past it. Every sample would
    # clear, so only the sampling raises, as the reference does.
    terr = TerrainGrid(np.zeros((100, 150)), 0.0, 40.0, 0.01)
    a, b = tower_at("a", 40.9999, 0.1, height=300.0), tower_at("b", 40.9999, 0.9, height=300.0)
    params = LosParams(sample_step_m=100.0)
    assert max(reference_path_samples(a.location, b.location, 8)[0]) > 41.0
    with pytest.raises(ValueError, match="sample outside terrain bounds"):
        reference_hop_feasible(a, b, terr, params)
    with pytest.raises(ValueError, match="sample outside terrain bounds"):
        hop_feasible(a, b, terr, params)
    with pytest.raises(ValueError, match="sample outside terrain bounds"):
        los.build_hop_graph([a, b], terr, params)
    # 0.01 degrees further south the same hop stays inside and clears.
    a, b = (dataclasses.replace(t, location=GeoPoint(40.9899, t.location.lon)) for t in (a, b))
    assert hop_feasible(a, b, terr, params) and reference_hop_feasible(a, b, terr, params)


def test_screen_window_covers_the_great_circle_bulge():
    # Towers at equal latitude: the great circle between them peaks at the
    # middle sample, inside a segment and ~1e-7 degrees above its end
    # samples. Cell centers of row 60 sit just below that peak and above
    # every other sample, so only the peak sample reads row 61, with a
    # weight of ~1e-7; a 1e10 m spike there blocks the hop. The screen must
    # widen the segment's window past its end samples to see the spike.
    a, b = tower_at("a", 41.0, 0.1, height=300.0), tower_at("b", 41.0, 0.91, height=300.0)
    params = LosParams(sample_step_m=100.0)
    n = math.ceil(geodesic_km(a.location, b.location) * 1000.0 / params.sample_step_m)
    lats = reference_path_samples(a.location, b.location, n)[0]
    peak, second = np.sort(lats)[-2:][::-1]
    assert n % 2 == 0 and lats[n // 2] == peak and peak - second > 1e-9
    size = int(0.01 * KM_PER_DEG * 1000.0 * math.cos(math.radians(41.0)) // params.sample_step_m)
    assert size >= los._MIN_SEGMENT and (n // 2) % size not in (0, size - 1)
    cut = (peak + second) / 2.0
    terr = TerrainGrid(np.zeros((100, 150)), 0.0, cut - 60.5 * 0.01, 0.01)
    terr.values[100 - 1 - 61] = 1e10
    assert not reference_hop_feasible(a, b, terr, params)
    assert not hop_feasible(a, b, terr, params)
    assert los.build_hop_graph([a, b], terr, params).hops.size == 0
