import numpy as np
import pytest

from lightwan import traffic
from lightwan.geo import GeoPoint, Site
from lightwan.traffic import TrafficMatrix, TrafficMix


def city(sid, lat, lon, pop=1.0):
    return Site(sid, GeoPoint(lat, lon), pop)


def test_gravity_two_equal_cities():
    m = traffic.gravity_matrix([city("a", 0, 0, 5.0), city("b", 0, 1, 5.0)])
    assert m.as_dict() == {("a", "b"): 1.0}


def test_gravity_population_products():
    m = traffic.gravity_matrix([city("a", 0, 0, 1.0), city("b", 0, 1, 2.0), city("c", 0, 2, 3.0)])
    d = m.as_dict()
    assert d[("a", "b")] == pytest.approx(2 / 11)
    assert d[("a", "c")] == pytest.approx(3 / 11)
    assert d[("b", "c")] == pytest.approx(6 / 11)


def test_gravity_equal_populations_uniform():
    sites = [city(f"s{i}", 0, i, 7.0) for i in range(6)]
    m = traffic.gravity_matrix(sites)
    assert len(m) == 15
    for _, w in m.items():
        assert w == pytest.approx(1 / 15)


def test_gravity_needs_two_sites_and_positive_population():
    with pytest.raises(ValueError):
        traffic.gravity_matrix([city("a", 0, 0, 1.0)])
    with pytest.raises(ValueError):
        traffic.gravity_matrix([city("a", 0, 0, 0.0), city("b", 0, 1, 1.0)])


def test_inter_dc_examples():
    dcs = [city(f"d{i}", 0, i) for i in range(6)]
    m = traffic.inter_dc_matrix(dcs)
    assert len(m) == 15
    assert all(w == pytest.approx(1 / 15) for _, w in m.items())
    m2 = traffic.inter_dc_matrix(dcs[:2])
    assert m2.as_dict() == {("d0", "d1"): 1.0}
    m3 = traffic.inter_dc_matrix(dcs[:3])
    assert all(w == pytest.approx(1 / 3) for _, w in m3.items())


def test_dc_edge_single_city_single_dc():
    m = traffic.dc_edge_matrix([city("c", 0, 0, 9.0)], [city("d", 1, 1)])
    assert m.as_dict() == {("c", "d"): 1.0}


def test_dc_edge_equidistant_tie_break():
    c = city("mid", 0, 0, 3.0)
    left = city("dc_a", 0, -1.0)
    right = city("dc_b", 0, 1.0)
    m = traffic.dc_edge_matrix([c], [right, left])
    assert m.as_dict() == {("dc_a", "mid"): 1.0}


def test_dc_edge_city_that_is_its_nearest_dc_adds_no_demand():
    # The CLI merges a DC that shares a city's id into that city's site.
    cities = [city("a", 0, 0, 5.0), city("b", 0, 2, 3.0)]
    dcs = [city("a", 0, 0), city("d", 0, 1.9)]
    assert traffic.dc_edge_matrix(cities, dcs).as_dict() == {("b", "d"): 1.0}


def test_dc_edge_matches_bruteforce_nearest():
    from lightwan.geo import geodesic_km
    rng = np.random.default_rng(17)
    cities = [city(f"c{i}", float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10)),
                   float(rng.uniform(1, 100))) for i in range(5)]
    dcs = [city(f"d{i}", float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10)))
           for i in range(2)]
    m = traffic.dc_edge_matrix(cities, dcs)
    expected: dict = {}
    for c in cities:
        dists = {d.id: geodesic_km(c.location, d.location) for d in dcs}
        best = min(sorted(dists), key=lambda k: dists[k])
        key = traffic.pair_key(c.id, best)
        expected[key] = expected.get(key, 0.0) + c.population
    total = sum(expected.values())
    got = m.as_dict()
    assert set(got) == set(expected)
    for k in expected:
        assert got[k] == pytest.approx(expected[k] / total)


def test_mix_identity_cases():
    a = TrafficMatrix({("x", "y"): 1.0})
    b = TrafficMatrix({("x", "z"): 1.0})
    assert traffic.mix([a], TrafficMix((1.0,))).as_dict() == a.as_dict()
    same = traffic.mix([a, a], TrafficMix((1.0, 1.0)))
    assert same.as_dict() == a.as_dict()


def test_mix_ratio_arithmetic():
    a = TrafficMatrix({("a", "b"): 1.0})
    b = TrafficMatrix({("c", "d"): 1.0})
    c = TrafficMatrix({("e", "f"): 1.0})
    m = traffic.mix([a, b, c], TrafficMix((4.0, 3.0, 3.0)))
    d = m.as_dict()
    assert d[("a", "b")] == pytest.approx(0.4)
    assert d[("c", "d")] == pytest.approx(0.3)
    assert d[("e", "f")] == pytest.approx(0.3)


def test_mix_dimension_mismatch():
    a = TrafficMatrix({("a", "b"): 1.0})
    with pytest.raises(ValueError):
        traffic.mix([a], TrafficMix((1.0, 2.0)))
    with pytest.raises(ValueError):
        TrafficMix((0.0, 0.0))


def test_normalization_invariants():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        sites = [city(f"s{i}", 0, i, float(rng.uniform(0.5, 50))) for i in range(n)]
        m = traffic.gravity_matrix(sites)
        assert abs(sum(w for _, w in m.items()) - 1.0) <= 1e-12
        for (a, b), w in m.items():
            assert a != b
            assert w >= 0


def test_perturb_gamma_zero_is_identity():
    sites = [city(f"s{i}", 0, i, float(i + 1)) for i in range(5)]
    assert traffic.perturb(sites, 0.0, 99).as_dict() == traffic.gravity_matrix(sites).as_dict()


def test_perturb_deterministic_per_seed():
    sites = [city(f"s{i}", 0, i, float(i + 1)) for i in range(5)]
    a = traffic.perturb(sites, 0.5, 7)
    b = traffic.perturb(sites, 0.5, 7)
    c = traffic.perturb(sites, 0.5, 8)
    assert a.as_dict() == b.as_dict()
    assert a.as_dict() != c.as_dict()


def test_perturb_matches_reference_generator():
    # Recompute with the documented generator contract: one U[1-g, 1+g]
    # draw per site in sorted-id order from default_rng(seed).
    sites = [city(f"s{i}", 0, i, float(i + 1)) for i in range(4)]
    gamma, seed = 0.3, 1234
    rng = np.random.default_rng(seed)
    factors = {s.id: rng.uniform(1 - gamma, 1 + gamma) for s in sorted(sites, key=lambda s: s.id)}
    scaled = [Site(s.id, s.location, s.population * factors[s.id]) for s in sites]
    expected = traffic.gravity_matrix(scaled)
    got = traffic.perturb(sites, gamma, seed)
    assert got.as_dict() == expected.as_dict()


def test_perturb_gamma_bounds():
    sites = [city("a", 0, 0, 1.0), city("b", 0, 1, 1.0)]
    with pytest.raises(ValueError):
        traffic.perturb(sites, -0.1, 0)
    with pytest.raises(ValueError):
        traffic.perturb(sites, 1.1, 0)


def test_matrix_rejects_diagonal_and_negative():
    with pytest.raises(ValueError):
        TrafficMatrix({("a", "a"): 1.0})
    with pytest.raises(ValueError):
        TrafficMatrix({("a", "b"): -1.0})
    with pytest.raises(ValueError):
        TrafficMatrix({("a", "b"): 0.0})


def test_scaled_demand():
    m = TrafficMatrix({("a", "b"): 1.0, ("b", "c"): 3.0})
    s = m.scaled(100.0)
    assert s[("a", "b")] == pytest.approx(25.0)
    assert s[("b", "c")] == pytest.approx(75.0)
