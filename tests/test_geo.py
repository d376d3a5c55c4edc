import math
import os
import re

import numpy as np
import pytest

from lightwan import fiberbase, geo, los, weather


def law_of_cosines_km(a, b):
    # Independent great-circle evaluation (spherical law of cosines).
    la1, lo1 = math.radians(a.lat), math.radians(a.lon)
    la2, lo2 = math.radians(b.lat), math.radians(b.lon)
    cosc = math.sin(la1) * math.sin(la2) + math.cos(la1) * math.cos(la2) * math.cos(lo2 - lo1)
    return geo.EARTH_RADIUS_KM * math.acos(min(1.0, max(-1.0, cosc)))


NYC = geo.GeoPoint(40.7128, -74.0060)
LA = geo.GeoPoint(34.0522, -118.2437)


def test_geopoint_validation():
    with pytest.raises(ValueError):
        geo.GeoPoint(91.0, 0.0)
    with pytest.raises(ValueError):
        geo.GeoPoint(0.0, -180.5)
    geo.GeoPoint(90.0, 180.0)


def test_geodesic_identical_points():
    assert geo.geodesic_km(NYC, NYC) == 0.0


def test_geodesic_antipodal():
    d = geo.geodesic_km(geo.GeoPoint(0, 0), geo.GeoPoint(0, 180))
    assert d == pytest.approx(math.pi * geo.EARTH_RADIUS_KM, abs=1e-6)


def test_geodesic_nyc_la():
    # 3936 km +- 1 km, cross-checked against an independent formula.
    d = geo.geodesic_km(NYC, LA)
    assert abs(d - 3936.0) <= 1.0
    assert d == pytest.approx(law_of_cosines_km(NYC, LA), abs=1e-6)


def test_geodesic_symmetry_and_triangle_inequality():
    rng = np.random.default_rng(7)
    for _ in range(300):
        pts = [geo.GeoPoint(float(rng.uniform(-80, 80)), float(rng.uniform(-179, 179)))
               for _ in range(3)]
        ab = geo.geodesic_km(pts[0], pts[1])
        ba = geo.geodesic_km(pts[1], pts[0])
        assert ab == ba
        bc = geo.geodesic_km(pts[1], pts[2])
        ac = geo.geodesic_km(pts[0], pts[2])
        assert ac <= ab + bc + 1e-9


def test_latency_examples():
    assert geo.latency_ms(0.0, "mw") == 0.0
    assert geo.latency_ms(299.792458, "mw") == pytest.approx(1.0, rel=1e-12)
    assert geo.latency_ms(1000.0, "fiber") == pytest.approx(1000 * 1.5 / 299792.458 * 1000, rel=1e-12)


def test_latency_linear_in_distance():
    for d in (1.0, 10.0, 123.4):
        assert geo.latency_ms(3 * d, "mw") == pytest.approx(3 * geo.latency_ms(d, "mw"), rel=1e-12)


def test_latency_rejects_negative_distance():
    with pytest.raises(ValueError):
        geo.latency_ms(-1.0, "mw")


def test_latency_rejects_unknown_medium():
    with pytest.raises(ValueError, match="unknown medium 'laser'"):
        geo.latency_ms(1.0, "laser")


def c_latency_ms(a, b):
    # The pair's c-latency: the physical lower bound every stretch divides by.
    return geo.geodesic_km(a, b) / geo.C_VACUUM_KM_S * 1000.0


def test_stretch_geodesic_mw_path_is_exactly_one():
    d = geo.geodesic_km(NYC, LA)
    assert geo.latency_ms(d, "mw") / c_latency_ms(NYC, LA) == 1.0


def test_stretch_geodesic_fiber_path():
    d = geo.geodesic_km(NYC, LA)
    assert geo.latency_ms(d, "fiber") / c_latency_ms(NYC, LA) == pytest.approx(1.5, rel=1e-12)


def test_stretch_inflated_fiber_route():
    # Route 1.29x longer than the geodesic on fiber: 1.29 * 1.5 = 1.935.
    d = geo.geodesic_km(NYC, LA)
    s = geo.latency_ms(1.29 * d, "fiber") / c_latency_ms(NYC, LA)
    assert s == pytest.approx(1.935, rel=1e-12)


def test_load_sites_csv(tmp_path):
    p = tmp_path / "sites.csv"
    p.write_text("id,lat,lon,population\nnyc,40.7128,-74.0060,8000000\nla,34.0522,-118.2437,4000000\n")
    sites = geo.load_sites_csv(str(p))
    assert [s.id for s in sites] == ["nyc", "la"]
    assert sites[0].population == 8000000
    bad = tmp_path / "bad.csv"
    bad.write_text("name,x\nfoo,1\n")
    with pytest.raises(ValueError):
        geo.load_sites_csv(str(bad))


ENDPOINTS = "id,lat,lon,population\nf_a,0.1,0.2,5\n"


@pytest.mark.parametrize("text, line, load", [
    ("id,lat,lon,height_m,ground_elevation_m\nt1,0.1,0.2,95,0\nt2,0.1,0.3,abc,0\n", 3,
     los.load_towers_csv),
    (ENDPOINTS + "f_b,abc,0.3,5\n", 3, lambda p: fiberbase.load_fiber_csv(p, p)),
    ("timestamp,link_id,rain_mm_h\nt0,a|b,abc\n", 2,
     lambda p: weather.load_rain_csv(p, ["a", "b"])),
], ids=["towers", "fiber_endpoints", "rain"])
def test_csv_loaders_name_file_and_line_of_a_non_number(tmp_path, text, line, load):
    path = tmp_path / "input.csv"
    path.write_text(text)
    want = f"{path}: line {line}: could not convert string to float: 'abc'"
    with pytest.raises(ValueError, match=re.escape(want)):
        load(str(path))


DEMO_ENDPOINTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "data", "demo", "fiber_endpoints.csv")


@pytest.mark.parametrize("text, line, need, found, load", [
    ("id,lat,lon,height_m,ground_elevation_m\nt0001,0.1,0.2,95,0\nt0004,0.5\n", 3, 4, 2,
     los.load_towers_csv),
    ("tower_a,tower_b,length_km\nta,tb\n", 2, 3, 2, lambda p: los.load_hops_csv(p, [])),
    ("id,lat,lon,population\nnyc,40.7\n", 2, 3, 2, geo.load_sites_csv),
    (ENDPOINTS + "f_b,0.1\n", 3, 3, 2, lambda p: fiberbase.load_fiber_csv(p, p)),
    ("endpoint_a,endpoint_b,fiber_km\nf_ca,f_cb,130.5\nf_cb\n", 3, 3, 1,
     lambda p: fiberbase.load_fiber_csv(p, DEMO_ENDPOINTS)),
    ("timestamp,link_id,rain_mm_h\n\nt0,a|b\n", 3, 3, 2,
     lambda p: weather.load_rain_csv(p, ["a", "b"])),
], ids=["towers", "hops", "sites", "fiber_endpoints", "fiber_conduits", "rain"])
def test_csv_loaders_name_file_and_line_of_a_short_row(tmp_path, text, line, need, found, load):
    # A row with too few fields for the required columns is named, not a
    # TypeError from a missing field; blank lines still count as lines.
    path = tmp_path / "input.csv"
    path.write_text(text)
    want = f"{path}: line {line}: expected {need} fields, found {found}"
    with pytest.raises(ValueError, match=re.escape(want)):
        load(str(path))


@pytest.mark.parametrize("text, message, load", [
    ("id,lat,lon,height_m,ground_elevation_m\nt1,0.1,0.2,95,0\nt2,0.1,0.3,0,0\n",
     "line 3: tower 't2': height must be > 0", los.load_towers_csv),
    ("id,lat,lon,population\nnyc,40.7,-74.0,5\nzz,91.0,1.0,5\n",
     "line 3: latitude 91.0 outside [-90, 90]", geo.load_sites_csv),
    (ENDPOINTS + "f_a,0.3,0.4,1\n", "line 3: duplicate site id 'f_a'",
     lambda p: fiberbase.load_fiber_csv(p, p)),
    ("id,lat,lon,population\nnyc,40.7,-74.0,5\nla,34.0,-118.2,4\nnyc,40.8,-74.1,1\n",
     "line 4: duplicate site id 'nyc'", geo.load_sites_csv),
    ("id,lat,lon,population\nnyc,40.7,-74.0,inf\n",
     "line 2: site 'nyc': population inf must be finite and >= 0", geo.load_sites_csv),
    ("id,lat,lon,population\nnyc,40.7,-74.0,0\nla,34.0,-118.2,-1\n",
     "line 3: site 'la': population -1.0 must be finite and >= 0", geo.load_sites_csv),
    ("id,lat,lon,height_m,ground_elevation_m\nt1,0.1,0.2,95,0\nt1,0.1,0.3,90,0\n",
     "line 3: duplicate tower id 't1'", los.load_towers_csv),
    # nan passes a plain `<= 0` check; a hop graph used to drop such towers' hops.
    ("id,lat,lon,height_m,ground_elevation_m\nt1,0.1,0.2,nan,0\n",
     "line 2: tower 't1': height must be > 0 and finite, got nan", los.load_towers_csv),
    ("id,lat,lon,height_m,ground_elevation_m\nt1,0.1,0.2,inf,0\n",
     "line 2: tower 't1': height must be > 0 and finite, got inf", los.load_towers_csv),
    ("id,lat,lon,height_m,ground_elevation_m\nt1,0.1,0.2,95,0\nt2,0.1,0.3,95,inf\n",
     "line 3: tower 't2': ground elevation must be finite, got inf", los.load_towers_csv),
    ("id,lat,lon,height_m,ground_elevation_m\nt1,0.1,0.2,95,nan\n",
     "line 2: tower 't1': ground elevation must be finite, got nan", los.load_towers_csv),
], ids=["height_zero", "latitude", "duplicate_endpoint", "duplicate_site",
        "infinite_population", "negative_population", "duplicate_tower", "height_nan",
        "height_inf", "ground_inf", "ground_nan"])
def test_csv_loaders_name_file_and_line_of_a_bad_row(tmp_path, text, message, load):
    path = tmp_path / "input.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        load(str(path))


def test_csv_loaders_ignore_extra_fields_and_read_missing_optional_ones_as_absent(tmp_path):
    p = tmp_path / "sites.csv"
    p.write_text("lat,id,lon,population,note\n"
                 "40.5,nyc,-74.0,8,a,b,c\n"
                 "\n"
                 "34.0,la,-118.2\n")
    sites = geo.load_sites_csv(str(p))
    assert sites == [geo.Site("nyc", geo.GeoPoint(40.5, -74.0), 8.0),
                     geo.Site("la", geo.GeoPoint(34.0, -118.2), 0.0)]
    # A header without the optional column reads it as absent on every row.
    p.write_text("id,lat,lon\nnyc,40.5,-74.0\n")
    assert geo.load_sites_csv(str(p))[0].population == 0.0
    towers = tmp_path / "towers.csv"
    towers.write_text("id,lat,lon,height_m,ground_elevation_m\nt1,0.1,0.2,95\n")
    with pytest.raises(ValueError, match="line 2: tower t1 lacks ground elevation"):
        los.load_towers_csv(str(towers))


def test_write_csv_bytes(tmp_path):
    # Default csv dialect: CRLF line ends, floats as repr, quoting only where needed.
    path = tmp_path / "out.csv"
    geo.write_csv(str(path), "a,b,c", [["x", 1, 0.1 + 0.2], ["y,z", 2.0, 1e-20]])
    assert path.read_bytes() == (b"a,b,c\r\n"
                                 b"x,1,0.30000000000000004\r\n"
                                 b'"y,z",2.0,1e-20\r\n')


def test_write_json_bytes(tmp_path):
    path = tmp_path / "out.json"
    geo.write_json({"b": [1, 0.1 + 0.2], "a": {"d": None, "c": "s"}}, str(path))
    assert path.read_bytes() == (b'{\n "a": {\n  "c": "s",\n  "d": null\n },\n'
                                 b' "b": [\n  1,\n  0.30000000000000004\n ]\n}\n')
