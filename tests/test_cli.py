import csv
import json
import os
import sys
import weakref

import pytest

from lightwan import capacity, designer, fiberbase, geo, los, simnet, traffic, weather
from lightwan.cli import COMMANDS, build_parser, load_config, main
from lightwan.traffic import TrafficMatrix, pair_key

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from test_designer import assert_design_matches_reference  # noqa: E402
from test_fiberbase import reference_route_fiber_demand  # noqa: E402
from test_simnet import assert_routing_matches_reference  # noqa: E402
from test_weather import assert_one_reroute_per_failure_set  # noqa: E402

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
DEMO = os.path.join(DATA, "demo")
GOLDEN = os.path.join(DATA, "golden")
REGEN = os.environ.get("LIGHTWAN_REGEN_GOLDEN") == "1"


def demo_config(**overrides):
    cfg = {
        "towers_csv": os.path.join(DEMO, "towers.csv"),
        "terrain_asc": os.path.join(DEMO, "terrain.asc"),
        "sites_csv": os.path.join(DEMO, "sites.csv"),
        "dc_sites_csv": os.path.join(DEMO, "dc_sites.csv"),
        "fiber_endpoints_csv": os.path.join(DEMO, "fiber_endpoints.csv"),
        "fiber_conduits_csv": os.path.join(DEMO, "fiber_conduits.csv"),
        "rain_csv": os.path.join(DEMO, "rain.csv"),
        "site_link_radius_km": 50.0,
        "budget": 25.0,
        "aggregate_gbps": 12.0,
        "seed": 7,
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full demo pipeline run shared by the checks below."""
    root = tmp_path_factory.mktemp("pipeline")
    cfgp = write_config(root, demo_config())
    out = {"root": root, "config": cfgp, "argv": []}

    def run(argv):
        assert main(argv) == 0
        out["argv"].append(argv)

    hop_dir = str(root / "hop")
    run(["hopgraph", "--config", cfgp, "--out", hop_dir])
    out["hops_csv"] = os.path.join(hop_dir, "hops.csv")
    out["hop_summary"] = os.path.join(hop_dir, "hopgraph_summary.json")

    design_dir = str(root / "design")
    run(["design", "--config", cfgp, "--out", design_dir,
         "--set", f"hops_csv={out['hops_csv']}",
         "--set", "budget_ladder=[0, 10, 25]"])
    out["design_dir"] = design_dir
    out["instance"] = os.path.join(design_dir, "instance_B25.json")
    out["design"] = os.path.join(design_dir, "design_B25.json")
    out["stats_csv"] = os.path.join(design_dir, "design_stats.csv")

    fiber_dir = str(root / "fiber")
    run(["fiber", "--config", cfgp, "--out", fiber_dir])
    out["pruning_csv"] = os.path.join(fiber_dir, "fiber_pruning.csv")
    out["fiber_baseline"] = os.path.join(fiber_dir, "fiber_baseline.json")

    aug_dir = str(root / "aug")
    run(["augment", "--config", cfgp, "--out", aug_dir,
         "--set", f"instance_json={out['instance']}",
         "--set", f"design_json={out['design']}",
         "--set", f"hops_csv={out['hops_csv']}"])
    out["augment_plan"] = os.path.join(aug_dir, "augment_plan.json")

    weather_dir = str(root / "weather")
    run(["weather", "--config", cfgp, "--out", weather_dir,
         "--set", f"instance_json={out['instance']}",
         "--set", f"design_json={out['design']}"])
    out["weather_intervals"] = os.path.join(weather_dir, "weather_intervals.csv")
    out["weather_pct"] = os.path.join(weather_dir, "weather_percentiles.csv")

    sim_dir = str(root / "sim")
    run(["simulate", "--config", cfgp, "--out", sim_dir,
         "--set", f"instance_json={out['instance']}",
         "--set", f"design_json={out['design']}",
         "--set", "sim.sim_seconds=0.02"])
    out["flows_csv"] = os.path.join(sim_dir, "flows.csv")
    out["util_csv"] = os.path.join(sim_dir, "link_utilization.csv")

    gj_dir = str(root / "gj")
    run(["export-geojson", "--config", cfgp, "--out", gj_dir,
         "--set", f"instance_json={out['instance']}",
         "--set", f"design_json={out['design']}"])
    out["geojson"] = os.path.join(gj_dir, "links.geojson")
    return out


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))

def assert_matches_golden(path, name, exact=False):
    """Golden comparison, numeric-tolerant unless `exact` (then the text
    must be equal, line endings aside); regenerate with
    LIGHTWAN_REGEN_GOLDEN=1."""
    golden_path = os.path.join(GOLDEN, name)
    if REGEN:
        os.makedirs(GOLDEN, exist_ok=True)
        with open(path) as src, open(golden_path, "w") as dst:
            dst.write(src.read())
        return
    if exact:
        with open(path) as got, open(golden_path) as want:
            assert got.read() == want.read(), name
        return
    got = read_csv(path)
    want = read_csv(golden_path)
    assert len(got) == len(want), f"{name}: row count {len(got)} != {len(want)}"
    for grow, wrow in zip(got, want):
        assert grow.keys() == wrow.keys()
        for key in wrow:
            try:
                expected = float(wrow[key])
            except ValueError:
                assert grow[key] == wrow[key]
                continue
            assert float(grow[key]) == pytest.approx(expected, rel=1e-9), \
                f"{name}: field {key}: {grow[key]} != {wrow[key]}"


def test_hopgraph_count_matches_library(pipeline):
    with open(pipeline["hop_summary"]) as fh:
        summary = json.load(fh)
    terrain = los.load_terrain_asc(os.path.join(DEMO, "terrain.asc"))
    towers = los.load_towers_csv(os.path.join(DEMO, "towers.csv"), terrain=terrain)
    hg = los.build_hop_graph(towers, terrain, los.LosParams())
    assert summary["hops"] == len(hg.hops)
    assert summary["towers"] == len(towers)


def test_hopgraph_rerun_byte_identical(pipeline, tmp_path):
    out2 = str(tmp_path / "hop2")
    assert main(["hopgraph", "--config", pipeline["config"], "--out", out2]) == 0
    first = open(pipeline["hops_csv"]).read()
    second = open(os.path.join(out2, "hops.csv")).read()
    assert first == second


def test_design_budget_zero_is_fiber_only(pipeline):
    rows = read_csv(pipeline["stats_csv"])
    assert float(rows[0]["budget"]) == 0.0
    assert float(rows[0]["towers_used"]) == 0.0
    inp = designer.load_design_input(
        os.path.join(pipeline["design_dir"], "instance_B0.json"))
    fiber_only = designer.evaluate_design(designer.HybridEvaluator(inp), [])
    assert float(rows[0]["mean"]) == pytest.approx(fiber_only.stats.mean, rel=1e-12)


def test_design_ladder_monotone(pipeline):
    rows = read_csv(pipeline["stats_csv"])
    means = [float(r["mean"]) for r in rows]
    assert means == sorted(means, reverse=True) or all(
        later <= earlier + 1e-9 for earlier, later in zip(means, means[1:]))


def test_design_rerun_byte_identical(pipeline, tmp_path):
    out2 = str(tmp_path / "design2")
    assert main(["design", "--config", pipeline["config"], "--out", out2,
                 "--set", f"hops_csv={pipeline['hops_csv']}",
                 "--set", "budget_ladder=[25]"]) == 0
    first = open(pipeline["design"]).read()
    second = open(os.path.join(out2, "design_B25.json")).read()
    assert first == second


def test_design_takes_mw_links_only_from_hops_csv(pipeline, tmp_path, capsys):
    # `hopgraph` alone builds hop graphs: towers without hops.csv exit 1,
    # and neither file makes the fiber-only design.
    capsys.readouterr()
    assert main(["design", "--config", pipeline["config"], "--out", str(tmp_path / "o")]) == 1
    assert "config field 'hops_csv' is required" in capsys.readouterr().err
    out = tmp_path / "fiber_only"
    assert main(["design", "--config", pipeline["config"], "--out", str(out),
                 "--set", "towers_csv=null", "--set", "budget_ladder=[0, 25]"]) == 0
    inp = designer.load_design_input(str(out / "instance_B25.json"))
    assert not inp.mw_km and not designer.load_built_links(str(out / "design_B25.json"))
    rows = read_csv(str(out / "design_stats.csv"))
    assert rows[0]["mean"] == rows[1]["mean"] == read_csv(pipeline["stats_csv"])[0]["mean"]


def test_culled_pipeline_matches_the_library_on_the_culled_towers(tmp_path, monkeypatch):
    # With cull on, hopgraph keeps the demo's six towers of 100 m and more.
    # design from its hops.csv and augment read the same six: design used
    # to relay a link through the culled 95 m ta05 (5 MW links, mean
    # 1.6766), and augment to draw the culled tb02 as an extra series.
    cfgp = write_config(tmp_path, demo_config(
        budget=40.0, cull={"enabled": True, "min_height_m": 100.0}))
    hops, design_dir = str(tmp_path / "hop" / "hops.csv"), tmp_path / "design"
    top = ["--set", f"instance_json={design_dir / 'instance_B40.json'}",
           "--set", f"design_json={design_dir / 'design_B40.json'}"]
    plans, augment = [], capacity.augment
    monkeypatch.setattr(capacity, "augment", lambda *a, **k: plans.append(augment(*a, **k))
                        or plans[-1])
    assert main(["hopgraph", "--config", cfgp, "--out", str(tmp_path / "hop")]) == 0
    assert main(["design", "--config", cfgp, "--out", str(design_dir),
                 "--set", f"hops_csv={hops}"]) == 0
    assert main(["augment", "--config", cfgp, "--out", str(tmp_path / "aug"),
                 "--set", f"hops_csv={hops}", *top]) == 0

    terrain = los.load_terrain_asc(os.path.join(DEMO, "terrain.asc"))
    every = los.load_towers_csv(os.path.join(DEMO, "towers.csv"), terrain)
    towers = los.cull_towers(every, 100.0, 0.5, 50, seed=7)
    culled = {t.id for t in every} - {t.id for t in towers}
    assert len(towers) == 6 and "ta05" in culled and "tb02" in culled
    cities = geo.load_sites_csv(os.path.join(DEMO, "sites.csv"))
    sites = cities + geo.load_sites_csv(os.path.join(DEMO, "dc_sites.csv"))
    fiber = fiberbase.load_fiber_csv(os.path.join(DEMO, "fiber_conduits.csv"),
                                     os.path.join(DEMO, "fiber_endpoints.csv"))
    inp = designer.build_design_input(
        sites, traffic.gravity_matrix(cities), los.build_hop_graph(towers, terrain, los.LosParams()),
        fiberbase.site_fiber_km(fiber, sites), 40.0, radius_km=50.0)
    design = designer.solve_heuristic(inp)
    designer.save_design_input(inp, str(tmp_path / "instance.json"))
    designer.save_design(design, str(tmp_path / "design.json"))
    for got, want in (("instance_B40.json", "instance.json"), ("design_B40.json", "design.json")):
        assert (design_dir / got).read_bytes() == (tmp_path / want).read_bytes(), got
    assert (len(design.built_links), design.towers_used) == (4, 6)
    assert round(design.stats.mean, 4) == 1.7365
    assert not culled & {t for path in inp.tower_paths.values() for t in path}
    (plan,) = plans
    assert plan.total_new_towers == 8 and not culled & set(plan.existing_towers_used)


@pytest.mark.parametrize("model", ["dc_edge", "mix"])
def test_design_with_a_dc_listed_under_a_city_id(pipeline, tmp_path, model):
    # The DC `cc` shares city cc's site, so cc sends no DC-edge demand to itself.
    dcs = tmp_path / "dc_sites.csv"
    dcs.write_text("id,lat,lon,population\ncc,0.15,0.0,0\ndcb,0.45,1.2,0\n")
    cfgp = write_config(tmp_path, demo_config(dc_sites_csv=str(dcs), traffic_model=model,
                                              hops_csv=pipeline["hops_csv"]))
    out = tmp_path / "o"
    assert main(["design", "--config", cfgp, "--out", str(out)]) == 0
    inp = designer.load_design_input(str(out / "instance_B25.json"))
    assert inp.site_ids == ["ca", "cb", "cc", "cd", "ce", "dcb"]
    if model == "dc_edge":
        assert sorted(inp.traffic.as_dict()) == [
            ("ca", "cc"), ("cb", "cc"), ("cd", "dcb"), ("ce", "dcb")]


def test_design_rejects_a_dc_with_a_city_id_elsewhere(pipeline, tmp_path, capsys):
    # DC cc would be merged into city cc's site while dc_edge demand finds
    # its nearest DC by the DC row's own point.
    dcs = tmp_path / "dc_sites.csv"
    dcs.write_text("id,lat,lon,population\ncc,0.45,1.2,0\ndca,0.4,-1.2,0\n")
    cfgp = write_config(tmp_path, demo_config(dc_sites_csv=str(dcs), traffic_model="dc_edge",
                                              hops_csv=pipeline["hops_csv"]))
    capsys.readouterr()
    assert main(["design", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1
    assert (f"{dcs}: line 2: site 'cc' lies at (0.15, 0.0), not at (0.45, 1.2)"
            in capsys.readouterr().err)


def test_design_golden(pipeline):
    assert_matches_golden(pipeline["stats_csv"], "design_stats.csv")


def test_fiber_pruning_golden_and_monotone(pipeline):
    rows = read_csv(pipeline["pruning_csv"])
    means = [float(r["mean"]) for r in rows]
    for earlier, later in zip(means, means[1:]):
        assert later >= earlier - 1e-12
    counts = [int(r["links"]) for r in rows]
    assert counts == sorted(counts, reverse=True)
    assert_matches_golden(pipeline["pruning_csv"], "fiber_pruning.csv")


def test_fiber_tree_conduit_single_step(tmp_path):
    eps = tmp_path / "eps.csv"
    eps.write_text("id,lat,lon,population\na,0,0,1\nb,0,1,1\nc,0,2,1\n")
    conduits = tmp_path / "conduits.csv"
    conduits.write_text("endpoint_a,endpoint_b,fiber_km\na,b,140\nb,c,150\n")
    cfgp = write_config(tmp_path, {
        "fiber_endpoints_csv": str(eps), "fiber_conduits_csv": str(conduits),
        "aggregate_gbps": 5.0})
    out = str(tmp_path / "fiber")
    assert main(["fiber", "--config", cfgp, "--out", out]) == 0
    rows = read_csv(os.path.join(out, "fiber_pruning.csv"))
    assert len(rows) == 1


def test_fiber_keeps_endpoint_file_order(tmp_path):
    # The endpoint file's order is the node order of every fiber matrix: in
    # reverse id order the first step's median differs from the demo's in
    # its last bit.
    with open(os.path.join(DEMO, "fiber_endpoints.csv")) as fh:
        header, *rows = fh.read().splitlines()
    rows.sort(reverse=True)
    eps = tmp_path / "fiber_endpoints.csv"
    eps.write_text("\n".join([header, *rows]) + "\n")
    fiber = fiberbase.load_fiber_csv(os.path.join(DEMO, "fiber_conduits.csv"), str(eps))
    assert list(fiber.endpoints) == [row.split(",")[0] for row in rows]
    cfgp = write_config(tmp_path, demo_config(fiber_endpoints_csv=str(eps)))
    out = str(tmp_path / "fiber")
    assert main(["fiber", "--config", cfgp, "--out", out]) == 0
    assert_matches_golden(os.path.join(out, "fiber_pruning.csv"),
                          "fiber_pruning_reversed_endpoints.csv", exact=True)


def test_weather_zero_rain_intervals_match_baseline(pipeline):
    rows = read_csv(pipeline["weather_intervals"])
    with open(pipeline["design"]) as fh:
        doc = json.load(fh)
    baseline = {f"{r['src']}|{r['dst']}": r["stretch"] for r in doc["per_pair"]}
    dry = [r for r in rows if r["timestamp"] == "2015-07-01T00:00"]
    assert dry
    for row in dry:
        assert float(row["stretch"]) == baseline[row["pair"]]  # bit-exact


def test_weather_storm_increases_stretch(pipeline):
    rows = read_csv(pipeline["weather_intervals"])
    by_time = {}
    for r in rows:
        by_time.setdefault(r["timestamp"], {})[r["pair"]] = float(r["stretch"])
    dry = by_time["2015-07-01T00:00"]
    storm = by_time["2015-07-01T12:00"]
    assert any(storm[p] > dry[p] + 1e-12 for p in storm)
    assert all(storm[p] >= dry[p] - 1e-12 for p in storm)


def test_weather_golden(pipeline):
    assert_matches_golden(pipeline["weather_pct"], "weather_percentiles.csv")


def test_weather_raster_directory_mode(pipeline, tmp_path):
    # Two grids named by timestamp: one dry, one flooding every link.
    rain_dir = tmp_path / "rain"
    rain_dir.mkdir()
    header = ("ncols 5\nnrows 3\nxllcorner -2.2\nyllcorner -0.2\n"
              "cellsize 0.9\nNODATA_value -9999\n")
    dry = " ".join(["0"] * 5)
    wet = " ".join(["300"] * 5)
    (rain_dir / "2015-08-01T00:00.asc").write_text(header + "\n".join([dry] * 3) + "\n")
    (rain_dir / "2015-08-01T12:00.asc").write_text(header + "\n".join([wet] * 3) + "\n")
    out = str(tmp_path / "weather")
    assert main(["weather", "--config", pipeline["config"], "--out", out,
                 "--set", f"instance_json={pipeline['instance']}",
                 "--set", f"design_json={pipeline['design']}",
                 "--set", "rain_csv=null",
                 "--set", f"rain_rasters={rain_dir}"]) == 0
    rows = read_csv(os.path.join(out, "weather_intervals.csv"))
    with open(pipeline["design"]) as fh:
        doc = json.load(fh)
    baseline = {f"{r['src']}|{r['dst']}": r["stretch"] for r in doc["per_pair"]}
    inp = designer.load_design_input(pipeline["instance"])
    fiber_only = designer.evaluate_design(designer.HybridEvaluator(inp), [])
    fiber = {f"{a}|{b}": repr(r.stretch) for (a, b), r in fiber_only.routes.items()}
    for row in rows:
        if row["timestamp"] == "2015-08-01T00:00":
            assert float(row["stretch"]) == float(baseline[row["pair"]])
        else:
            assert float(row["stretch"]) == float(fiber[row["pair"]])


def test_weather_reads_only_the_selected_raster_frames(pipeline, tmp_path, monkeypatch):
    # Two days of a dry and a flooding frame each; one interval per day
    # reads two files, and the CSVs are those of loading all four frames
    # and then selecting.
    rain_dir = tmp_path / "rain"
    rain_dir.mkdir()
    header = ("ncols 5\nnrows 3\nxllcorner -2.2\nyllcorner -0.2\n"
              "cellsize 0.9\nNODATA_value -9999\n")
    stamps = ["2015-08-01T00:00", "2015-08-01T12:00", "2015-08-02T00:00", "2015-08-02T12:00"]
    paths = {t: str(rain_dir / f"{t}.asc") for t in stamps}
    for k, t in enumerate(stamps):
        row = " ".join([("0", "300")[k % 2]] * 5)
        (rain_dir / f"{t}.asc").write_text(header + "\n".join([row] * 3) + "\n")
    chosen = weather.select_intervals(stamps, 1, load_config(pipeline["config"], [], None)["seed"])
    assert len(chosen) == 2 and chosen[0][:10] != chosen[1][:10]
    read = []
    load = los.load_terrain_asc
    out = tmp_path / "weather"
    with monkeypatch.context() as m:
        m.setattr(los, "load_terrain_asc", lambda path: read.append(path) or load(path))
        assert main(["weather", "--config", pipeline["config"], "--out", str(out),
                     "--set", f"instance_json={pipeline['instance']}",
                     "--set", f"design_json={pipeline['design']}",
                     "--set", "rain_csv=null", "--set", f"rain_rasters={rain_dir}",
                     "--set", "weather.intervals_per_day=1"]) == 0
    # The demo config's terrain is read too, for the towers' ground elevations.
    assert [p for p in read if p.startswith(str(rain_dir))] == [paths[t] for t in chosen]
    inp = designer.load_design_input(pipeline["instance"])
    design = designer.evaluate_design(designer.HybridEvaluator(inp),
                                      designer.load_built_links(pipeline["design"]))
    coords = {s.id: s.location for s in inp.sites}
    coords.update((t.id, t.location) for t in los.load_towers_csv(os.path.join(DEMO, "towers.csv")))
    report = weather.analyze(inp, design, [(t, los.load_terrain_asc(paths[t])) for t in chosen],
                             coords)
    weather.write_intervals_csv(report, str(tmp_path / "intervals.csv"))
    weather.write_percentiles_csv(report, str(tmp_path / "percentiles.csv"))
    for got, want in (("weather_intervals.csv", "intervals.csv"),
                      ("weather_percentiles.csv", "percentiles.csv")):
        assert (out / got).read_bytes() == (tmp_path / want).read_bytes()


def test_weather_raster_mode_holds_one_frame_at_a_time(pipeline, tmp_path, monkeypatch):
    # Five frames alternating dry and flooding; a frame is collected before
    # the next one is read.
    rain_dir = tmp_path / "rain"
    rain_dir.mkdir()
    header = ("ncols 5\nnrows 3\nxllcorner -2.2\nyllcorner -0.2\n"
              "cellsize 0.9\nNODATA_value -9999\n")
    for k in range(5):
        row = " ".join([("0", "300")[k % 2]] * 5)
        (rain_dir / f"2015-08-01T{k:02d}:00.asc").write_text(header + "\n".join([row] * 3) + "\n")
    held, alive = [], set()
    load = los.load_terrain_asc

    def tracked(path):
        held.append(len(alive))
        grid = load(path)
        alive.add(path)
        weakref.finalize(grid, alive.discard, path)
        return grid

    monkeypatch.setattr(los, "load_terrain_asc", tracked)
    out = tmp_path / "weather"
    assert main(["weather", "--config", pipeline["config"], "--out", str(out),
                 "--set", f"instance_json={pipeline['instance']}",
                 "--set", f"design_json={pipeline['design']}",
                 "--set", "rain_csv=null", "--set", f"rain_rasters={rain_dir}"]) == 0
    # The demo config's terrain is the first read, for the towers' ground elevations.
    assert held == [0] * 6 and not alive


def test_weather_rejects_a_nan_rain_rate(pipeline, tmp_path, capsys):
    # The storm rows of the demo's rain.csv set to nan used to read as dry.
    with open(os.path.join(DEMO, "rain.csv")) as fh:
        lines = fh.read().splitlines()
    at = next(n for n, line in enumerate(lines) if line.startswith("2015-07-01T12:00"))
    lines = [line.rsplit(",", 1)[0] + ",nan" if line.startswith("2015-07-01T12:00") else line
             for line in lines]
    rain = tmp_path / "rain.csv"
    rain.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["weather", "--config", pipeline["config"], "--out", str(tmp_path / "o"),
                 "--set", f"instance_json={pipeline['instance']}",
                 "--set", f"design_json={pipeline['design']}",
                 "--set", f"rain_csv={rain}"]) == 1
    link = lines[at].split(",")[1]
    assert (f"{rain}: line {at + 1}: link '{link}': rain_mm_h nan must be finite and >= 0"
            in capsys.readouterr().err)


def test_weather_reads_reversed_rain_link_ids_as_the_same_links(pipeline, tmp_path):
    # The storm rows of the demo's rain.csv with each link id reversed used
    # to read as dry; now the outputs match the canonical file's.
    with open(os.path.join(DEMO, "rain.csv")) as fh:
        lines = fh.read().splitlines()
    swapped = [line.replace(lid, "|".join(lid.split("|")[::-1]))
               if line.startswith("2015-07-01T12:00") and (lid := line.split(",")[1]) else line
               for line in lines]
    assert swapped != lines
    rain = tmp_path / "rain.csv"
    rain.write_text("\n".join(swapped) + "\n")
    outs = []
    for name, path in (("canonical", os.path.join(DEMO, "rain.csv")), ("swapped", rain)):
        outs.append(tmp_path / name)
        assert main(["weather", "--config", pipeline["config"], "--out", str(outs[-1]),
                     "--set", f"instance_json={pipeline['instance']}",
                     "--set", f"design_json={pipeline['design']}",
                     "--set", f"rain_csv={path}"]) == 0
    for name in ("weather_intervals.csv", "weather_percentiles.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_weather_rejects_a_rain_link_id_naming_no_site(pipeline, tmp_path, capsys):
    with open(os.path.join(DEMO, "rain.csv")) as fh:
        lines = fh.read().splitlines()
    at = next(n for n, line in enumerate(lines) if line.startswith("2015-07-01T12:00"))
    lines[at] = "2015-07-01T12:00,ca|cz,80.0"
    rain = tmp_path / "rain.csv"
    rain.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["weather", "--config", pipeline["config"], "--out", str(tmp_path / "o"),
                 "--set", f"instance_json={pipeline['instance']}",
                 "--set", f"design_json={pipeline['design']}",
                 "--set", f"rain_csv={rain}"]) == 1
    assert (f"{rain}: line {at + 1}: link 'ca|cz': a link id must be two distinct sites "
            f"of the instance joined by '|'" in capsys.readouterr().err)


def test_weather_names_the_raster_frame_and_link_of_a_negative_rate(pipeline, tmp_path, capsys):
    # One 5 x 3 frame of -5 mm/h over the demo's box.
    rain_dir = tmp_path / "rain"
    rain_dir.mkdir()
    (rain_dir / "2015-08-01T00:00.asc").write_text(
        "ncols 5\nnrows 3\nxllcorner -2.2\nyllcorner -0.2\ncellsize 0.9\n"
        + "\n".join(["-5 -5 -5 -5 -5"] * 3) + "\n")
    capsys.readouterr()
    assert main(["weather", "--config", pipeline["config"], "--out", str(tmp_path / "o"),
                 "--set", f"instance_json={pipeline['instance']}",
                 "--set", f"design_json={pipeline['design']}",
                 "--set", "rain_csv=null", "--set", f"rain_rasters={rain_dir}"]) == 1
    first = "|".join(designer.load_built_links(pipeline["design"])[0])
    assert (f"rain frame 2015-08-01T00:00: link '{first}': negative rain rate -5 mm/h"
            in capsys.readouterr().err)


def test_weather_names_the_raster_frame_and_link_it_misses(pipeline, tmp_path, capsys):
    # A 2 x 2 grid at longitude 100, far from every demo hop.
    rain_dir = tmp_path / "rain"
    rain_dir.mkdir()
    (rain_dir / "2015-08-01T00:00.asc").write_text(
        "ncols 2\nnrows 2\nxllcorner 100\nyllcorner 0\ncellsize 1\n0 0\n0 0\n")
    capsys.readouterr()
    assert main(["weather", "--config", pipeline["config"], "--out", str(tmp_path / "o"),
                 "--set", f"instance_json={pipeline['instance']}",
                 "--set", f"design_json={pipeline['design']}",
                 "--set", "rain_csv=null", "--set", f"rain_rasters={rain_dir}"]) == 1
    first = "|".join(designer.load_built_links(pipeline["design"])[0])
    assert (f"rain frame 2015-08-01T00:00: link '{first}': sample outside terrain bounds"
            in capsys.readouterr().err)


def test_augment_outputs(pipeline):
    with open(pipeline["augment_plan"]) as fh:
        plan = json.load(fh)
    assert "cost" in plan
    assert plan["links"]
    for entry in plan["links"]:
        assert entry["series_count"] >= 1


def test_simulate_outputs(pipeline):
    rows = read_csv(pipeline["flows_csv"])
    assert rows
    for r in rows:
        assert int(r["sent"]) == (int(r["delivered"]) + int(r["dropped"])
                                  + int(r["in_flight"]))
    util = read_csv(pipeline["util_csv"])
    assert all(0.0 <= float(r["utilization"]) <= 1.0 for r in util)


def test_simulate_golden(pipeline, tmp_path):
    # The README demo's plain run at 0.05 s simulated, byte for byte (CRLF
    # line ends included) as the event loop wrote it before the replay.
    out = tmp_path / "sim"
    assert main(["simulate", "--config", pipeline["config"], "--out", str(out),
                 "--set", f"instance_json={pipeline['instance']}",
                 "--set", f"design_json={pipeline['design']}",
                 "--set", "sim.sim_seconds=0.05"]) == 0
    for name in ("flows.csv", "link_utilization.csv"):
        golden = os.path.join(GOLDEN, name)
        if REGEN:
            with open(golden, "wb") as fh:
                fh.write((out / name).read_bytes())
        with open(golden, "rb") as fh:
            assert (out / name).read_bytes() == fh.read(), name


def test_simulate_perturbation_mode(pipeline, tmp_path):
    out = str(tmp_path / "pert")
    assert main(["simulate", "--config", pipeline["config"], "--out", out,
                 "--set", f"instance_json={pipeline['instance']}",
                 "--set", f"design_json={pipeline['design']}",
                 "--set", "sim.sim_seconds=0.01",
                 "--set", "sim.gammas=[0.0, 0.3]",
                 "--set", "sim.loads=[0.2, 0.5]"]) == 0
    rows = read_csv(os.path.join(out, "perturbation.csv"))
    assert len(rows) == 4


@pytest.mark.parametrize("key", ["gammas", "loads"])
def test_simulate_sweep_needs_both_keys(pipeline, tmp_path, capsys, key):
    capsys.readouterr()
    assert main(["simulate", "--config", pipeline["config"], "--out", str(tmp_path / "o"),
                 "--set", f"instance_json={pipeline['instance']}",
                 "--set", f"design_json={pipeline['design']}",
                 "--set", f"sim.{key}=[0.1]"]) == 1
    assert "a sweep needs both sim.gammas and sim.loads" in capsys.readouterr().err


@pytest.mark.parametrize("assignment", [
    "sim.sim_seconds=Infinity", "sim.sim_seconds=NaN", "aggregate_gbps=Infinity",
    "sim.queue_capacity_packets=2.5", "sim.packet_bytes=0.5"])
def test_simulate_rejects_non_finite_and_fractional_values(pipeline, tmp_path, capsys,
                                                           assignment):
    # An infinite run used to never return; nan ran no packet and exited 0.
    capsys.readouterr()
    assert main(["simulate", "--config", pipeline["config"], "--out", str(tmp_path / "o"),
                 "--set", f"instance_json={pipeline['instance']}",
                 "--set", f"design_json={pipeline['design']}",
                 "--set", assignment]) == 1
    key = assignment.split("=")[0].split(".")[-1]
    assert f"input error: {key} must be" in capsys.readouterr().err


@pytest.mark.parametrize("command, assignment", [
    *(("hopgraph", f"los.{key}=NaN") for key in (
        "f_ghz", "k_factor", "max_range_km", "usable_height_fraction",
        "obstruction_margin_m", "sample_step_m")),
    ("hopgraph", "los.f_ghz=Infinity"), ("hopgraph", "los.max_range_km=Infinity"),
    *(("weather", f"attenuation.{key}=NaN") for key in (
        "k_coeff", "alpha", "fail_threshold_db")),
    ("weather", "attenuation.k_coeff=Infinity"),
    *(("augment", f"mw_cost.{key}=NaN") for key in (
        "link_cost_1gbps", "new_tower", "rent_per_tower_year", "term_years",
        "per_series_capacity_gbps")),
    ("augment", "mw_cost.new_tower=Infinity"),
    *(("fiber", f"lease_cost.{key}=NaN") for key in (
        "price_per_gbps_km_month", "equipment_per_site", "colo_per_site_month", "term_months")),
    ("fiber", "lease_cost.price_per_gbps_km_month=Infinity")])
def test_radio_parameters_must_be_finite(pipeline, tmp_path, capsys, command, assignment):
    # nan passes every bound check, so a run would read 0 feasible hops,
    # fail no link or print a nan cost and exit 0; an infinite f_ghz drops
    # the Fresnel term.
    capsys.readouterr()
    assert main([command, "--config", pipeline["config"], "--out", str(tmp_path / "o"),
                 "--set", f"instance_json={pipeline['instance']}",
                 "--set", f"design_json={pipeline['design']}",
                 "--set", f"hops_csv={pipeline['hops_csv']}",
                 "--set", assignment]) == 1
    key = assignment.split("=")[0].split(".")[-1]
    assert f"input error: {key} must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("command, assignments, field", [
    ("design", ["budget=NaN"], "budget"),
    ("design", ["budget=Infinity"], "budget"),
    ("design", ["budget_ladder=[NaN]"], "budget"),
    ("design", ["traffic_model=mix", "mix_ratios=[NaN, 1, 1]"], "mix_ratios"),
    ("design", ["site_link_radius_km=NaN"], "radius_km"),
    ("fiber", ["aggregate_gbps=NaN"], "aggregate_gbps"),
    ("fiber", ["aggregate_gbps=Infinity"], "aggregate_gbps"),
    ("augment", ["aggregate_gbps=NaN"], "aggregate_gbps"),
    ("augment", ["aggregate_gbps=Infinity"], "aggregate_gbps")],
    ids=["budget_nan", "budget_inf", "ladder_nan", "mix_nan", "radius_nan", "fiber_aggregate_nan",
         "fiber_aggregate_inf", "augment_aggregate_nan", "augment_aggregate_inf"])
def test_non_finite_top_level_numbers_exit_one(pipeline, tmp_path, capsys, command,
                                               assignments, field):
    # Each used to exit 0 with a fiber-only design, no MW link or a nan or
    # inf result, or to fail in augment's series count without naming it.
    argv = [command, "--config", pipeline["config"], "--out", str(tmp_path / "o"),
            "--set", f"hops_csv={pipeline['hops_csv']}"]
    if command == "augment":
        argv += ["--set", f"instance_json={pipeline['instance']}",
                 "--set", f"design_json={pipeline['design']}"]
    capsys.readouterr()
    assert main(argv + [a for s in assignments for a in ("--set", s)]) == 1
    err = capsys.readouterr().err
    assert f"input error: {field} must be finite" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["hopgraph", "weather"])
def test_another_frequency_needs_both_attenuation_coefficients(pipeline, tmp_path, capsys,
                                                               command):
    # The shipped k and alpha are ITU-R P.838's at 11 GHz; the pair set
    # below is made up for the test.
    argv = [command, "--config", pipeline["config"], "--set", "los.f_ghz=6",
            "--set", f"instance_json={pipeline['instance']}",
            "--set", f"design_json={pipeline['design']}"]
    for i, coeffs in enumerate([[], ["attenuation.k_coeff=0.002"], ["attenuation.alpha=1.5"]]):
        capsys.readouterr()
        sets = [arg for c in coeffs for arg in ("--set", c)]
        assert main([*argv, *sets, "--out", str(tmp_path / f"o{i}")]) == 1
        err = capsys.readouterr().err
        for key in ("los.f_ghz", "attenuation.k_coeff", "attenuation.alpha"):
            assert key in err
    out = tmp_path / "ok"
    assert main([*argv, "--set", "attenuation.k_coeff=0.002", "--set", "attenuation.alpha=1.5",
                 "--out", str(out)]) == 0
    assert load_config(str(out / "config_used.json"), [], None)["los"]["f_ghz"] == 6


@pytest.mark.parametrize("command", ["augment", "weather", "simulate", "export-geojson"])
def test_instance_with_another_fiber_slowdown_exits_one(pipeline, tmp_path, capsys, command):
    with open(pipeline["instance"]) as fh:
        doc = json.load(fh)
    doc["fiber_slowdown"] = 2.0
    bad = tmp_path / "instance.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([command, "--config", pipeline["config"], "--out", str(tmp_path / "o"),
                 "--set", f"instance_json={bad}", "--set", f"design_json={pipeline['design']}",
                 "--set", f"hops_csv={pipeline['hops_csv']}"]) == 1
    assert f"{bad}: fiber_slowdown 2.0 must be 1.5" in capsys.readouterr().err


def test_demo_routes_match_dijkstra_reference(pipeline, monkeypatch):
    # Routes come from the distance kernel's next hops; the Dijkstra code
    # they replaced is the oracle. The changed demo routes are equal-length
    # alternatives through fiber links of the metric closure.
    changed = {}
    for budget in (0, 10, 25):
        inp = designer.load_design_input(
            os.path.join(pipeline["design_dir"], f"instance_B{budget}.json"))
        built = designer.load_built_links(
            os.path.join(pipeline["design_dir"], f"design_B{budget}.json"))
        changed[budget] = assert_design_matches_reference(inp, built)
    assert changed == {0: {("cb", "dcb"), ("ce", "dca")}, 10: {("dca", "dcb")}, 25: set()}

    inp = designer.load_design_input(pipeline["instance"])
    topo = simnet.load_topology(
        os.path.join(os.path.dirname(pipeline["flows_csv"]), "topology.json"))
    assert assert_routing_matches_reference(topo, inp.traffic, monkeypatch) == 0

    # The demo's fiber demand is uniform: one endpoint has no population.
    fiber = fiberbase.load_fiber_csv(os.path.join(DEMO, "fiber_conduits.csv"),
                                     os.path.join(DEMO, "fiber_endpoints.csv"))
    sites = sorted(fiber.endpoints)
    demand = TrafficMatrix({pair_key(a, b): 1.0 for i, a in enumerate(sites)
                            for b in sites[i + 1:]})
    for step in fiberbase.prune_links(fiber, sites):
        got = fiberbase.route_fiber_demand(step.graph, demand, 12.0)
        assert list(got.items()) == list(
            reference_route_fiber_demand(step.graph, demand, 12.0).items())


def test_geojson_features(pipeline):
    with open(pipeline["geojson"]) as fh:
        gj = json.load(fh)
    assert gj["type"] == "FeatureCollection"
    media = {f["properties"]["medium"] for f in gj["features"]}
    assert media == {"mw", "fiber"}


def test_effective_config_echoed(pipeline):
    echoed = os.path.join(os.path.dirname(pipeline["hops_csv"]), "config_used.json")
    with open(echoed) as fh:
        cfg = json.load(fh)
    assert cfg["seed"] == 7
    assert cfg["site_link_radius_km"] == 50.0


def test_every_stage_echoes_its_effective_config_and_a_failed_one_none(pipeline, tmp_path):
    assert sorted(argv[0] for argv in pipeline["argv"]) == sorted(COMMANDS)
    for argv in pipeline["argv"]:
        args = build_parser().parse_args(argv)
        with open(os.path.join(args.out, "config_used.json")) as fh:
            assert json.load(fh) == load_config(args.config, args.set, args.seed), argv[0]
    out = tmp_path / "o"
    cfgp = write_config(tmp_path, demo_config(towers_csv="/nonexistent.csv"))
    assert main(["hopgraph", "--config", cfgp, "--out", str(out)]) == 1
    assert out.is_dir() and not (out / "config_used.json").exists()


def test_exit_code_on_missing_file(tmp_path):
    cfgp = write_config(tmp_path, demo_config(towers_csv="/nonexistent.csv"))
    assert main(["hopgraph", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1


def test_exit_code_on_empty_tower_file(tmp_path):
    empty = tmp_path / "towers.csv"
    empty.write_text("id,lat,lon,height_m,ground_elevation_m\n")
    cfgp = write_config(tmp_path, demo_config(towers_csv=str(empty)))
    assert main(["hopgraph", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1


def test_exit_code_on_unknown_config_key(tmp_path, capsys):
    cfgp = write_config(tmp_path, demo_config())
    assert main(["design", "--config", cfgp, "--out", str(tmp_path / "o"),
                 "--set", "nonsense.key=1"]) == 1
    # The unpriced 500 Mbps radio cost is no longer a config key.
    cfgp = write_config(tmp_path, demo_config(mw_cost={"link_cost_500mbps": 75000.0}),
                        name="old.json")
    capsys.readouterr()
    assert main(["augment", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1
    assert "unknown config key 'link_cost_500mbps'" in capsys.readouterr().err


def test_exit_code_on_disconnected_sites(tmp_path):
    # Two sites, no towers, fiber graph with no conduit between them.
    sites = tmp_path / "sites.csv"
    sites.write_text("id,lat,lon,population\np,0,0,10\nq,0,1,10\n")
    eps = tmp_path / "eps.csv"
    eps.write_text("id,lat,lon,population\nf_p,0,0,0\nf_q,0,1,0\nf_r,0.5,0.5,0\n")
    conduits = tmp_path / "conduits.csv"
    conduits.write_text("endpoint_a,endpoint_b,fiber_km\nf_p,f_r,80\n")
    cfgp = write_config(tmp_path, {
        "sites_csv": str(sites), "fiber_endpoints_csv": str(eps),
        "fiber_conduits_csv": str(conduits), "budget": 0.0})
    assert main(["design", "--config", cfgp, "--out", str(tmp_path / "o")]) == 2


def test_exit_code_on_hops_without_towers_csv(pipeline, tmp_path, capsys):
    cfgp = write_config(tmp_path, demo_config(towers_csv=None, hops_csv=pipeline["hops_csv"]))
    capsys.readouterr()
    assert main(["design", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1
    assert "'towers_csv'" in capsys.readouterr().err
    assert main(["augment", "--config", cfgp, "--out", str(tmp_path / "o"),
                 "--set", f"instance_json={pipeline['instance']}",
                 "--set", f"design_json={pipeline['design']}"]) == 1
    assert "'towers_csv'" in capsys.readouterr().err


def test_exit_code_on_site_id_of_a_tower(pipeline, tmp_path, capsys):
    with open(os.path.join(DEMO, "dc_sites.csv")) as fh:
        text = fh.read()
    dcs = tmp_path / "dc_sites.csv"
    dcs.write_text(text.replace("\ndca,", "\nta03,"))
    cfgp = write_config(tmp_path, demo_config(dc_sites_csv=str(dcs),
                                              hops_csv=pipeline["hops_csv"]))
    capsys.readouterr()
    assert main(["design", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1
    assert "site id 'ta03' is also a tower id" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf", "0", "self-loop"])
def test_exit_code_on_bad_hop_row(pipeline, tmp_path, capsys, bad):
    # Line 5 of the hop file: its length is not finite and > 0, or it joins
    # a tower to itself.
    rows = read_csv(pipeline["hops_csv"])
    if bad == "self-loop":
        rows[3]["tower_b"] = rows[3]["tower_a"]
    else:
        rows[3]["length_km"] = bad
    hops = tmp_path / "hops.csv"
    with open(hops, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    cfgp = write_config(tmp_path, demo_config(hops_csv=str(hops)))
    capsys.readouterr()
    assert main(["design", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"{hops}: line 5: hop ({rows[3]['tower_a']}, {rows[3]['tower_b']})" in err


@pytest.mark.parametrize("key", ["hops_csv", "sites_csv"])
def test_exit_code_names_file_and_line_of_a_non_number(pipeline, tmp_path, capsys, key):
    # A hop row `ta01,ta02,abc` on line 5, or a site row `zz,abc,1.0,5`
    # appended after the demo's six lines.
    source = pipeline["hops_csv"] if key == "hops_csv" else os.path.join(DEMO, "sites.csv")
    with open(source) as fh:
        lines = fh.read().splitlines()
    if key == "hops_csv":
        lines[4] = ",".join(lines[4].split(",")[:2] + ["abc"])
    else:
        lines.append("zz,abc,1.0,5")
    bad = tmp_path / os.path.basename(source)
    bad.write_text("\n".join(lines) + "\n")
    line = 5 if key == "hops_csv" else 7
    cfgp = write_config(tmp_path, demo_config(**{"hops_csv": pipeline["hops_csv"],
                                                 key: str(bad)}))
    capsys.readouterr()
    assert main(["design", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1
    assert (f"{bad}: line {line}: could not convert string to float: 'abc'"
            in capsys.readouterr().err)


def test_exit_code_on_nan_conduit(tmp_path, capsys):
    with open(os.path.join(DEMO, "fiber_conduits.csv")) as fh:
        text = fh.read()
    conduits = tmp_path / "fiber_conduits.csv"
    conduits.write_text(text.replace("f_cb,f_cc,125.864", "f_cb,f_cc,nan"))
    cfgp = write_config(tmp_path, demo_config(fiber_conduits_csv=str(conduits)))
    capsys.readouterr()
    assert main(["fiber", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1
    assert f"{conduits}: line 3: link (f_cb, f_cc): fiber_km" in capsys.readouterr().err


@pytest.mark.parametrize("command, key", [("design", "sites_csv"),
                                          ("fiber", "fiber_endpoints_csv")])
def test_exit_code_names_file_and_line_of_a_nan_population(pipeline, tmp_path, capsys,
                                                           command, key):
    # The demo's `cb` site (line 3) with population nan: design used to
    # report a nan mean stretch, and fiber to fall back to uniform weights.
    source = demo_config()[key]
    with open(source) as fh:
        lines = fh.read().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0] + ",nan"
    bad = tmp_path / os.path.basename(source)
    bad.write_text("\n".join(lines) + "\n")
    cfgp = write_config(tmp_path, demo_config(**{"hops_csv": pipeline["hops_csv"],
                                                 key: str(bad)}))
    capsys.readouterr()
    assert main([command, "--config", cfgp, "--out", str(tmp_path / "o")]) == 1
    site = lines[2].split(",")[0]
    assert (f"{bad}: line 3: site '{site}': population nan must be finite and >= 0"
            in capsys.readouterr().err)


def test_usage_error_exits_one(capsys):
    assert main(["design", "--config"]) == 1
    assert main([]) == 1
    assert "required: command" in capsys.readouterr().err
    assert main(["bogus", "--out", "o"]) == 1
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "{" + ",".join(COMMANDS) + "}" in out
    assert len(COMMANDS) == 7


@pytest.mark.parametrize("command, key", [("hopgraph", "towers_csv"), ("design", "hops_csv"),
                                          ("design", "sites_csv")])
def test_exit_code_names_file_and_line_of_a_short_row(pipeline, tmp_path, capsys, command, key):
    # Line 3 keeps only its first two fields, e.g. `ta02,0.1000`.
    source = {"towers_csv": os.path.join(DEMO, "towers.csv"), "hops_csv": pipeline["hops_csv"],
              "sites_csv": os.path.join(DEMO, "sites.csv")}[key]
    with open(source) as fh:
        lines = fh.read().splitlines()
    lines[2] = ",".join(lines[2].split(",")[:2])
    bad = tmp_path / os.path.basename(source)
    bad.write_text("\n".join(lines) + "\n")
    cfgp = write_config(tmp_path, demo_config(**{"hops_csv": pipeline["hops_csv"],
                                                 key: str(bad)}))
    capsys.readouterr()
    assert main([command, "--config", cfgp, "--out", str(tmp_path / "o")]) == 1
    need = 4 if key == "towers_csv" else 3
    assert f"{bad}: line 3: expected {need} fields, found 2" in capsys.readouterr().err


def test_weather_reroutes_once_per_failure_set_on_demo(pipeline, monkeypatch):
    inp = designer.load_design_input(pipeline["instance"])
    built = designer.load_built_links(pipeline["design"])
    design = designer.evaluate_design(designer.HybridEvaluator(inp), built)
    coords = {s.id: s.location for s in inp.sites}
    coords.update((t.id, t.location) for t in los.load_towers_csv(os.path.join(DEMO, "towers.csv")))
    field = weather.load_rain_csv(os.path.join(DEMO, "rain.csv"), [s.id for s in inp.sites])
    report = assert_one_reroute_per_failure_set(monkeypatch, inp, design, field, coords)
    assert any(i.failed for i in report.intervals)


def test_hopgraph_names_tower_outside_terrain(tmp_path, capsys):
    # One more tower just west of the demo raster, within range of ta01.
    with open(os.path.join(DEMO, "towers.csv")) as fh:
        text = fh.read()
    towers = tmp_path / "towers.csv"
    towers.write_text(text + "zz_west,0.1000,-2.3000,95,0\n")
    cfgp = write_config(tmp_path, demo_config(towers_csv=str(towers)))
    capsys.readouterr()
    assert main(["hopgraph", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1
    assert "tower 'zz_west' outside terrain bounds" in capsys.readouterr().err


@pytest.mark.parametrize("defect", ["header", "body"])
def test_hopgraph_names_file_and_line_of_a_bad_terrain_field(tmp_path, capsys, defect):
    # The demo terrain with `ncols` left without its value (line 1), or with
    # one cell of its second body row (line 8) replaced by `x`.
    with open(os.path.join(DEMO, "terrain.asc")) as fh:
        lines = fh.read().splitlines()
    if defect == "header":
        lines[0], line, message = "ncols", 1, "header field 'ncols' has no value"
    else:
        lines[7] = lines[7].replace("0", "x", 1)
        line, message = 8, "could not convert string to float: 'x'"
    terrain = tmp_path / "terrain.asc"
    terrain.write_text("\n".join(lines) + "\n")
    cfgp = write_config(tmp_path, demo_config(terrain_asc=str(terrain)))
    capsys.readouterr()
    assert main(["hopgraph", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1
    assert f"{terrain}: line {line}: {message}" in capsys.readouterr().err


def test_os_errors_exit_one_naming_the_path(pipeline, tmp_path, capsys):
    # `--out` naming a plain file, then `rain_rasters` naming one.
    afile = tmp_path / "afile"
    afile.write_text("")
    weather_argv = ["weather", "--config", pipeline["config"], "--out", str(tmp_path / "w"),
                    "--set", f"instance_json={pipeline['instance']}",
                    "--set", f"design_json={pipeline['design']}", "--set", "rain_csv=null"]
    for argv in (["fiber", "--config", pipeline["config"], "--out", str(afile)],
                 weather_argv + ["--set", f"rain_rasters={afile}"]):
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error:") and str(afile) in err, argv[0]
        assert "Traceback" not in err
    # rain_rasters is a directory path; a {timestamp: path} map is refused.
    assert main(weather_argv + ["--set", f'rain_rasters={{"t": "{afile}"}}']) == 1
    assert "error: rain_rasters must name a directory" in capsys.readouterr().err


@pytest.mark.parametrize("fault", ["conduit_endpoint", "mw_cost", "built_link", "tower_path",
                                   "tower_path_key"])
def test_exit_code_names_the_line_or_pair_of_an_input_fault(pipeline, tmp_path, capsys, fault):
    # One fault per case: a conduits row naming an unknown endpoint, an
    # instance MW pair without a tower cost, a design link the instance
    # lacks, a built link without a recorded tower path, and a tower path
    # keyed by a link id that is not two sites joined by '|'.
    inp = designer.load_design_input(pipeline["instance"])
    with open(pipeline["instance"]) as fh:
        instance = json.load(fh)
    with open(pipeline["design"]) as fh:
        design = json.load(fh)
    ids = inp.site_ids
    command = "export-geojson"
    if fault == "conduit_endpoint":
        with open(os.path.join(DEMO, "fiber_conduits.csv")) as fh:
            rows = fh.read().splitlines()
        bad = tmp_path / "conduits.csv"
        bad.write_text("\n".join(rows[:2] + ["f_ca,f_zz,10.0"] + rows[2:]) + "\n")
        command, sets = "fiber", [f"fiber_conduits_csv={bad}"]
        message = f"{bad}: line 3: link (f_ca, f_zz) references unknown endpoint"
    elif fault == "mw_cost":
        pair = min(inp.mw_km)
        i, j = ids.index(pair[0]), ids.index(pair[1])
        instance["mw_cost_towers"][i][j] = instance["mw_cost_towers"][j][i] = None
        message = f"mw pair {pair} lacks a cost entry"
    elif fault == "built_link":
        pair = min(p for p in inp.geodesic if p not in inp.mw_km)
        design["built_links"].append(list(pair))
        message = f"built link {pair} is not an available MW link"
    elif fault == "tower_path":
        pair = tuple(design["built_links"][0])
        del instance["tower_paths"]["|".join(pair)]
        command, message = "weather", f"no tower path recorded for built link {pair}"
    else:
        key = "|".join(design["built_links"][0])
        bad = key.replace("|", "-")
        instance["tower_paths"][bad] = instance["tower_paths"].pop(key)
        command = "weather"
        message = (f"{tmp_path / 'instance_json.json'}: link {bad!r}: "
                   "a link id must be two distinct sites of the instance joined by '|'")
    if fault != "conduit_endpoint":
        sets = []
        for key, doc in (("instance_json", instance), ("design_json", design)):
            path = tmp_path / f"{key}.json"
            path.write_text(json.dumps(doc))
            sets.append(f"{key}={path}")
    capsys.readouterr()
    argv = [command, "--config", pipeline["config"], "--out", str(tmp_path / "o")]
    assert main(argv + [a for s in sets for a in ("--set", s)]) == 1
    assert message in capsys.readouterr().err
