"""Batch command-line front end.

Commands run the pipeline stages on file artifacts: `hopgraph` builds
tower-tower hop graphs, `design` optimizes topologies over budget
ladders, `fiber` runs the fiber-only baseline, `augment` provisions
bandwidth, `weather` replays precipitation failures, `simulate` drives
the packet simulator, and `export-geojson` renders designs for maps.

Exit codes: 0 success, 1 input or parse error, 2 infeasibility (e.g.
disconnected sites). All randomness flows from the configured seed; the
effective configuration is echoed into the output directory.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import os
import sys

from . import capacity, designer, fiberbase, geo, los, simnet, traffic, weather
from .traffic import TrafficMatrix

DEFAULT_CONFIG: dict = {
    "towers_csv": None,
    "terrain_asc": None,
    "sites_csv": None,
    "dc_sites_csv": None,
    "fiber_endpoints_csv": None,
    "fiber_conduits_csv": None,
    "hops_csv": None,
    "instance_json": None,
    "design_json": None,
    "rain_csv": None,
    "rain_rasters": None,  # directory of <timestamp>.asc grids
    "seed": 0,
    "budget": 0.0,
    "budget_ladder": [],
    "aggregate_gbps": 100.0,
    "site_link_radius_km": 15.0,
    "traffic_model": "gravity",  # gravity | inter_dc | dc_edge | mix
    "mix_ratios": [4.0, 3.0, 3.0],
    "los": dataclasses.asdict(los.LosParams()),
    "cull": {
        "enabled": False, "min_height_m": 100.0, "grid_cell_deg": 0.5,
        "max_per_cell": 50,
    },
    "mw_cost": dataclasses.asdict(capacity.MwCostModel()),
    "lease_cost": dataclasses.asdict(fiberbase.LeaseCostModel()),
    "attenuation": dataclasses.asdict(weather.AttenuationModel()),
    "weather": {"intervals_per_day": 0},  # 0 = use every timestamp
    # The run-wide aggregate_gbps and seed stay top-level keys.
    "sim": {**{k: v for k, v in dataclasses.asdict(simnet.SimConfig()).items()
               if k not in ("aggregate_gbps", "seed")},
            "fiber_capacity_gbps": 1000.0, "gammas": [], "loads": []},
}


class _Parser(argparse.ArgumentParser):
    # Usage problems are input errors: exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


class InputError(Exception):
    pass


def _deep_merge(base: dict, overlay: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in overlay.items():
        if key not in out:
            raise InputError(f"unknown config key {key!r}")
        if isinstance(out[key], dict) and isinstance(value, dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def _apply_set(cfg: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise InputError(f"--set expects key=value, got {assignment!r}")
    dotted, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = cfg
    keys = dotted.split(".")
    for key in keys[:-1]:
        if key not in node or not isinstance(node[key], dict):
            raise InputError(f"unknown config path {dotted!r}")
        node = node[key]
    if keys[-1] not in node:
        raise InputError(f"unknown config key {dotted!r}")
    node[keys[-1]] = value


def load_config(path: str | None, sets: list[str], seed: int | None) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        with open(path) as fh:
            cfg = _deep_merge(cfg, json.load(fh))
    for assignment in sets:
        _apply_set(cfg, assignment)
    if seed is not None:
        cfg["seed"] = seed
    return cfg


def _require(cfg: dict, *keys: str) -> None:
    for key in keys:
        if not cfg.get(key):
            raise InputError(f"config field {key!r} is required for this command")


def _load_towers(cfg, terrain=None) -> list[los.Tower]:
    """The towers of `towers_csv`, culled when `cull.enabled`, as every
    stage sees them. Missing ground elevations come from `terrain`, else
    from `terrain_asc` when it is set."""
    _require(cfg, "towers_csv")
    if terrain is None and cfg.get("terrain_asc"):
        terrain = los.load_terrain_asc(cfg["terrain_asc"])
    towers = los.load_towers_csv(cfg["towers_csv"], terrain=terrain)
    if not towers:
        raise InputError(f"{cfg['towers_csv']}: no towers")
    cull = cfg["cull"]
    if cull["enabled"]:
        try:
            towers = los.cull_towers(towers, cull["min_height_m"], cull["grid_cell_deg"],
                                     cull["max_per_cell"], cfg["seed"])
        except ValueError as exc:  # the message starts with the setting's name
            raise InputError(f"cull.{exc}") from None
    return towers


def _load_hop_graph(cfg) -> los.HopGraph:
    """The hop graph `hopgraph` saved, over the towers it was built from."""
    _require(cfg, "towers_csv", "hops_csv")
    return los.load_hops_csv(cfg["hops_csv"], _load_towers(cfg))


def _radio(cfg) -> tuple[los.LosParams, weather.AttenuationModel]:
    """`los` and `attenuation`, one radio model at the one frequency `los.f_ghz`."""
    p, model = los.LosParams(**cfg["los"]), weather.AttenuationModel(**cfg["attenuation"])
    ghz, k, alpha = weather.P838_11_GHZ
    if p.f_ghz != ghz and (model.k_coeff == k or model.alpha == alpha):
        raise InputError(f"los.f_ghz={p.f_ghz:g} needs its own attenuation.k_coeff and "
                         f"attenuation.alpha: the shipped pair is ITU-R P.838's at {ghz:g} GHz")
    return p, model


def _traffic_matrix(cfg, cities, dcs) -> TrafficMatrix:
    model = cfg["traffic_model"]
    if model == "gravity":
        return traffic.gravity_matrix(cities)
    if model == "inter_dc":
        return traffic.inter_dc_matrix(dcs)
    if model == "dc_edge":
        return traffic.dc_edge_matrix(cities, dcs)
    if model == "mix":
        return traffic.mix(
            [traffic.gravity_matrix(cities), traffic.dc_edge_matrix(cities, dcs),
             traffic.inter_dc_matrix(dcs)],
            traffic.TrafficMix(tuple(cfg["mix_ratios"])))
    raise InputError(f"unknown traffic model {model!r}")


def _load_sites(cfg):
    _require(cfg, "sites_csv")
    cities = geo.load_sites_csv(cfg["sites_csv"])
    # A DC with a city's id is that city's site: nearest DCs are found by
    # the DC rows' points, so it must lie at the city's.
    dcs = (geo.load_sites_csv(cfg["dc_sites_csv"], {c.id: c.location for c in cities})
           if cfg.get("dc_sites_csv") else [])
    return cities, dcs


# ---------------------------------------------------------------------------
# Commands


def cmd_hopgraph(cfg, outdir) -> None:
    params, _ = _radio(cfg)
    _require(cfg, "terrain_asc")
    terrain = los.load_terrain_asc(cfg["terrain_asc"])
    towers = _load_towers(cfg, terrain)
    hop_graph = los.build_hop_graph(towers, terrain, params)
    los.save_hops_csv(hop_graph, os.path.join(outdir, "hops.csv"))
    summary = {"towers": len(towers), "hops": len(hop_graph.hops)}
    geo.write_json(summary, os.path.join(outdir, "hopgraph_summary.json"))
    print(f"hopgraph: {summary['towers']} towers, {summary['hops']} feasible hops")


def _assemble_input(cfg, budget: float) -> designer.DesignInput:
    cities, dcs = _load_sites(cfg)
    sites = cities + [d for d in dcs if d.id not in {c.id for c in cities}]
    matrix = _traffic_matrix(cfg, cities, dcs)
    # MW links need the hop graph `hopgraph` saved; without towers the design is fiber only.
    hop_graph = (_load_hop_graph(cfg) if cfg.get("towers_csv") or cfg.get("hops_csv")
                 else None)
    _require(cfg, "fiber_endpoints_csv", "fiber_conduits_csv")
    fiber = fiberbase.load_fiber_csv(cfg["fiber_conduits_csv"], cfg["fiber_endpoints_csv"])
    return designer.build_design_input(
        sites, matrix, hop_graph, fiberbase.site_fiber_km(fiber, sites), budget,
        radius_km=cfg["site_link_radius_km"])


def cmd_design(cfg, outdir) -> None:
    ladder = list(cfg["budget_ladder"]) or [cfg["budget"]]
    # Nothing but the budget varies along the ladder: build the instance once.
    if cfg.get("instance_json"):
        base = designer.load_design_input(cfg["instance_json"])
    else:
        base = _assemble_input(cfg, float(ladder[0]))
    stats_rows = []
    for budget in ladder:
        inp = dataclasses.replace(base, budget=float(budget))
        design = designer.solve_heuristic(inp)
        tag = f"{budget:g}"
        designer.save_design_input(inp, os.path.join(outdir, f"instance_B{tag}.json"))
        designer.save_design(design, os.path.join(outdir, f"design_B{tag}.json"))
        geo.write_json(designer.design_to_geojson(inp, design),
                       os.path.join(outdir, f"links_B{tag}.geojson"))
        stats_rows.append([budget, design.towers_used, design.stats.mean,
                           design.stats.median, design.stats.p95])
        print(f"design B={tag}: mean stretch {design.stats.mean:.4f}, "
              f"{len(design.built_links)} MW links, {design.towers_used:g} towers")
    geo.write_csv(os.path.join(outdir, "design_stats.csv"),
                  "budget,towers_used,mean,median,p95", stats_rows)


def cmd_fiber(cfg, outdir) -> None:
    _require(cfg, "fiber_endpoints_csv", "fiber_conduits_csv")
    fiber = fiberbase.load_fiber_csv(cfg["fiber_conduits_csv"], cfg["fiber_endpoints_csv"])
    endpoints = sorted(fiber.endpoints.values(), key=lambda ep: ep.id)
    sites = [ep.id for ep in endpoints]
    # Gravity weighting needs every population; otherwise pairs weigh alike.
    weights = (traffic.gravity_matrix(endpoints)
               if all(ep.population > 0 for ep in endpoints) else None)
    demand = weights if weights is not None else TrafficMatrix(
        dict.fromkeys(traffic.PairIndex(sites).pairs, 1.0))
    model = fiberbase.LeaseCostModel(**cfg["lease_cost"])
    steps = fiberbase.prune_links(fiber, sites, weights)
    aggregate = cfg["aggregate_gbps"]
    costs = [fiberbase.lease_cost(fiberbase.provision_wavelengths(step.graph, demand, aggregate),
                                  step.graph, model) for step in steps]
    geo.write_csv(os.path.join(outdir, "fiber_pruning.csv"),
                  "links,mean,median,p95,total_fiber_km,cost_total_usd",
                  ([len(step.graph.links), *map(repr, (
                      step.stats.mean, step.stats.median, step.stats.p95,
                      step.graph.total_fiber_km(), cost.total_usd))]
                   for step, cost in zip(steps, costs)))
    # The first step is the unpruned graph: its plan is the baseline's. The
    # paper gives its stretch both gravity-weighted and uniform over pairs.
    base, cost = steps[0].stats, costs[0]
    doc = {"stats": dataclasses.asdict(base), "lease_cost": dataclasses.asdict(cost)}
    if weights is not None:
        doc["uniform_stats"] = dataclasses.asdict(fiberbase.fiber_stretch_stats(fiber, sites))
    geo.write_json(doc, os.path.join(outdir, "fiber_baseline.json"))
    print(f"fiber: median stretch {base.median:.3f}, "
          f"{len(steps)} pruning steps, ${cost.total_usd:,.0f} lease")


def _load_instance_and_design(cfg):
    _require(cfg, "instance_json", "design_json")
    inp = designer.load_design_input(cfg["instance_json"])
    built = designer.load_built_links(cfg["design_json"])
    return inp, designer.evaluate_design(designer.HybridEvaluator(inp), built)


def cmd_augment(cfg, outdir) -> None:
    inp, design = _load_instance_and_design(cfg)
    hop_graph = _load_hop_graph(cfg)
    model = capacity.MwCostModel(**cfg["mw_cost"])
    loads = capacity.route_demand(design, inp.traffic, cfg["aggregate_gbps"])
    plan = capacity.augment(design, loads, hop_graph, inp.sites,
                            radius_km=cfg["site_link_radius_km"],
                            per_series_capacity_gbps=model.per_series_capacity_gbps)
    report = capacity.mw_cost(plan, model, cfg["aggregate_gbps"])
    capacity.plan_to_json(plan, report, os.path.join(outdir, "augment_plan.json"))
    capacity.plan_categories_csv(plan, os.path.join(outdir, "augment_categories.csv"))
    print(f"augment: {plan.total_new_towers} new towers, "
          f"${report.total_usd:,.0f} total, ${report.dollars_per_gb:.3f}/GB")


def cmd_weather(cfg, outdir) -> None:
    _, model = _radio(cfg)
    inp, design = _load_instance_and_design(cfg)
    if cfg.get("rain_csv"):
        rain = weather.load_rain_csv(cfg["rain_csv"], [s.id for s in inp.sites])
        load = rain.__getitem__
    elif cfg.get("rain_rasters"):
        folder = cfg["rain_rasters"]
        if not isinstance(folder, str):
            raise InputError(f"rain_rasters must name a directory, got {folder!r}")
        rain = {os.path.splitext(name)[0]: os.path.join(folder, name)
                for name in os.listdir(folder) if name.endswith(".asc")}
        if not rain:
            raise InputError(f"no .asc rasters in {folder!r}")
        load = lambda t: los.load_terrain_asc(rain[t])
    else:
        raise InputError("weather needs rain_csv or rain_rasters")
    stamps = sorted(rain)
    per_day = cfg["weather"]["intervals_per_day"]
    if per_day:
        stamps = weather.select_intervals(stamps, per_day, cfg["seed"])
    coords = {s.id: s.location for s in inp.sites}
    if cfg.get("towers_csv"):
        coords.update((t.id, t.location) for t in _load_towers(cfg))
    # A raster is loaded only when its frame is read, so one is held at a time.
    report = weather.analyze(inp, design, ((t, load(t)) for t in stamps), coords, model)
    weather.write_intervals_csv(report, os.path.join(outdir, "weather_intervals.csv"))
    weather.write_percentiles_csv(report, os.path.join(outdir, "weather_percentiles.csv"))
    worst = max(i.stats.mean for i in report.intervals)
    print(f"weather: {len(report.intervals)} intervals, "
          f"worst interval mean stretch {worst:.4f}")


def cmd_simulate(cfg, outdir) -> None:
    sim = cfg["sim"]
    if bool(sim["gammas"]) != bool(sim["loads"]):
        raise InputError("a sweep needs both sim.gammas and sim.loads")
    aggregate = cfg["aggregate_gbps"]
    fields = {f.name for f in dataclasses.fields(simnet.SimConfig)}
    base_cfg = simnet.SimConfig(**{k: v for k, v in sim.items() if k in fields},
                                aggregate_gbps=aggregate, seed=cfg["seed"])
    inp, design = _load_instance_and_design(cfg)
    loads = capacity.route_demand(design, inp.traffic, aggregate)
    per_series = cfg["mw_cost"]["per_series_capacity_gbps"]
    caps = {pair: capacity.series_needed(load, per_series) ** 2 * per_series
            for pair, load in loads.mw.items()}
    topo = simnet.topology_from_design(inp, design, link_capacities=caps,
                                       fiber_capacity_gbps=sim["fiber_capacity_gbps"],
                                       per_series_capacity_gbps=per_series)
    simnet.save_topology(topo, os.path.join(outdir, "topology.json"))
    if sim["gammas"]:
        results = simnet.perturbation_experiment(
            topo, inp.sites, base_cfg, sim["gammas"], sim["loads"],
            designed_aggregate_gbps=aggregate)
        simnet.write_results_csv(results, os.path.join(outdir, "perturbation.csv"))
        print(f"simulate: {len(results)} sweep points")
    else:
        table = simnet.build_routing(topo, inp.traffic, sim["routing"])
        stats = simnet.run(topo, inp.traffic, table, base_cfg)
        geo.write_csv(os.path.join(outdir, "flows.csv"),
                      "src,dst,rate_gbps,sent,delivered,dropped,in_flight,"
                      "mean_delay_ms,max_delay_ms,loss",
                      ([a, b, repr(r.rate_gbps), r.sent, r.delivered, r.dropped,
                        r.in_flight, repr(r.mean_delay_ms), repr(r.max_delay_ms),
                        repr(r.loss)] for (a, b), r in sorted(stats.flows.items())))
        simnet.write_utilization_csv(stats, os.path.join(outdir, "link_utilization.csv"))
        print(f"simulate: mean delay {stats.mean_delay_ms:.4f} ms, "
              f"loss {stats.loss_rate:.4f}")


def cmd_export_geojson(cfg, outdir) -> None:
    inp, design = _load_instance_and_design(cfg)
    towers = {t.id: t for t in _load_towers(cfg)} if cfg.get("towers_csv") else None
    gj = designer.design_to_geojson(inp, design, towers)
    geo.write_json(gj, os.path.join(outdir, "links.geojson"))
    print(f"export-geojson: {len(gj['features'])} features")


COMMANDS = {
    "hopgraph": cmd_hopgraph,
    "design": cmd_design,
    "fiber": cmd_fiber,
    "augment": cmd_augment,
    "weather": cmd_weather,
    "simulate": cmd_simulate,
    "export-geojson": cmd_export_geojson,
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lightwan",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=COMMANDS, help="pipeline stage to run")
    parser.add_argument("--config", help="JSON config file; defaults apply otherwise")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override any config field by dotted path, "
                             "e.g. --set los.max_range_km=70")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config, args.set, args.seed)
        os.makedirs(args.out, exist_ok=True)
        COMMANDS[args.command](cfg, args.out)
        # Echoed only once the stage succeeds, so a failed run leaves none.
        geo.write_json(cfg, os.path.join(args.out, "config_used.json"))
        return 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except designer.InfeasibleDesignError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
