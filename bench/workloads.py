"""The three benchmark workloads.

Each workload builds its inputs from the seed in `setup` (timed as
set-up), exposes one round of work as a list of tasks, and checks every
task's outputs. A task is the unit that is timed; an operation is the
unit that is counted and checked (a solve, a sweep point or a CLI
stage).
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import shutil
from typing import Callable, NamedTuple

import numpy as np

from lightwan import capacity, cli, designer, simnet
from lightwan.designer import DesignInput

import inputs


class Task(NamedTuple):
    label: str
    run: Callable[[], object]
    ops: int


def fw_pair_lengths(inp: DesignInput, built) -> np.ndarray:
    """All-pairs hybrid path lengths by numpy min-plus Floyd-Warshall,
    indexed in `inp.site_ids` order. An independent oracle for the
    solver's Dijkstra-based objective."""
    ids = inp.site_ids
    idx = {s: i for i, s in enumerate(ids)}
    mat = np.full((len(ids), len(ids)), np.inf)
    np.fill_diagonal(mat, 0.0)
    for (a, b), o in inp.fiber_km_eq.items():
        i, j = idx[a], idx[b]
        mat[i, j] = mat[j, i] = min(mat[i, j], o)
    for a, b in built:
        i, j = idx[a], idx[b]
        mat[i, j] = mat[j, i] = min(mat[i, j], inp.mw_km[(a, b)])
    for k in range(len(ids)):
        mat = np.minimum(mat, mat[:, k:k + 1] + mat[k:k + 1, :])
    return mat


def fw_objective(inp: DesignInput, built) -> float:
    mat = fw_pair_lengths(inp, built)
    idx = {s: i for i, s in enumerate(inp.site_ids)}
    return sum(h / inp.geodesic[(a, b)] * mat[idx[a], idx[b]]
               for (a, b), h in inp.traffic.items())


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


class Workload:
    """Shared defaults: no captured calls, no simulated aggregate.

    `setups` is how many times set-up runs before each round; the last
    one's inputs are used.
    """

    name = ""
    setups = 3
    capture: tuple[str, ...] = ()
    aggregate_gbps = 0.0

    def __init__(self, root: str) -> None:
        self.root = root

    def clear(self) -> None:
        """Undo the last set-up and round; runs before set-up, untimed."""

    def close(self) -> None:
        pass


class DesignLadder(Workload):
    """Seeded `DesignInput`s solved in memory over a budget ladder.

    Small instances keep the whole pool within the exact-search guard
    (branch-and-bound); large ones exceed it (greedy plus local search).
    """

    name = "design-ladder"
    # (sites, candidate MW links, budget rungs as fractions of the pool
    # cost, instances per round)
    EXACT = (6, 12, (0.1, 0.2, 0.3), 45)
    GREEDY = (9, 28, (0.04, 0.08), 20)

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 1])
        self.rungs: list[DesignInput] = []
        for n, links, fractions, count in (self.EXACT, self.GREEDY):
            for _ in range(count):
                base = inputs.design_instance(rng, n, links)
                total = sum(base.mw_cost.values())
                self.rungs += [dataclasses.replace(base, budget=float(math.floor(f * total)))
                               for f in fractions]
        self.stretch = [math.nan] * len(self.rungs)

    def tasks(self) -> list[Task]:
        return [Task(f"solve{i}", lambda inp=inp: designer.solve_heuristic(inp), 1)
                for i, inp in enumerate(self.rungs)]

    def check(self, i: int, design, calls) -> int:
        inp = self.rungs[i]
        built = list(design.built_links)
        cost = sum(inp.mw_cost[p] for p in built)
        oracle = fw_objective(inp, built)
        ok = (all(p in inp.mw_km for p in built)
              and cost <= inp.budget + 1e-9
              and _rel_close(design.towers_used, cost, 1e-12)
              and _rel_close(designer.objective(inp, design), oracle, 1e-9)
              and _rel_close(design.stats.mean, oracle, 1e-9))
        self.stretch[i] = design.stats.mean
        return 0 if ok else 1

    def mean_stretch(self) -> float:
        return float(np.mean(self.stretch))


class PacketSim(Workload):
    """Perturbation sweeps over designed topologies with k^2 capacities."""

    name = "packet-sim"
    setups = 1  # set-up solves six designs: long enough to average out jitter
    capture = ("simnet.run", "simnet.build_routing")
    TOPOLOGIES = 6
    GAMMAS = (0.0, 0.3)
    # Multiples of the designed aggregate. The designed aggregate puts the
    # busiest link of the shortest-path routing at 90% of its k=2
    # capacity; min_max_util rebalances toward a lower maximum, so 0.5
    # and 0.8 stay below capacity, and 2.5 and 4.0 overflow unless it cuts
    # the maximum below 0.44 and 0.28. Checks classify each point by its
    # own fluid peak, not by these expectations.
    LOADS = (0.5, 0.8, 2.5, 4.0)
    PACKET_BYTES = 500
    SIM_SECONDS = 0.02
    WARMUP = 0.25          # 5 ms, above the longest one-way path latency
    QUEUE = 50
    PACKETS_AT_DESIGN = 2000  # packets generated per sweep point at load 1
    # Below-capacity points: measured utilization u' of each directed
    # link must match the fluid u = expected_link_loads / capacity within
    # 5 sigma of packet-count noise plus one packet, where a link busy
    # for u of the window carries about k = u * window / tx packets, so
    # sigma(u') = u / sqrt(k) = sqrt(u * tx / window); and the sum of u'
    # over links must match the sum of u within 5 sigma of that sum.
    UTIL_SIGMAS = 5.0
    UNDER, OVER = 0.8, 1.1

    aggregate_gbps = PACKETS_AT_DESIGN * PACKET_BYTES * 8 / (SIM_SECONDS * 1e9)

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 2])
        agg = self.aggregate_gbps
        self.cases = []
        for _ in range(self.TOPOLOGIES):
            inp = inputs.design_instance(rng, 7, 14, radius_deg=1.5, hop_km=30.0)
            inp.budget = float(math.floor(0.3 * sum(inp.mw_cost.values())))
            design = designer.solve_heuristic(inp)
            probe = capacity.route_demand(design, inp.traffic, agg)
            per_series = max([*probe.mw.values(), *probe.fiber.values()]) / 3.6
            caps = {pair: capacity.series_needed(load, per_series) ** 2 * per_series
                    for pair, load in probe.mw.items()}
            topo = simnet.topology_from_design(inp, design, link_capacities=caps,
                                               fiber_capacity_gbps=4.0 * per_series,
                                               per_series_capacity_gbps=per_series)
            self.cases.append((inp, design, topo))
        self.cfg = simnet.SimConfig(
            packet_bytes=self.PACKET_BYTES, sim_seconds=self.SIM_SECONDS,
            queue_capacity_packets=self.QUEUE, aggregate_gbps=agg,
            routing="min_max_util", seed=seed, warmup_fraction=self.WARMUP)

    def tasks(self) -> list[Task]:
        ops = len(self.GAMMAS) * len(self.LOADS)
        return [Task(f"sweep{i}",
                     lambda topo=topo, inp=inp: simnet.perturbation_experiment(
                         topo, inp.sites, self.cfg, self.GAMMAS, self.LOADS,
                         designed_aggregate_gbps=self.aggregate_gbps),
                     ops)
                for i, (inp, _, topo) in enumerate(self.cases)]

    def check(self, i: int, results, calls) -> int:
        runs = calls.get("simnet.run", [])
        if len(runs) != len(results) or len(results) != len(self.GAMMAS) * len(self.LOADS):
            return len(self.GAMMAS) * len(self.LOADS)
        return sum(0 if self._point_ok(args, stats, point) else 1
                   for (args, _, stats), point in zip(runs, results))

    def _point_ok(self, args, stats, point) -> bool:
        topo, matrix, table, cfg = args[:4]
        if point.loss_rate != stats.loss_rate or not 0.0 <= stats.loss_rate <= 1.0:
            return False
        for rec in stats.flows.values():
            if (rec.sent != rec.delivered + rec.dropped + rec.in_flight
                    or rec.in_flight < 0 or not 0.0 <= rec.loss <= 1.0):
                return False
        caps = {}
        for link in topo.links:
            caps[(link.a, link.b)] = caps[(link.b, link.a)] = link.capacity_gbps
        expected = simnet.expected_link_loads(topo, table, matrix, cfg.aggregate_gbps)
        util = {edge: expected.get(edge, 0.0) / cap for edge, cap in caps.items()}
        peak = max(util.values())
        if peak < self.UNDER:
            if stats.loss_rate != 0.0:
                return False
            window = cfg.sim_seconds * (1.0 - cfg.warmup_fraction)
            variance = 0.0
            for edge, u in util.items():
                tx_share = cfg.packet_bytes * 8 / (caps[edge] * 1e9) / window
                variance += u * tx_share
                tol = self.UTIL_SIGMAS * math.sqrt(u * tx_share) + tx_share
                if abs(stats.link_utilization[edge] - u) > tol:
                    return False
            # Summed over links the noise averages out, so a systematic
            # error of several percent shows here.
            total = sum(stats.link_utilization[edge] for edge in util)
            if abs(total - sum(util.values())) > self.UTIL_SIGMAS * math.sqrt(variance):
                return False
        if peak > self.OVER and stats.loss_rate <= 0.0:
            return False
        return True

    def mean_stretch(self) -> float:
        return float(np.mean([design.stats.mean for _, design, _ in self.cases]))


class PlanPipeline(Workload):
    """The CLI stages in process over generated on-disk datasets."""

    name = "plan-pipeline"
    DATASETS = 5
    LADDER = (20, 30, 40, 50)
    STAGES = ("hopgraph", "design", "fiber", "augment", "weather", "simulate")
    OUTPUTS = {
        "hopgraph": ("hops.csv", "hopgraph_summary.json"),
        "design": ("design_stats.csv",) + tuple(
            f"{kind}_B{b}.{ext}" for b in LADDER
            for kind, ext in (("instance", "json"), ("design", "json"), ("links", "geojson"))),
        "fiber": ("fiber_pruning.csv", "fiber_baseline.json"),
        "augment": ("augment_plan.json", "augment_categories.csv"),
        "weather": ("weather_intervals.csv", "weather_percentiles.csv"),
        "simulate": ("topology.json", "flows.csv", "link_utilization.csv"),
    }

    def __init__(self, root: str) -> None:
        super().__init__(root)
        self.work = os.path.join(root, ".bench_work", f"plan-{os.getpid()}")

    def clear(self) -> None:
        # Stale outputs from the last round must not satisfy the checks.
        shutil.rmtree(self.work, ignore_errors=True)

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 3])
        self.configs = []
        for d in range(self.DATASETS):
            base = os.path.join(self.work, f"d{d}")
            cfg = inputs.write_plan_dataset(rng, os.path.join(base, "data"))
            top = f"{base}/out/design/%s_B{self.LADDER[-1]}.json"
            cfg.update({
                "budget_ladder": list(self.LADDER),
                "hops_csv": f"{base}/out/hopgraph/hops.csv",
                "design_json": top % "design",
                "sim": {"sim_seconds": 0.001, "warmup_fraction": 0.1},
            })
            self.aggregate_gbps = cfg["aggregate_gbps"]
            # `design` assembles instances from the hop graph; the later
            # stages read the top rung's saved instance.
            paths = {}
            for name, instance in (("design", None), ("rest", top % "instance")):
                paths[name] = os.path.join(base, f"config_{name}.json")
                with open(paths[name], "w") as fh:
                    json.dump({**cfg, "instance_json": instance}, fh, indent=1)
            self.configs.append((os.path.join(base, "out"), paths))
        self.stretch = [math.nan] * self.DATASETS

    def _stage(self, d: int, stage: str) -> int:
        out, paths = self.configs[d]
        config = paths["design" if stage == "design" else "rest"]
        argv = [stage, "--config", config, "--out", os.path.join(out, stage)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def tasks(self) -> list[Task]:
        return [Task(f"d{d}.{stage}", lambda d=d, stage=stage: self._stage(d, stage), 1)
                for d in range(self.DATASETS) for stage in self.STAGES]

    def check(self, i: int, code, calls) -> int:
        d, stage = divmod(i, len(self.STAGES))
        stage = self.STAGES[stage]
        outdir = os.path.join(self.configs[d][0], stage)
        paths = [os.path.join(outdir, f) for f in self.OUTPUTS[stage]]
        if code != 0 or not all(os.path.isfile(p) and os.path.getsize(p) > 0 for p in paths):
            return 1
        if stage == "design":
            with open(os.path.join(outdir, "design_stats.csv"), newline="") as fh:
                rows = list(csv.DictReader(fh))
            budgets = [float(r["budget"]) for r in rows]
            means = [float(r["mean"]) for r in rows]
            if budgets != [float(b) for b in self.LADDER]:
                return 1
            if any(b > a * (1.0 + 1e-12) for a, b in zip(means, means[1:])):
                return 1
            self.stretch[d] = float(np.mean(means))
        return 0

    def mean_stretch(self) -> float:
        return float(np.mean(self.stretch))

    def close(self) -> None:
        self.clear()
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(self.work))


WORKLOADS = {w.name: w for w in (DesignLadder, PacketSim, PlanPipeline)}
