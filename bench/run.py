"""lightwan benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload design-ladder --seed 1 --seconds 60 --trace 0

Runs from any directory; it imports lightwan from the `src/` next to
this `bench/` directory and fails (exit 2, no result) when there is none.

A run sets up the seeded inputs, runs one discarded warm-up round, then
repeats the same round of tasks, re-running set-up (`setups` times)
before each round, for as many rounds as fit in `--seconds` (counted
from the first set-up, at least `MIN_ROUNDS`). Host contention only
ever adds time, so a task's time is its minimum over the rounds and
`wall_s` sums those minima; `setup_s` is the minimum set-up time. Every
operation's outputs are checked after every round, warm-up included.

With `--trace 1`, untraced and traced rounds alternate; the traced ones
record spans around lightwan's public functions (see spans.py) and give
the per-layer metrics, plus the tracing overhead. The last stdout line
is the JSON result; the line before it holds host context and details,
including the first traced round's calls, inclusive and self time per
span name.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_ROUNDS = 2        # measured rounds run even past --seconds
TRACE_ROUNDS = 2      # pairs of untraced and traced rounds in a traced run
MAX_ELAPSED_S = 90.0  # past this, stop even below MIN_ROUNDS

# (name, unit, better); the untraced run reports exactly these.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("mean_stretch", "ratio", "lower"),
)

# The traced run reports exactly these; layers a workload does not run
# read 0. Counts and ratios are per round and repeat exactly for a seed;
# times are per round, the minimum over traced rounds, and include the
# tracing overhead; rates divide a count by such a time.
PER_LAYER = (
    ("designer.objective_calls", "count", "lower"),
    ("designer.objective_misses", "count", "lower"),
    ("designer.objective_s", "s", "lower"),
    ("designer.evals_per_s", "1/s", "higher"),
    ("graphcore.lengths_calls", "count", "lower"),
    ("graphcore.lengths_s", "s", "lower"),
    ("designer.solve_exact_s", "s", "lower"),
    ("designer.greedy_s", "s", "lower"),
    ("designer.local_improve_s", "s", "lower"),
    ("designer.eliminate_s", "s", "lower"),
    ("designer.evaluate_design_s", "s", "lower"),
    ("designer.site_links_calls", "count", "lower"),
    ("designer.site_links_s", "s", "lower"),
    ("geo.geodesic_calls", "count", "lower"),
    ("graphcore.paths_from_calls", "count", "lower"),
    ("graphcore.paths_from_s", "s", "lower"),
    ("los.hop_checks", "count", "lower"),
    ("los.feasible_ratio", "ratio", "higher"),
    ("los.build_hop_graph_s", "s", "lower"),
    ("los.checks_per_s", "1/s", "higher"),
    ("fiberbase.prune_s", "s", "lower"),
    ("fiberbase.prune_trials", "count", "lower"),
    ("fiberbase.provision_s", "s", "lower"),
    ("capacity.augment_s", "s", "lower"),
    ("graphcore.disjoint_calls", "count", "lower"),
    ("weather.analyze_s", "s", "lower"),
    ("weather.intervals", "count", "higher"),
    ("weather.repeat_failure_ratio", "ratio", "higher"),
    ("simnet.run_s", "s", "lower"),
    ("simnet.pkts_sent", "count", "higher"),
    ("simnet.pkts_dropped", "count", "lower"),
    ("simnet.drop_ratio", "ratio", "lower"),
    ("simnet.pkts_per_s", "1/s", "higher"),
    ("simnet.routing_s", "s", "lower"),
    ("simnet.max_util", "ratio", "lower"),
    ("cli.hopgraph_s", "s", "lower"),
    ("cli.design_s", "s", "lower"),
    ("cli.fiber_s", "s", "lower"),
    ("cli.augment_s", "s", "lower"),
    ("cli.weather_s", "s", "lower"),
    ("cli.simulate_s", "s", "lower"),
    ("bench.trace_overhead_s", "s", "lower"),
    ("bench.fail_frac", "ratio", "lower"),
)
UNITS = dict((name, unit) for name, unit, _ in END_TO_END + PER_LAYER)

# Calls whose results the traced run keeps for per-layer metrics.
TRACE_CAPTURE = ("los.build_hop_graph", "weather.analyze", "simnet.run",
                 "simnet.build_routing")

# Inclusive span time (seconds) reported per layer: metric -> span name.
SPAN_TIMES = {
    "designer.objective_s": "designer.HybridEvaluator.objective",
    "graphcore.lengths_s": "graphcore.shortest_path_lengths",
    "designer.solve_exact_s": "designer.solve_exact",
    "designer.greedy_s": "designer.greedy_candidates",
    "designer.local_improve_s": "designer._local_improve",
    "designer.eliminate_s": "designer.eliminate_dominated",
    "designer.evaluate_design_s": "designer.evaluate_design",
    "designer.site_links_s": "designer.site_links",
    "graphcore.paths_from_s": "graphcore.shortest_paths_from",
    "los.build_hop_graph_s": "los.build_hop_graph",
    "fiberbase.prune_s": "fiberbase.prune_links",
    "fiberbase.provision_s": "fiberbase.provision_wavelengths",
    "capacity.augment_s": "capacity.augment",
    "weather.analyze_s": "weather.analyze",
    "simnet.run_s": "simnet.run",
    "simnet.routing_s": "simnet.build_routing",
    "cli.hopgraph_s": "cli.cmd_hopgraph",
    "cli.design_s": "cli.cmd_design",
    "cli.fiber_s": "cli.cmd_fiber",
    "cli.augment_s": "cli.cmd_augment",
    "cli.weather_s": "cli.cmd_weather",
    "cli.simulate_s": "cli.cmd_simulate",
}
# Call counts: metric -> span name.
SPAN_CALLS = {
    "designer.objective_calls": "designer.HybridEvaluator.objective",
    "graphcore.lengths_calls": "graphcore.shortest_path_lengths",
    "designer.site_links_calls": "designer.site_links",
    "geo.geodesic_calls": "geo.geodesic_km",
    "graphcore.paths_from_calls": "graphcore.shortest_paths_from",
    "los.hop_checks": "los.hop_feasible",
    "fiberbase.prune_trials": "fiberbase.pair_stretches",
    "graphcore.disjoint_calls": "graphcore.tower_disjoint_paths",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, results: dict, spans: list, aggregate_gbps: float) -> dict:
    """Per-layer metrics of one traced round."""
    from lightwan import simnet

    def row(span: str) -> dict:
        return summary.get(span, {"calls": 0, "total_s": 0.0, "with_children": 0})

    m = {k: row(span)["total_s"] for k, span in SPAN_TIMES.items()}
    m.update({k: row(span)["calls"] for k, span in SPAN_CALLS.items()})
    # An objective call that made traced calls itself missed the cache
    # and ran shortest paths.
    m["designer.objective_misses"] = row("designer.HybridEvaluator.objective")["with_children"]
    m["designer.evals_per_s"] = _ratio(m["designer.objective_misses"], m["designer.objective_s"])
    m["los.checks_per_s"] = _ratio(m["los.hop_checks"], m["los.build_hop_graph_s"])
    hops = sum(len(out.hops) for _, _, out in results.get("los.build_hop_graph", []))
    m["los.feasible_ratio"] = _ratio(hops, m["los.hop_checks"])

    intervals, repeats = 0, 0
    for _, _, report in results.get("weather.analyze", []):
        seen = set()
        for interval in report.intervals:
            intervals += 1
            repeats += interval.failed in seen
            seen.add(interval.failed)
    m["weather.intervals"] = intervals
    m["weather.repeat_failure_ratio"] = _ratio(repeats, intervals)

    runs = results.get("simnet.run", [])
    durations = [end - start for name, start, end, _ in spans if name == "simnet.run"]
    sent = [sum(r.sent for r in out.flows.values()) for _, _, out in runs]
    dropped = sum(r.dropped for _, _, out in runs for r in out.flows.values())
    m["simnet.pkts_sent"] = sum(sent)
    m["simnet.pkts_dropped"] = dropped
    m["simnet.drop_ratio"] = _ratio(dropped, sum(sent))
    rates = [_ratio(s, d) for s, d in zip(sent, durations)]
    m["simnet.pkts_per_s"] = statistics.median(rates) if rates else 0.0

    # Fluid maximum link utilization of each routing table built, at the
    # workload's designed aggregate; the mean over tables.
    peaks = []
    for (topo, traffic, *_), _, table in results.get("simnet.build_routing", []):
        caps = {}
        for link in topo.links:
            caps[(link.a, link.b)] = caps[(link.b, link.a)] = link.capacity_gbps
        loads = simnet.expected_link_loads(topo, table, traffic, aggregate_gbps)
        peaks.append(max(v / caps[e] for e, v in loads.items()))
    m["simnet.max_util"] = statistics.fmean(peaks) if peaks else 0.0
    return m


def combine_layers(rounds: list[dict]) -> dict:
    """Times: the minimum over traced rounds; rates: the maximum; counts
    and ratios: the first round's (they repeat exactly)."""
    out = {}
    for key in rounds[0]:
        values = [r[key] for r in rounds]
        unit = UNITS[key]
        out[key] = min(values) if unit == "s" else max(values) if unit == "1/s" else values[0]
    return out


def run_round(workload, instrument, counts: list[int]):
    """One pass over the workload's tasks; returns per-task seconds, and
    adds the operations attempted and failed to `counts`. Outputs are
    checked after the instrument is removed, so the checks' own calls
    are neither traced nor captured."""
    tasks = workload.tasks()
    instrument.reset()
    times, outs, marks = [], [], []
    with instrument:
        for task in tasks:
            marks.append({k: len(v) for k, v in instrument.results.items()})
            gc.collect()
            start = time.perf_counter()
            try:
                outs.append((task.run(), None))
            except Exception as exc:  # a raising operation is a counted failure
                outs.append((None, exc))
            times.append(time.perf_counter() - start)
    marks.append({k: len(v) for k, v in instrument.results.items()})
    for i, (task, (out, exc)) in enumerate(zip(tasks, outs)):
        counts[0] += task.ops
        if exc is not None:
            print(f"{workload.name} {task.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            counts[1] += task.ops
            continue
        calls = {k: v[marks[i].get(k, 0):marks[i + 1].get(k, 0)]
                 for k, v in instrument.results.items()}
        failed = workload.check(i, out, calls)
        if failed:
            print(f"{workload.name} {task.label}: {failed} check(s) failed", file=sys.stderr)
        counts[1] += failed
    return times


def measure(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    from spans import Instrument

    setup_s = []

    def setup() -> None:
        for _ in range(workload.setups):
            workload.clear()
            gc.collect()
            start = time.perf_counter()
            workload.setup(seed)
            setup_s.append(time.perf_counter() - start)

    plain = Instrument(False, workload.capture)
    traced = Instrument(True, workload.capture + TRACE_CAPTURE)
    counts = [0, 0]  # attempted, failed
    start = time.perf_counter()
    setup()
    run_round(workload, plain, counts)  # warm-up; timings discarded
    plain_rounds, traced_rounds, layers, spans = [], [], [], {}
    last = time.perf_counter() - start  # the warm-up round and its set-up

    def another() -> bool:
        """Whether to run another round: a traced run runs TRACE_ROUNDS;
        an untraced one runs while the next round, as long as the last,
        would end within --seconds."""
        done, elapsed = len(plain_rounds), time.perf_counter() - start
        if elapsed >= MAX_ELAPSED_S:
            return False
        if trace:
            return done < TRACE_ROUNDS
        return done < MIN_ROUNDS or elapsed + last <= seconds

    while another():
        begun = time.perf_counter()
        setup()
        plain_rounds.append(run_round(workload, plain, counts))
        if trace:
            traced_rounds.append(run_round(workload, traced, counts))
            summary = traced.summary()
            spans = spans or summary
            layers.append(layer_metrics(summary, traced.results, traced.spans,
                                        workload.aggregate_gbps))
            traced.reset()
        last = time.perf_counter() - begun

    def wall(rounds: list[list[float]]) -> float:
        return sum(min(task) for task in zip(*rounds))

    attempted, failed = counts
    if trace:
        metrics = combine_layers(layers)
        metrics["bench.trace_overhead_s"] = wall(traced_rounds) - wall(plain_rounds)
        metrics["bench.fail_frac"] = _ratio(failed, attempted)
    else:
        metrics = {
            "setup_s": min(setup_s),
            "wall_s": wall(plain_rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "mean_stretch": workload.mean_stretch(),
        }
    detail = {
        "rounds": len(plain_rounds),
        "loop_s": time.perf_counter() - start,
        "round_s": [sum(r) for r in plain_rounds],
        "traced_round_s": [sum(r) for r in traced_rounds],
        "setup_runs_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        # First traced round, per span name: calls, inclusive and self time.
        "spans": spans,
    }
    result = {
        "correct": failed == 0 and all(math.isfinite(v) for v in metrics.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "lightwan", "__init__.py")):
        print(f"error: no lightwan sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # Import everything before any clock starts.
    import numpy
    import lightwan
    from workloads import WORKLOADS

    if not os.path.abspath(lightwan.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"error: imported lightwan from {lightwan.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    host = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": os.getloadavg(),
    }
    # Move the import-time objects out of the collector's reach, so the
    # gc.collect() before every task scans only what set-up and the
    # tasks made (about 0.6 ms instead of 10 ms on a 2-core host).
    gc.freeze()
    workload = WORKLOADS[args.workload](ROOT)
    try:
        result, detail = measure(workload, args.seed, args.seconds, bool(args.trace))
    finally:
        workload.close()
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "host": host, **detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
