"""The traced run repeats its counters exactly for a fixed seed.

Run from the repository root:

    python3 -m pytest bench/tests -q

Each case runs the benchmark twice as a subprocess with `--trace 1` and
the shortest measuring window, so the whole file takes a few minutes.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

from run import PER_LAYER  # noqa: E402

SEED = 7
# Counts and ratios; times and rates vary with the host.
COUNTERS = [name for name, unit, _ in PER_LAYER if unit in ("count", "ratio")]
# Counters that must be non-zero because the workload runs that layer.
ACTIVE = {
    "design-ladder": ("designer.objective_calls", "designer.objective_misses",
                      "graphcore.lengths_calls"),
    "packet-sim": ("simnet.pkts_sent", "simnet.pkts_dropped"),
    "plan-pipeline": ("los.hop_checks", "designer.site_links_calls", "geo.geodesic_calls",
                      "graphcore.paths_from_calls", "fiberbase.prune_trials",
                      "graphcore.disjoint_calls", "weather.intervals",
                      "designer.objective_calls", "simnet.pkts_sent"),
}


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(ACTIVE))
def test_traced_counters_repeat(workload):
    first = traced_run(workload)
    second = traced_run(workload)
    assert sorted(first) == sorted(name for name, _, _ in PER_LAYER)
    for name in COUNTERS:
        assert first[name] == second[name], name
    for name in ACTIVE[workload]:
        assert first[name] > 0, name
