"""The benchmark's tracer finds every solver step it times.

`bench/spans.py` wraps lightwan functions by name, and `bench/run.py`
reads its per-layer times and counts from those span names. A renamed
or bypassed function shows up there only as a crash or a counter stuck
at 0 in a traced benchmark run; these cases read `bench/` (without
changing it) and fail first.
"""

import importlib.util
import os
import sys

import pytest

from lightwan import designer

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.join(os.path.dirname(HERE), "bench")
sys.path.insert(0, HERE)
from test_designer import random_instance  # noqa: E402


def bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


STEPS = ("solve_exact", "greedy_candidates", "evaluate_design")
# One instance whose dominance-free pool fits the exact guard, and one
# that takes the greedy path.
EXACT = dict(seed=0, n_sites=9)
GREEDY = dict(seed=1, n_sites=10, mw_fraction=0.75, budget_fraction=0.08)


def test_span_targets_resolve():
    targets = {name for name, _, _, _ in bench_module("spans")._targets()}
    run = bench_module("run")
    wanted = {span for span in {**run.SPAN_TIMES, **run.SPAN_CALLS}.values()
              if span.startswith("designer.")}
    assert wanted <= targets, wanted - targets


@pytest.mark.parametrize("case, reached", [(EXACT, {"solve_exact", "evaluate_design"}),
                                           (GREEDY, {"greedy_candidates", "evaluate_design"})])
def test_solve_heuristic_reaches_the_public_steps(monkeypatch, case, reached):
    inp = random_instance(**case)
    assert (len(designer.eliminate_dominated(designer.HybridEvaluator(inp)))
            <= designer.EXACT_CANDIDATE_GUARD) == (case is EXACT)
    calls = dict.fromkeys(STEPS, 0)
    for name in STEPS:
        def counting(*args, _name=name, _fn=getattr(designer, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(designer, name, counting)
    designer.solve_heuristic(inp)
    assert {name for name, n in calls.items() if n} == reached
