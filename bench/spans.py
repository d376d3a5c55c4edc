"""In-memory span recording around lightwan's public functions.

`Instrument` swaps wrappers into every binding of a wrapped function:
the defining module, each lightwan module that imported it by name,
and module-level dicts that hold it (the CLI's command table). Nothing
in `src/` changes; `uninstall` puts the originals back.

With `trace=True` every public function of the traced modules, plus a
few methods and private solver steps named below, records a span
(name, start, end, parent index). With `trace=False` only the functions
in `capture` are wrapped, and they keep their arguments and results for
the output checks without reading the clock.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

TRACED_MODULES = ("cli", "los", "geo", "graphcore", "designer", "fiberbase",
                  "capacity", "weather", "simnet")
# Non-public callables that per-layer metrics need, as (module, dotted name).
EXTRA = (("designer", "HybridEvaluator.objective"),
         ("designer", "HybridEvaluator.graph_for"),
         ("designer", "_local_improve"))
ALL_MODULES = TRACED_MODULES + ("traffic",)


def _module(name: str):
    return importlib.import_module(f"lightwan.{name}")


def _targets() -> list[tuple[str, object, str, object]]:
    """(span name, owner object, attribute, original callable) for every
    function and method the traced run wraps."""
    out = []
    for mod_name in TRACED_MODULES:
        mod = _module(mod_name)
        for attr, fn in vars(mod).items():
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not attr.startswith("_")):
                out.append((f"{mod_name}.{attr}", mod, attr, fn))
    for mod_name, dotted in EXTRA:
        owner = _module(mod_name)
        *path, attr = dotted.split(".")
        for part in path:
            owner = getattr(owner, part)
        out.append((f"{mod_name}.{dotted}", owner, attr, vars(owner)[attr]))
    return out


def _put(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Instrument:
    """Installs span or capture wrappers for the duration of a round."""

    def __init__(self, trace: bool, capture: tuple[str, ...] = ()) -> None:
        self.trace = trace
        self.capture = set(capture)
        self.spans: list = []
        self.results: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.results = defaultdict(list)
        self._stack = []

    def _wrap(self, name: str, fn):
        keep = name in self.capture
        results = self.results

        if not self.trace:
            def captured(*args, **kwargs):
                out = fn(*args, **kwargs)
                results[name].append((args, kwargs, out))
                return out
            return captured

        clock = time.perf_counter
        stack = self._stack
        instrument = self

        def traced(*args, **kwargs):
            spans = instrument.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if keep:
                results[name].append((args, kwargs, out))
            return out
        return traced

    def install(self) -> None:
        targets = [t for t in _targets() if self.trace or t[0] in self.capture]
        by_id = {}
        for name, owner, attr, fn in targets:
            wrapper = self._wrap(name, fn)
            by_id[id(fn)] = (fn, wrapper)
            self._set(owner, attr, wrapper)
        # Rebind every other module-level reference to a wrapped function.
        for mod_name in ALL_MODULES:
            mod = _module(mod_name)
            for attr, value in list(vars(mod).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        hit = by_id.get(id(item))
                        if hit is not None and hit[0] is item:
                            self._set(value, key, hit[1])

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner[attr] if isinstance(owner, dict)
                           else vars(owner)[attr]))
        _put(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            _put(*self._undo.pop())

    def __enter__(self) -> "Instrument":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, and the
        number of calls that made at least one traced call themselves."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        has_child = [False] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
                has_child[parent] = True
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent) in enumerate(spans):
            row = out.get(name)
            if row is None:
                row = out[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "with_children": 0}
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_s[i]
            row["with_children"] += has_child[i]
        return out
