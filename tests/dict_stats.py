"""The dict-and-sort stretch statistics, kept as test oracles.

`reference_weighted_quantile` and `reference_stretch_stats` are the
library's code from before per-pair stretch became float arrays in one
`PairIndex` order, copied unchanged apart from their names and the weight
lookup (`TrafficMatrix.weight` is gone; the pairs are canonical keys): a
Python sort of the pairs, a running `acc +=` loop and builtin sums. The
array forms in `lightwan.fiberbase` must match them bitwise.
"""

from __future__ import annotations

import math
from typing import Sequence

from lightwan.fiberbase import StretchStats
from lightwan.traffic import Pair, TrafficMatrix


def reference_weighted_quantile(values: Sequence[float], weights: Sequence[float],
                                q: float) -> float:
    if not values:
        raise ValueError("no values")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    order = sorted(range(len(values)), key=lambda i: values[i])
    total = sum(weights)
    if total <= 0:
        raise ValueError("weights must have positive total")
    target = q * total
    acc = 0.0
    for i in order:
        acc += weights[i]
        if acc >= target - 1e-15 * total:
            return values[i]
    return values[order[-1]]


def reference_stretch_stats(per_pair: dict[Pair, float], weights: TrafficMatrix | None,
                            excluded_pairs: int = 0) -> StretchStats:
    pairs = sorted(per_pair)
    values = [per_pair[p] for p in pairs]
    if weights is None:
        wts = [1.0] * len(values)
        label = "uniform"
    else:
        table = weights.as_dict()
        wts = [table.get(p, 0.0) for p in pairs]
        label = "gravity"
    total = sum(wts)
    if total <= 0:
        raise ValueError("no weighted pairs to summarize")
    mean = sum(v * w for v, w in zip(values, wts)) / total
    return StretchStats(
        mean=mean,
        median=reference_weighted_quantile(values, wts, 0.5),
        p95=reference_weighted_quantile(values, wts, 0.95),
        weighting=label,
        pair_count=len(values),
        excluded_pairs=excluded_pairs,
    )


def finite_dict(pairs: Sequence[Pair], stretch) -> tuple[dict[Pair, float], int]:
    """A stretch row as the dict the oracles take: its finite entries by
    pair, and the number of the others."""
    per_pair = {p: s for p, s in zip(pairs, stretch.tolist()) if math.isfinite(s)}
    return per_pair, len(pairs) - len(per_pair)
