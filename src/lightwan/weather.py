"""Precipitation-driven microwave link failure and rerouting analysis.

Rain attenuation follows the ITU-style power law gamma = k R^alpha dB/km;
a link fails, in a binary fashion, when any of its tower-tower hops
accumulates more attenuation than the configured fade margin. Fiber is
unaffected; per interval, traffic reroutes over whatever survives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .designer import DesignInput, HybridEvaluator, NetworkDesign
from .fiberbase import StretchStats, stretch_stats, weighted_quantiles
from .geo import GeoPoint, geodesic_km, read_csv, write_csv
from .graphcore import distance_matrix
from .los import TerrainGrid, _path_samples
from .traffic import Pair, PairIndex


@dataclass(frozen=True)
class AttenuationModel:
    # ITU-R P.838 power-law coefficients for 11 GHz, horizontal polarization.
    k_coeff: float = 0.01217
    alpha: float = 1.2571
    fail_threshold_db: float = 30.0  # fade margin; no single standard value, tune per deployment

    def __post_init__(self) -> None:
        if self.k_coeff < 0:
            raise ValueError("k_coeff must be >= 0")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")
        if self.fail_threshold_db <= 0:
            raise ValueError("fail_threshold_db must be > 0")


def rain_attenuation_db(hop_km: float, rain_mm_h: float,
                        model: AttenuationModel = AttenuationModel()) -> float:
    """Total attenuation over a hop: k R^alpha dB/km times path length."""
    if hop_km < 0 or rain_mm_h < 0:
        raise ValueError("inputs must be >= 0")
    if rain_mm_h == 0.0:
        return 0.0
    return model.k_coeff * rain_mm_h ** model.alpha * hop_km


def link_id(pair: Pair) -> str:
    return f"{pair[0]}|{pair[1]}"


class RasterRainField:
    """Rain-rate rasters keyed by timestamp (ESRI ASCII layout, mm/h).

    A hop's sample points depend only on the hop, so each distinct hop is
    sampled once and its points are read against every frame."""

    def __init__(self, frames: Mapping[str, TerrainGrid]) -> None:
        self.frames = dict(frames)
        self._samples: dict[tuple[GeoPoint, GeoPoint], tuple[np.ndarray, np.ndarray]] = {}

    def timestamps(self) -> list[str]:
        return sorted(self.frames)

    def hop_rain(self, t: str, link: str, hop_a: GeoPoint, hop_b: GeoPoint) -> float:
        frame = self.frames.get(t)
        if frame is None:
            raise KeyError(f"no rain frame at {t!r}")
        points = self._samples.get((hop_a, hop_b))
        if points is None:
            n = max(1, math.ceil(geodesic_km(hop_a, hop_b)))  # ~1 km sampling
            points = self._samples[(hop_a, hop_b)] = _path_samples(hop_a, hop_b, n)[:2]
        return float(np.mean(frame.sample_many(*points)))


class LinkRainSeries:
    """Per-link rain rate series; a value applies along the whole link.

    Links absent from an interval are dry. Ids use the canonical
    "a|b" form of the site pair.
    """

    def __init__(self, data: Mapping[str, Mapping[str, float]]) -> None:
        self.data = {t: dict(rates) for t, rates in data.items()}

    def timestamps(self) -> list[str]:
        return sorted(self.data)

    def hop_rain(self, t: str, link: str, hop_a: GeoPoint, hop_b: GeoPoint) -> float:
        if t not in self.data:
            raise KeyError(f"no rain data at {t!r}")
        return self.data[t].get(link, 0.0)


def load_rain_csv(path: str) -> LinkRainSeries:
    data: dict[str, dict[str, float]] = {}
    for t, lid, rate in read_csv(path, "timestamp,link_id,rain_mm_h",
                                 lambda t, lid, rate: (t, lid, float(rate))):
        data.setdefault(t, {})[lid] = rate
    return LinkRainSeries(data)


def load_rain_rasters(paths: Mapping[str, str]) -> RasterRainField:
    """Load rasters from {timestamp: file path} (e.g. files named by timestamp)."""
    from .los import load_terrain_asc
    return RasterRainField({t: load_terrain_asc(p) for t, p in paths.items()})


def failed_links(design: NetworkDesign, tower_paths: Mapping[Pair, Sequence[str]],
                 coords: Mapping[str, GeoPoint], field, times: Sequence[str],
                 model: AttenuationModel = AttenuationModel()) -> list[set[Pair]]:
    """Per time of `times`, the MW links whose worst hop exceeds the fade
    margin; every hop is measured once.

    `tower_paths` gives each built link's node chain (sites included) and
    `coords` the positions of every node on those chains.
    """
    links = []
    for pair in design.built_links:
        chain = tower_paths.get(pair)
        if chain is None or len(chain) < 2:
            raise KeyError(f"no tower path recorded for built link {pair}")
        hops = [(coords[u], coords[v]) for u, v in zip(chain, chain[1:])]
        links.append((pair, link_id(pair), [(a, b, geodesic_km(a, b)) for a, b in hops]))
    return [{pair for pair, lid, hops in links
             if any(rain_attenuation_db(km, field.hop_rain(t, lid, a, b), model)
                    > model.fail_threshold_db for a, b, km in hops)}
            for t in times]


@dataclass(frozen=True)
class IntervalResult:
    timestamp: str
    failed: tuple[Pair, ...]
    # Its failure set's read-only row in the report's pair order, inf if cut.
    per_pair_stretch: np.ndarray
    stats: StretchStats


@dataclass(frozen=True)
class WeatherReport:
    intervals: tuple[IntervalResult, ...]
    pairs: PairIndex

    def pair_percentiles(self) -> np.ndarray:
        """Per-pair stretch percentiles over time: rows min, median, p95, p99
        and max of the (intervals x pairs) array sorted down each column. At
        equal weights a quantile's rank is the quantile of the ranks."""
        s = np.sort(np.reshape([i.per_pair_stretch for i in self.intervals],
                               (-1, len(self.pairs.pairs))), axis=0)
        if not len(s):
            return np.empty((5, 0))
        ranks = weighted_quantiles(np.arange(len(s)), np.ones(len(s)), (0.5, 0.95, 0.99))
        return s[[0, *map(int, ranks), -1]]


def stretch_under_failures(ev: HybridEvaluator, design: NetworkDesign,
                           failed: Iterable[Pair]) -> np.ndarray:
    """Per-pair stretch in `ev.pairs` order with the failed MW links removed
    (fiber always up); inf for a pair they cut off."""
    failed_set = set(failed)
    surviving = [p for p in design.built_links if p not in failed_set]
    dist = distance_matrix(ev.graph_for(surviving))
    return dist[ev.pairs.rows, ev.pairs.cols] / ev.geodesic


def reroute_and_stats(inp: DesignInput, design: NetworkDesign,
                      failures_by_interval: Sequence[tuple[str, Iterable[Pair]]]) -> WeatherReport:
    """Recompute shortest routes per interval with failed links removed and
    record per-pair stretch plus traffic-weighted summary statistics. Each
    distinct failure set is rerouted once, all over one evaluator: intervals
    that share it share one read-only stretch row and one StretchStats."""
    ev = HybridEvaluator(inp)
    rerouted: dict[tuple[Pair, ...], tuple[np.ndarray, StretchStats]] = {}
    intervals = []
    for t, failed in failures_by_interval:
        failed_tuple = tuple(sorted(set(failed)))
        if failed_tuple not in rerouted:
            row = stretch_under_failures(ev, design, failed_tuple)
            if not np.isfinite(row).any():
                raise ValueError(f"interval {t}: no connected pairs")
            row.flags.writeable = False
            rerouted[failed_tuple] = (row, stretch_stats(row, ev.pairs.weights))
        intervals.append(IntervalResult(t, failed_tuple, *rerouted[failed_tuple]))
    return WeatherReport(tuple(intervals), ev.pairs)


def analyze(inp: DesignInput, design: NetworkDesign, field,
            coords: Mapping[str, GeoPoint],
            model: AttenuationModel = AttenuationModel(),
            timestamps: Sequence[str] | None = None) -> WeatherReport:
    """End-to-end weather run: compute failures per interval, then reroute."""
    times = list(timestamps) if timestamps is not None else field.timestamps()
    failures = list(zip(times, failed_links(design, inp.tower_paths, coords, field, times, model)))
    return reroute_and_stats(inp, design, failures)


def select_intervals(timestamps: Sequence[str], per_day: int = 1, seed: int = 0) -> list[str]:
    """Pick `per_day` timestamps uniformly at random within each calendar
    day (dates are the first 10 chars of ISO timestamps); seeded."""
    if per_day < 1:
        raise ValueError("per_day must be >= 1")
    by_day: dict[str, list[str]] = {}
    for t in sorted(timestamps):
        by_day.setdefault(t[:10], []).append(t)
    rng = np.random.default_rng(seed)
    chosen: list[str] = []
    for day in sorted(by_day):
        group = by_day[day]
        take = min(per_day, len(group))
        picks = rng.choice(len(group), size=take, replace=False)
        chosen.extend(group[i] for i in sorted(picks))
    return chosen


def write_intervals_csv(report: WeatherReport, path: str) -> None:
    links = [link_id(pair) for pair in report.pairs.pairs]
    # tolist(): the cells are repr of Python floats, not of numpy scalars.
    write_csv(path, "timestamp,pair,stretch",
              ([interval.timestamp, lid, repr(s)] for interval in report.intervals
               for lid, s in zip(links, interval.per_pair_stretch.tolist())))


def write_percentiles_csv(report: WeatherReport, path: str) -> None:
    write_csv(path, "pair,min,median,p95,p99,max",
              ([link_id(pair), *map(repr, row)] for pair, row
               in zip(report.pairs.pairs, report.pair_percentiles().T.tolist())))
