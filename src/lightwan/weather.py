"""Precipitation-driven microwave link failure and rerouting analysis.

Rain attenuation follows the ITU-style power law gamma = k R^alpha dB/km;
a link fails, in a binary fashion, when any of its tower-tower hops
accumulates more attenuation than the configured fade margin. Fiber is
unaffected; per interval, traffic reroutes over whatever survives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .designer import DesignInput, HybridEvaluator, NetworkDesign
from .fiberbase import StretchStats, stretch_stats, weighted_quantiles
from .geo import GeoPoint, geodesic_km, read_csv, require_finite, write_csv
from .graphcore import distance_matrix
from .los import TerrainGrid, _path_samples
from .traffic import Pair, PairIndex, link_id, parse_link_id


# ITU-R P.838 power-law coefficients (f_ghz, k, alpha), horizontal polarization:
# the one pair shipped. Another los.f_ghz needs its own k and alpha.
P838_11_GHZ = (11.0, 0.01217, 1.2571)


@dataclass(frozen=True)
class AttenuationModel:
    k_coeff: float = P838_11_GHZ[1]
    alpha: float = P838_11_GHZ[2]
    fail_threshold_db: float = 30.0  # fade margin; no single standard value, tune per deployment

    def __post_init__(self) -> None:
        # nan would fail no link.
        require_finite(self)
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


def load_rain_csv(path: str, sites: Iterable[str]) -> dict[str, dict[str, float]]:
    """{timestamp: {link id: mm/h}} from a CSV with header
    timestamp,link_id,rain_mm_h. A link id is two distinct ids of `sites`
    joined by "|", in either order; it is stored in the canonical order of
    `link_id`. Rain on a pair of sites with no built link is read and stays
    dry. A rate must be finite and >= 0."""
    known = set(sites)
    data: dict[str, dict[str, float]] = {}

    def rate(t, lid, mm_h):
        pair = parse_link_id(lid, known)
        if not 0.0 <= float(mm_h) < math.inf:
            raise ValueError(f"link {lid!r}: rain_mm_h {mm_h} must be finite and >= 0")
        data.setdefault(t, {})[link_id(pair)] = float(mm_h)
    read_csv(path, "timestamp,link_id,rain_mm_h", rate)
    return data


def failed_links(design: NetworkDesign, tower_paths: Mapping[Pair, Sequence[str]],
                 coords: Mapping[str, GeoPoint],
                 frames: Iterable[tuple[str, TerrainGrid | Mapping[str, float]]],
                 model: AttenuationModel = AttenuationModel()) -> Iterator[tuple[str, set[Pair]]]:
    """Per (timestamp, rain) frame, read one at a time in order: the
    timestamp and the MW links whose worst hop exceeds the fade margin.
    `rain` is a raster in mm/h (a hop's rate is the mean of its ~1 km
    great-circle samples) or one interval's {link id: mm/h} (a rate applies
    along the whole link; absent links are dry). `tower_paths` gives each
    built link's node chain (sites included), `coords` each node's position."""
    links = design.built_links
    owner, hops = [], []  # per hop: its link's index, its endpoints
    for k, pair in enumerate(links):
        chain = tower_paths.get(pair)
        if chain is None or len(chain) < 2:
            raise KeyError(f"no tower path recorded for built link {pair}")
        owner += [k] * (len(chain) - 1)
        hops += [(coords[u], coords[v]) for u, v in zip(chain, chain[1:])]
    km = [geodesic_km(a, b) for a, b in hops]
    hop_links = [link_id(links[k]) for k in owner]
    samples = None
    for t, rain in frames:
        if isinstance(rain, TerrainGrid):
            if samples is None:  # once per distinct hop, on the first raster
                points = {hop: _path_samples(*hop, max(1, math.ceil(d)))[:2]
                          for hop, d in dict(zip(hops, km)).items()}
                # Every hop's samples end to end; the empty head serves a design without links.
                samples = [np.concatenate([np.empty(0), *(points[hop][i] for hop in hops)])
                           for i in (0, 1)]
                ends = np.cumsum([len(points[hop][0]) for hop in hops], dtype=np.intp).tolist()
                spans = list(zip([0, *ends], ends))
            rates = _hop_means(t, rain, *samples, spans, hop_links)
        else:
            rates = [rain.get(lid, 0.0) for lid in hop_links]
        del rain  # the frame goes before the next one is read
        yield t, {links[k] for k, r, d in zip(owner, rates, km)
                  if rain_attenuation_db(d, r, model) > model.fail_threshold_db}


def _hop_means(t: str, rain: TerrainGrid, lats: np.ndarray, lons: np.ndarray,
               spans: Sequence[tuple[int, int]], hop_links: Sequence[str]) -> list[float]:
    """Each hop's mean rain rate from one raster read over every hop's samples:
    per span the pairwise sum and division of its own `np.mean`, bitwise. A
    sample off the raster, on NODATA or below 0 names the frame and link."""
    try:
        values = rain.sample_many(lats, lons)
    except ValueError:
        for (s, e), lid in zip(spans, hop_links):
            try:
                rain.sample_many(lats[s:e], lons[s:e])
            except ValueError as exc:
                raise ValueError(f"rain frame {t}: link {lid!r}: {exc}") from None
        raise
    if values.min(initial=0.0) < 0.0:
        for (s, e), lid in zip(spans, hop_links):
            if values[s:e].min() < 0.0:
                raise ValueError(f"rain frame {t}: link {lid!r}: negative rain rate "
                                 f"{values[s:e].min():g} mm/h")
    return [float(values[s:e].sum()) / (e - s) for s, e in spans]


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
                      failures_by_interval: Iterable[tuple[str, Iterable[Pair]]]) -> WeatherReport:
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


def analyze(inp: DesignInput, design: NetworkDesign,
            frames: Iterable[tuple[str, TerrainGrid | Mapping[str, float]]],
            coords: Mapping[str, GeoPoint],
            model: AttenuationModel = AttenuationModel()) -> WeatherReport:
    """End-to-end weather run over (timestamp, rain) frames (see
    `failed_links`), read lazily: each frame's failures, then its reroute."""
    return reroute_and_stats(inp, design,
                             failed_links(design, inp.tower_paths, coords, frames, model))


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
