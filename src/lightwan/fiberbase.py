"""Fiber-only baseline analysis: conduit-graph stretch statistics, the
iterative link-pruning heuristic, and wavelength-lease costing.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geo import FIBER_SLOWDOWN, Site, geodesic_km, load_sites_csv, read_csv, require_finite
from .graphcore import (
    BATCH_ELEMENTS as _BATCH_ELEMENTS, bridges, distance_matrix,
    next_hop_walks, weight_matrix,
)
from .traffic import Pair, PairIndex, TrafficMatrix, pair_key

logger = logging.getLogger(__name__)

WAVELENGTH_GBPS = (1.0, 10.0, 40.0, 100.0)
MAX_WAVELENGTHS_PER_LINK = 2
UTILIZATION_FLOOR = 0.20
UTILIZATION_CEILING = 0.90

# Months are 365.25/12 days so that leases and tower rents amortize over
# the same year length.
SECONDS_PER_MONTH = 365.25 / 12.0 * 86400.0


class FiberGraph:
    """Conduit endpoints (sites, kept in insertion order, which is the node
    order of every fiber matrix) and long-haul fiber links with physical
    lengths."""

    def __init__(self) -> None:
        self.endpoints: dict[str, Site] = {}
        self.links: dict[Pair, float] = {}

    def add_endpoint(self, site: Site) -> None:
        if site.id in self.endpoints:
            raise ValueError(f"duplicate endpoint {site.id!r}")
        self.endpoints[site.id] = site

    def add_link(self, a: str, b: str, fiber_km: float) -> None:
        """Add the conduit a-b; a pair added again, in either order,
        keeps its last length."""
        if a not in self.endpoints or b not in self.endpoints:
            raise ValueError(f"link ({a}, {b}) references unknown endpoint")
        if not 0 < fiber_km < math.inf:
            raise ValueError(f"link ({a}, {b}): fiber_km must be finite and > 0, got {fiber_km}")
        key = pair_key(a, b)
        geo = geodesic_km(self.endpoints[a].location, self.endpoints[b].location)
        # Source data sometimes records geodesics; flag, do not reject.
        if fiber_km < geo * (1.0 - 1e-9):
            logger.warning("fiber link (%s, %s) shorter than geodesic: %.3f < %.3f km",
                           a, b, fiber_km, geo)
        self.links[key] = fiber_km

    def remove_link(self, a: str, b: str) -> None:
        del self.links[pair_key(a, b)]

    def copy(self) -> "FiberGraph":
        g = FiberGraph()
        g.endpoints = dict(self.endpoints)
        g.links = dict(self.links)
        return g

    def total_fiber_km(self) -> float:
        return sum(self.links.values())


def load_fiber_csv(conduits_path: str, endpoints_path: str) -> FiberGraph:
    """Build a FiberGraph from endpoints (a sites file, read by
    `load_sites_csv`, kept in file order) and conduits
    (endpoint_a,endpoint_b,fiber_km) CSV files. A conduit pair listed
    again, in either order, keeps its last length with a warning."""
    g = FiberGraph()
    for site in load_sites_csv(endpoints_path):
        g.add_endpoint(site)

    def conduit(a, b, km):
        before = g.links.get(pair_key(a, b))
        g.add_link(a, b, float(km))
        if before is not None:
            logger.warning("%s: conduit (%s, %s) listed again: %r km replaces %r km",
                           conduits_path, a, b, float(km), before)

    read_csv(conduits_path, "endpoint_a,endpoint_b,fiber_km", conduit)
    return g


@dataclass(frozen=True)
class StretchStats:
    """Weighted stretch summary over site pairs, in Python numbers."""

    mean: float
    median: float
    p95: float
    weighting: str  # "uniform" | "gravity"
    pair_count: int = 0
    excluded_pairs: int = 0


def weighted_quantiles(values: Sequence[float], weights: Sequence[float],
                       qs: Sequence[float]) -> list[float]:
    """Lower weighted quantiles: per q, the smallest value whose cumulative
    weight, values in stable sorted order, reaches q of the total (within
    1e-15 relative), else the largest. With equal weights this is the
    unweighted lower quantile, so uniform and degenerate-gravity weightings
    agree exactly. Weights must be >= 0."""
    values, weights = np.asarray(values, dtype=float), np.asarray(weights, dtype=float)
    if not len(values):
        raise ValueError("no values")
    if not all(0.0 <= q <= 1.0 for q in qs):
        raise ValueError("q must be in [0, 1]")
    # Totals and means are builtin sums over Python floats in pair order:
    # np.sum adds pairwise and, from Python 3.12, the builtin compensates,
    # so neither np.sum nor np.cumsum gives the same bits.
    total = sum(weights.tolist())
    if total <= 0:
        raise ValueError("weights must have positive total")
    return _quantiles(values, weights, qs, total)


def _quantiles(values: np.ndarray, weights: np.ndarray, qs: Sequence[float],
               total: float) -> list[float]:
    order = np.argsort(values, kind="stable")
    # np.cumsum only stands in for the running `acc += w`, which it matches;
    # with weights >= 0 its sums never fall, so bisection finds the first.
    acc = np.cumsum(weights[order])
    at = np.searchsorted(acc, [q * total - 1e-15 * total for q in qs], side="left")
    return values[order[np.minimum(at, len(acc) - 1)]].tolist()


def weighted_mean(values: np.ndarray, weights: np.ndarray) -> tuple[float, float]:
    """Sum of value x weight over the sum of weights, and that sum (builtin
    sums, see `weighted_quantiles`)."""
    total = sum(weights.tolist())
    if total <= 0:
        raise ValueError("no weighted pairs to summarize")
    return sum((values * weights).tolist()) / total, total


def stretch_stats(stretch: np.ndarray, weights: np.ndarray | None = None) -> StretchStats:
    """Summarize per-pair stretch, an array in `PairIndex` order with inf
    for a disconnected pair; those are left out and counted as
    `excluded_pairs`. Traffic-weighted by a weight vector in the same order
    (`PairIndex.weights`), else uniform."""
    up = np.isfinite(stretch)
    values = stretch[up]
    wts = np.ones(len(values)) if weights is None else weights[up]
    mean, total = weighted_mean(values, wts)
    return StretchStats(mean, *_quantiles(values, wts, (0.5, 0.95), total),
                        "uniform" if weights is None else "gravity",
                        len(values), len(stretch) - len(values))


def _site_pairs(g: FiberGraph, pairs: PairIndex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each pair's row and column over `g`'s endpoints, and its geodesic km."""
    index = {n: i for i, n in enumerate(g.endpoints)}
    if unknown := [s for s in pairs.ids if s not in index]:
        raise KeyError(f"unknown site {unknown[0]!r}")
    at = np.array([index[s] for s in pairs.ids], dtype=np.intp)
    geo = np.array([geodesic_km(g.endpoints[s].location, g.endpoints[t].location)
                    for s, t in pairs.pairs])
    if (geo == 0).any():
        s, t = pairs.pairs[int(np.argmin(geo))]
        raise ValueError(f"coincident sites ({s}, {t}): stretch undefined")
    return at[pairs.rows], at[pairs.cols], geo


def pair_stretches(g: FiberGraph, sites: Sequence[str]) -> np.ndarray:
    """Per-pair fiber stretch (path km x slowdown / geodesic km) over
    `PairIndex(sites)`, inf where disconnected; one warning per call counts those."""
    pairs = PairIndex(sites)
    rows, cols, geo = _site_pairs(g, pairs)
    km = distance_matrix(weight_matrix(list(g.endpoints), g.links))[rows, cols]
    stretch = km * FIBER_SLOWDOWN / geo
    _warn_cut(pairs, stretch)
    return stretch


def _warn_cut(pairs: PairIndex, stretch: np.ndarray) -> None:
    cut = np.flatnonzero(np.isinf(stretch))
    if len(cut):
        logger.warning("%d site pairs disconnected in fiber graph, first (%s, %s)",
                       len(cut), *pairs.pairs[cut[0]])


def fiber_stretch_stats(g: FiberGraph, sites: Sequence[str],
                        weights: TrafficMatrix | None = None) -> StretchStats:
    """Stretch statistics over the site set; gravity-weighted when `weights`
    is given, else uniform over pairs."""
    return stretch_stats(pair_stretches(g, sites), PairIndex(sites, weights).weights)


def site_fiber_km(g: FiberGraph, sites: Sequence[Site]) -> dict[Pair, float]:
    """Per-pair fiber km: shortest conduit path between the endpoints
    nearest to each site, plus the site-to-endpoint stub distances (which
    keeps path lengths at or above the site geodesic)."""
    nearest = {}
    stub = {}
    for site in sites:
        best = min(g.endpoints.values(),
                   key=lambda ep: (geodesic_km(site.location, ep.location), ep.id))
        nearest[site.id] = best.id
        stub[site.id] = geodesic_km(site.location, best.location)
    nodes = list(g.endpoints)
    index = {n: i for i, n in enumerate(nodes)}
    dist = distance_matrix(weight_matrix(nodes, g.links)).tolist()
    out = {}
    for a, b in PairIndex(nearest).pairs:
        km = stub[a] + dist[index[nearest[a]]][index[nearest[b]]] + stub[b]
        if 0 < km < math.inf:
            out[(a, b)] = km
    return out


@dataclass(frozen=True)
class PruneStep:
    graph: FiberGraph
    stats: StretchStats
    removed: Pair | None


def prune_links(g: FiberGraph, sites: Sequence[str],
                weights: TrafficMatrix | None = None) -> list[PruneStep]:
    """Iteratively drop the non-bridge link whose removal least increases
    mean stretch, until only bridges remain.

    The returned sequence starts with the untouched input, so a tree comes
    back as a single step. Connectivity is never broken because bridge
    links are exempt. Each round scores its trial removals with stacked
    `distance_matrix` calls; a trial's mean is `weighted_mean` over the
    same per-pair terms as `stretch_stats(pair_stretches(trial)).mean`. A
    step's statistics come from its chosen trial's stretch row: the same
    node order and weight matrix as `fiber_stretch_stats` of the pruned
    graph, so the same floats, and no second solve. The first step is that
    reference itself.
    """
    work = g.copy()
    steps = [PruneStep(work.copy(), fiber_stretch_stats(work, sites, weights), None)]
    nodes = list(work.endpoints)
    index = {n: i for i, n in enumerate(nodes)}
    pairs = PairIndex(sites, weights)
    rows, cols, geo_km = _site_pairs(work, pairs)
    wts = np.ones(len(pairs.pairs)) if pairs.weights is None else pairs.weights
    step = max(1, _BATCH_ELEMENTS // len(nodes) ** 2)
    while True:
        safe = bridges(work.links)
        candidates = sorted(k for k in work.links if k not in safe)
        if not candidates:
            break
        base = weight_matrix(nodes, work.links)
        # The first least mean wins; its trial's stretch row becomes the step's.
        best_mean, best_key, best_row = math.inf, None, None
        for start in range(0, len(candidates), step):
            batch = candidates[start:start + step]
            trials = np.repeat(base[None], len(batch), axis=0)
            for t, (a, b) in enumerate(batch):
                trials[t, index[a], index[b]] = trials[t, index[b], index[a]] = math.inf
            stretch = distance_matrix(trials)[:, rows, cols] * FIBER_SLOWDOWN / geo_km
            for key, row in zip(batch, stretch):
                up = np.isfinite(row)
                mean = weighted_mean(row[up], wts[up])[0]
                if best_key is None or mean < best_mean:
                    best_mean, best_key, best_row = mean, key, row
        work.remove_link(*best_key)
        _warn_cut(pairs, best_row)
        steps.append(PruneStep(work.copy(), stretch_stats(best_row, pairs.weights), best_key))
    return steps


@dataclass(frozen=True)
class WavelengthAssignment:
    link: Pair
    demand_gbps: float
    capacity_gbps: float
    count: int
    utilization: float
    under_floor: bool = False
    unprovisionable: bool = False


@dataclass(frozen=True)
class WavelengthPlan:
    links: tuple[WavelengthAssignment, ...]
    aggregate_gbps: float


def _pick_wavelength(demand: float) -> tuple[float, int, bool, bool]:
    """Smallest wavelength option covering `demand`; prefers utilization in
    the 20-90% lease band. Returns (capacity, count, under_floor,
    unprovisionable)."""
    options = [(cap, cnt) for cap in WAVELENGTH_GBPS
               for cnt in range(1, MAX_WAVELENGTHS_PER_LINK + 1)]
    covering = [(cap, cnt) for cap, cnt in options if cap * cnt >= demand]
    if not covering:
        return WAVELENGTH_GBPS[-1], MAX_WAVELENGTHS_PER_LINK, False, True
    in_band = [(cap, cnt) for cap, cnt in covering
               if UTILIZATION_FLOOR <= demand / (cap * cnt) <= UTILIZATION_CEILING]
    pool = in_band if in_band else covering
    cap, cnt = min(pool, key=lambda o: (o[0] * o[1], o[1]))
    util = demand / (cap * cnt)
    return cap, cnt, util < UTILIZATION_FLOOR, False


def route_fiber_demand(g: FiberGraph, weights: TrafficMatrix,
                       aggregate_gbps: float) -> dict[Pair, float]:
    """Per-link Gbps after placing each pair's demand, in the matrix's sorted
    pair order, on its shortest fiber path (`next_hop_walks`, endpoints in
    file order). A pair naming no endpoint raises KeyError, a disconnected
    one ValueError."""
    nodes = list(g.endpoints)
    index = {n: i for i, n in enumerate(nodes)}
    w = weight_matrix(nodes, g.links)
    dist = distance_matrix(w)
    demands = weights.scaled(aggregate_gbps)
    for a, b in demands:
        for s in (a, b):
            if s not in index:
                raise KeyError(f"unknown site {s!r}")
        if math.isinf(dist[index[a], index[b]]):
            raise ValueError(f"site pair ({a}, {b}) disconnected in fiber graph")
    loads: dict[Pair, float] = {key: 0.0 for key in g.links}
    walks = next_hop_walks(w, dist, [(index[a], index[b]) for a, b in demands])
    for gbps, walk in zip(demands.values(), walks):
        for u, v in zip(walk, walk[1:]):
            loads[pair_key(nodes[u], nodes[v])] += gbps
    return loads


def provision_wavelengths(g: FiberGraph, weights: TrafficMatrix,
                          aggregate_gbps: float) -> WavelengthPlan:
    """Choose wavelength capacity/count per link for shortest-path routed
    demand. Every link of the topology is leased, including ones the
    routing leaves idle."""
    if not 0 < aggregate_gbps < math.inf:
        raise ValueError(f"aggregate_gbps must be finite and > 0, got {aggregate_gbps!r}")
    loads = route_fiber_demand(g, weights, aggregate_gbps)
    assignments = []
    for key in sorted(g.links):
        demand = loads.get(key, 0.0)
        cap, cnt, under, unprov = _pick_wavelength(demand)
        if unprov:
            logger.warning("link (%s, %s): demand %.1f Gbps exceeds 2x100 Gbps, "
                           "unprovisionable", key[0], key[1], demand)
        assignments.append(WavelengthAssignment(key, demand, cap, cnt,
                                                demand / (cap * cnt), under, unprov))
    return WavelengthPlan(tuple(assignments), aggregate_gbps)


@dataclass(frozen=True)
class LeaseCostModel:
    price_per_gbps_km_month: float = 0.25
    equipment_per_site: float = 10000.0
    colo_per_site_month: float = 2000.0
    term_months: int = 60

    def __post_init__(self) -> None:
        require_finite(self)
        if min(self.price_per_gbps_km_month, self.equipment_per_site,
               self.colo_per_site_month, self.term_months) < 0:
            raise ValueError("cost model values must be >= 0")


@dataclass(frozen=True)
class LeaseCostReport:
    bandwidth_usd: float
    site_usd: float
    total_usd: float
    dollars_per_gb: float
    site_count: int


def lease_cost(plan: WavelengthPlan, g: FiberGraph,
               model: LeaseCostModel = LeaseCostModel()) -> LeaseCostReport:
    """Wavelength-lease cost over the model's term plus per-site
    equipment/colo.

    Sites are the endpoints incident to leased links. Dollars per GB
    amortize the total over the plan's aggregate input rate running
    continuously for the term.
    """
    months, aggregate = model.term_months, plan.aggregate_gbps
    bandwidth = 0.0
    touched: set[str] = set()
    for a in plan.links:
        km = g.links[a.link]
        bandwidth += a.capacity_gbps * a.count * km * model.price_per_gbps_km_month * months
        touched.update(a.link)
    site = len(touched) * (model.equipment_per_site + model.colo_per_site_month * months)
    total = bandwidth + site
    if aggregate > 0 and months > 0:
        per_gb = total / (aggregate / 8.0 * months * SECONDS_PER_MONTH)
    else:
        per_gb = 0.0
    return LeaseCostReport(bandwidth, site, total, per_gb, len(touched))
