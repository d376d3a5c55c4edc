"""Demand routing at absolute rates, parallel-series bandwidth augmentation,
and the microwave cost model producing dollars per GB.

k parallel tower series with cross-connected antennae give a k^2 capacity
multiple, so a link carrying demand q needs the smallest k with
k^2 x series-capacity >= q. Extra series come from existing towers where
interior-disjoint chains exist; any shortfall is costed as new towers at
both ends of every hop, deliberately overestimating expense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .designer import NetworkDesign, site_tower_graph
from .geo import Site, require_finite, write_csv, write_json
from .graphcore import tower_disjoint_paths
from .los import HopGraph
from .traffic import Pair, TrafficMatrix, pair_key

SECONDS_PER_YEAR = 365.25 * 86400.0


@dataclass(frozen=True)
class MwCostModel:
    """Build and operating costs for microwave links."""

    link_cost_1gbps: float = 150000.0
    new_tower: float = 100000.0
    rent_per_tower_year: float = 37500.0  # midpoint of the 25-50k range
    term_years: int = 5
    per_series_capacity_gbps: float = 1.0

    def __post_init__(self) -> None:
        require_finite(self)
        if min(self.link_cost_1gbps, self.new_tower, self.rent_per_tower_year,
               self.term_years, self.per_series_capacity_gbps) < 0:
            raise ValueError("cost model values must be >= 0")


@dataclass
class LinkLoads:
    """Per-link one-way Gbps, split by medium."""

    mw: dict[Pair, float]
    fiber: dict[Pair, float]


def route_demand(design: NetworkDesign, traffic: TrafficMatrix,
                 aggregate_gbps: float) -> LinkLoads:
    """Place each pair's absolute demand on its routed path and sum per link."""
    if not 0 <= aggregate_gbps < math.inf:
        raise ValueError(f"aggregate_gbps must be finite and >= 0, got {aggregate_gbps!r}")
    mw: dict[Pair, float] = {}
    fiber: dict[Pair, float] = {}
    for (a, b), h in traffic.items():
        route = design.routes.get((a, b))
        if route is None:
            raise KeyError(f"pair ({a}, {b}) is not routed in the design")
        demand = h * aggregate_gbps
        for (u, v), medium in zip(route.edges, route.media):
            key = pair_key(u, v)
            bucket = mw if medium == "mw" else fiber
            bucket[key] = bucket.get(key, 0.0) + demand
    return LinkLoads(mw, fiber)


def series_needed(demand_gbps: float, per_series_capacity_gbps: float = 1.0) -> int:
    """Smallest k with k^2 x capacity >= demand; at least one series."""
    if not 0 <= demand_gbps < math.inf:
        raise ValueError(f"demand_gbps must be finite and >= 0, got {demand_gbps!r}")
    if not 0 < per_series_capacity_gbps < math.inf:
        raise ValueError(f"per_series_capacity_gbps must be finite and > 0, "
                         f"got {per_series_capacity_gbps!r}")
    k = max(1, math.isqrt(math.ceil(demand_gbps / per_series_capacity_gbps)))
    while k * k * per_series_capacity_gbps < demand_gbps:
        k += 1
    return k


@dataclass(frozen=True)
class LinkAugmentation:
    """Augmentation outcome for one built MW link.

    Hop counts exclude the site-to-tower stubs: a series over t towers has
    t - 1 radio hops. `shortfall` is the new towers needed per hop end
    (the series missing from the existing disjoint ones).
    """

    link: Pair
    demand_gbps: float
    series_count: int
    series_found: int
    shortfall: int
    primary_hops: int
    extra_series_hops: tuple[int, ...]
    new_towers: int
    towers_used: tuple[str, ...]

    @property
    def radio_hops(self) -> int:
        # One radio link per tower-tower hop per series; shortfall series
        # are assumed to mirror the primary's hop count.
        return (self.primary_hops + sum(self.extra_series_hops)
                + self.shortfall * self.primary_hops)


@dataclass(frozen=True)
class AugmentationPlan:
    links: tuple[LinkAugmentation, ...]
    per_series_capacity_gbps: float

    @property
    def total_new_towers(self) -> int:
        return sum(entry.new_towers for entry in self.links)

    @property
    def existing_towers_used(self) -> tuple[str, ...]:
        used: set[str] = set()
        for entry in self.links:
            used.update(entry.towers_used)
        return tuple(sorted(used))

    @property
    def hops_by_category(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for entry in self.links:
            out[entry.shortfall] = out.get(entry.shortfall, 0) + entry.primary_hops
        return out

    @property
    def total_radio_hops(self) -> int:
        return sum(entry.radio_hops for entry in self.links)


def augment(design: NetworkDesign, loads: LinkLoads, hop_graph: HopGraph,
            sites: Sequence[Site], radius_km: float = 15.0,
            per_series_capacity_gbps: float = 1.0) -> AugmentationPlan:
    """Assemble parallel tower series for every over-subscribed MW link.

    For a link needing k series, up to k - 1 additional interior-disjoint
    tower chains are drawn from the inventory via successive shortest
    paths; missing chains are charged as new towers at both ends of every
    primary hop. Never fails: shortfall is costed, not fatal. One tower graph
    with every link endpoint attached serves every link; each search blocks
    the endpoints of other links.
    """
    ends = {end for link in design.built_links for end in link}
    attached = [s for s in sites if s.id in ends]
    g = site_tower_graph(attached, hop_graph, radius_km)
    ids = {s.id for s in attached}
    entries = []
    for link in design.built_links:
        demand = loads.mw.get(link, 0.0)
        k = series_needed(demand, per_series_capacity_gbps)
        a, b = link
        if a not in ids or b not in ids:
            raise KeyError(f"link {link} endpoints missing from the site list")
        paths = tower_disjoint_paths(g, a, b, k, blocked=ids - {a, b})
        if not paths:
            raise ValueError(f"no tower path for built link {link}")
        # A path's interior is its tower series: sites attach only to towers.
        primary_hops = len(paths[0].interior) - 1
        extra_hops = tuple(len(p.interior) - 1 for p in paths[1:])
        shortfall = (k - 1) - len(extra_hops)
        towers = set().union(*(p.interior for p in paths))
        entries.append(LinkAugmentation(
            link=link, demand_gbps=demand, series_count=k,
            series_found=len(extra_hops), shortfall=shortfall,
            primary_hops=primary_hops, extra_series_hops=extra_hops,
            new_towers=shortfall * 2 * primary_hops, towers_used=tuple(sorted(towers))))
    return AugmentationPlan(tuple(entries), per_series_capacity_gbps)


@dataclass(frozen=True)
class MwCostReport:
    capex_usd: float
    rent_usd: float
    total_usd: float
    dollars_per_gb: float
    radio_hops: int
    towers_rented: int
    new_towers: int


def mw_cost(plan: AugmentationPlan, model: MwCostModel = MwCostModel(),
            aggregate_gbps: float = 0.0) -> MwCostReport:
    """Capex (radios per hop per series plus new towers) and rent over the
    term, amortized over the aggregate rate for dollars per GB."""
    radios = plan.total_radio_hops
    new_towers = plan.total_new_towers
    capex = model.link_cost_1gbps * radios + model.new_tower * new_towers
    towers_rented = len(plan.existing_towers_used) + new_towers
    rent = model.rent_per_tower_year * towers_rented * model.term_years
    total = capex + rent
    if aggregate_gbps > 0:
        gb = aggregate_gbps / 8.0 * model.term_years * SECONDS_PER_YEAR
        per_gb = total / gb
    else:
        per_gb = 0.0
    return MwCostReport(capex, rent, total, per_gb, radios, towers_rented, new_towers)


def plan_to_json(plan: AugmentationPlan, report: MwCostReport | None, path: str) -> None:
    doc = {
        "per_series_capacity_gbps": plan.per_series_capacity_gbps,
        "total_new_towers": plan.total_new_towers,
        "total_radio_hops": plan.total_radio_hops,
        "hops_by_category": {str(k): v for k, v in sorted(plan.hops_by_category.items())},
        "links": [
            {"link": list(e.link), "demand_gbps": e.demand_gbps,
             "series_count": e.series_count, "series_found": e.series_found,
             "shortfall": e.shortfall, "primary_hops": e.primary_hops,
             "new_towers": e.new_towers}
            for e in plan.links
        ],
    }
    if report is not None:
        doc["cost"] = {
            "capex_usd": report.capex_usd, "rent_usd": report.rent_usd,
            "total_usd": report.total_usd, "dollars_per_gb": report.dollars_per_gb,
            "towers_rented": report.towers_rented,
        }
    write_json(doc, path)


def plan_categories_csv(plan: AugmentationPlan, path: str) -> None:
    """Per-link categories for map rendering (series count -> line weight)."""
    write_csv(path, "link_a,link_b,demand_gbps,series_count,new_towers_per_hop_end,primary_hops",
              ([*e.link, f"{e.demand_gbps:.6f}", e.series_count, e.shortfall, e.primary_hops]
               for e in sorted(plan.links, key=lambda e: e.link)))
