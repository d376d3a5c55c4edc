"""Traffic-matrix construction: gravity demand, inter-DC, DC-edge, mixes,
and seeded population perturbations.

Matrices hold relative demand over unordered site pairs, normalized to
sum to one; absolute rates are applied downstream via an aggregate-Gbps
scale factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .geo import Site, geodesic_km

Pair = tuple[str, str]


def pair_key(a: str, b: str) -> Pair:
    """Canonical unordered-pair key."""
    if a == b:
        raise ValueError(f"pair with identical endpoints {a!r}")
    return (a, b) if a < b else (b, a)


def link_id(pair: Pair) -> str:
    """A link's id in files: its two site ids joined by "|"."""
    return f"{pair[0]}|{pair[1]}"


def parse_link_id(lid: str, sites: Collection[str]) -> Pair:
    """The canonical pair of a link id: two distinct ids of `sites` joined
    by "|", in either order."""
    ends = lid.split("|")
    if len(ends) != 2 or ends[0] == ends[1] or not all(e in sites for e in ends):
        raise ValueError(f"link {lid!r}: a link id must be two distinct sites "
                         f"of the instance joined by '|'")
    return pair_key(*ends)


class PairIndex:
    """The one site-pair order, sorted pair keys: pair k is `pairs[k]` =
    (ids[rows[k]], ids[cols[k]]), `ids` sorted and distinct and `rows, cols =
    np.triu_indices(n, 1)`. Per-pair values are float arrays in this order;
    `weights` holds the traffic matrix's (0 for a pair it lacks) or None."""

    def __init__(self, ids: Iterable[str], traffic: TrafficMatrix | None = None) -> None:
        self.ids = sorted(set(ids))
        n = len(self.ids)
        # np.triu_indices's order; at design sizes that call costs more than this.
        rows = [i for i in range(n) for _ in range(i + 1, n)]
        cols = [j for i in range(n) for j in range(i + 1, n)]
        self.rows, self.cols = np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)
        self.pairs = list(zip([self.ids[i] for i in rows], [self.ids[j] for j in cols]))
        self.weights = (None if traffic is None
                        else np.array([traffic._weights.get(p, 0.0) for p in self.pairs]))


@dataclass(frozen=True)
class TrafficMix:
    """Blend ratios for combining traffic classes, e.g. (4, 3, 3)."""

    ratios: tuple[float, ...]

    def __post_init__(self) -> None:
        if not all(0 <= r < math.inf for r in self.ratios):
            raise ValueError(f"mix_ratios must be finite and >= 0, got {list(self.ratios)!r}")
        if sum(self.ratios) <= 0:
            raise ValueError("mix ratios must not all be zero")


class TrafficMatrix:
    """Normalized relative demand h over unordered site pairs."""

    def __init__(self, weights: Mapping[Pair, float]) -> None:
        acc: dict[Pair, float] = {}
        for (a, b), w in weights.items():
            if w < 0:
                raise ValueError(f"negative weight for pair ({a}, {b})")
            if w == 0:
                continue
            key = pair_key(a, b)
            acc[key] = acc.get(key, 0.0) + w
        total = sum(acc.values())
        if total <= 0:
            raise ValueError("traffic matrix has no positive demand")
        self._weights = {k: w / total for k, w in sorted(acc.items())}

    def items(self) -> Iterator[tuple[Pair, float]]:
        return iter(self._weights.items())

    def as_dict(self) -> dict[Pair, float]:
        return dict(self._weights)

    def scaled(self, aggregate_gbps: float) -> dict[Pair, float]:
        """Absolute per-pair demand in Gbps."""
        if aggregate_gbps < 0:
            raise ValueError("aggregate must be >= 0")
        return {k: w * aggregate_gbps for k, w in self._weights.items()}

    def __len__(self) -> int:
        return len(self._weights)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrafficMatrix):
            return NotImplemented
        return self._weights == other._weights


def gravity_matrix(sites: Sequence[Site]) -> TrafficMatrix:
    """Demand proportional to the product of endpoint populations."""
    if len(sites) < 2:
        raise ValueError("gravity model needs at least 2 sites")
    for s in sites:
        if s.population <= 0:
            raise ValueError(f"site {s.id!r} needs a positive population")
    weights = {}
    for i, a in enumerate(sites):
        for b in sites[i + 1:]:
            weights[pair_key(a.id, b.id)] = a.population * b.population
    return TrafficMatrix(weights)


def inter_dc_matrix(dc_sites: Sequence[Site]) -> TrafficMatrix:
    """Equal demand between every pair of data centers."""
    if len(dc_sites) < 2:
        raise ValueError("need at least 2 data centers")
    weights = {}
    for i, a in enumerate(dc_sites):
        for b in dc_sites[i + 1:]:
            weights[pair_key(a.id, b.id)] = 1.0
    return TrafficMatrix(weights)


def dc_edge_matrix(cities: Sequence[Site], dc_sites: Sequence[Site]) -> TrafficMatrix:
    """Each city paired with its geodesically nearest DC, weighted by population.

    Nearest-DC ties break toward the smallest DC id. A city whose nearest
    DC has the city's own id is that DC's site and adds no demand.
    """
    if not cities or not dc_sites:
        raise ValueError("need at least one city and one data center")
    weights: dict[Pair, float] = {}
    dcs = sorted(dc_sites, key=lambda s: s.id)
    for city in cities:
        best = min(dcs, key=lambda dc: (geodesic_km(city.location, dc.location), dc.id))
        if best.id == city.id:
            continue
        key = pair_key(city.id, best.id)
        weights[key] = weights.get(key, 0.0) + city.population
    return TrafficMatrix(weights)


def mix(matrices: Sequence[TrafficMatrix], ratios: TrafficMix) -> TrafficMatrix:
    """Convex combination of normalized matrices, renormalized."""
    if len(matrices) != len(ratios.ratios):
        raise ValueError(f"{len(ratios.ratios)} ratios for {len(matrices)} matrices")
    total = sum(ratios.ratios)
    weights: dict[Pair, float] = {}
    for m, r in zip(matrices, ratios.ratios):
        if r == 0:
            continue
        for key, w in m.items():
            weights[key] = weights.get(key, 0.0) + w * r / total
    return TrafficMatrix(weights)


def perturb(sites: Sequence[Site], gamma: float, seed: int) -> TrafficMatrix:
    """Gravity matrix after scaling each population by a seeded U[1-g, 1+g] draw.

    Draws are taken in sorted site-id order, so the result is a pure
    function of (sites, gamma, seed); gamma = 0 reproduces the unperturbed
    gravity matrix exactly.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    if gamma == 0.0:
        return gravity_matrix(list(sites))
    rng = np.random.default_rng(seed)
    order = sorted(sites, key=lambda s: s.id)
    factors = {s.id: rng.uniform(1.0 - gamma, 1.0 + gamma) for s in order}
    shifted = [Site(s.id, s.location, s.population * factors[s.id]) for s in sites]
    return gravity_matrix(shifted)
