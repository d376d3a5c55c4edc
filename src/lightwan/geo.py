"""Geodesic geometry, latency conversion, sites and the CSV/JSON artifact IO.

The geometry is pure and works on immutable values; distances are
great-circle kilometers on a spherical Earth and latencies are one-way
milliseconds (callers double for RTT).
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Callable

EARTH_RADIUS_KM = 6371.0
C_VACUUM_KM_S = 299792.458
# Light in fiber travels at roughly 2/3 of its vacuum speed; microwave
# through air is effectively unslowed.
FIBER_SLOWDOWN = 1.5


@dataclass(frozen=True)
class GeoPoint:
    """A surface point in decimal degrees."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} outside [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude {self.lon} outside [-180, 180]")


@dataclass(frozen=True)
class Site:
    """A population center or data-center endpoint."""

    id: str
    location: GeoPoint
    population: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.population < math.inf:
            raise ValueError(f"site {self.id!r}: population {self.population} "
                             "must be finite and >= 0")


def geodesic_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in km (haversine on a sphere of radius 6371 km)."""
    lat1 = math.radians(a.lat)
    lat2 = math.radians(b.lat)
    dlat = math.radians(b.lat - a.lat)
    dlon = math.radians(b.lon - a.lon)
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def latency_ms(distance_km: float, medium: str) -> float:
    """One-way propagation latency in ms over `distance_km` of "mw" or "fiber"."""
    if distance_km < 0:
        raise ValueError("distance must be >= 0")
    if medium not in ("mw", "fiber"):
        raise ValueError(f"unknown medium {medium!r}")
    slowdown = FIBER_SLOWDOWN if medium == "fiber" else 1.0
    return distance_km * slowdown / C_VACUUM_KM_S * 1000.0


def read_csv(path: str, columns: str, row: Callable) -> list:
    """`row(*fields)` for each non-blank row of a CSV file.

    `columns` names the header fields to pass, in order, e.g.
    "id,lat,lon[,population]"; bracketed ones are optional and read as ""
    where the header or a row lacks them. Other columns and extra trailing
    fields are ignored. A ValueError raised by `row`, or a row too short
    for the required columns, is prefixed with `path: line N:`.
    """
    names = columns.replace("[", "").replace("]", "").split(",")
    required = columns.split("[")[0].count(",") + 1
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        index = {name: i for i, name in enumerate(header)}
        if not all(name in index for name in names[:required]):
            raise ValueError(f"{path}: expected header {columns}")
        # An optional column missing from the header reads the padding field.
        cols = [index.get(name, len(header)) for name in names]
        need, width = max(cols[:required]) + 1, max(cols) + 1
        fields = operator.itemgetter(*cols)
        out = []
        try:
            for rec in reader:
                if len(rec) < width:
                    if not rec:
                        continue
                    if len(rec) < need:
                        raise ValueError(f"expected {need} fields, found {len(rec)}")
                    rec += [""] * (width - len(rec))
                out.append(row(*fields(rec)))
        except ValueError as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return out


def require_finite(params) -> None:
    """Raise a ValueError naming the first field of the dataclass
    `params` that is not a finite real number: nan passes every bound
    check, and an infinite value every upper one."""
    for name, value in vars(params).items():
        if not (isinstance(value, numbers.Real) and math.isfinite(value)):
            raise ValueError(f"{name} must be a finite number, got {value!r}")


def write_csv(path: str, header: str, rows) -> None:
    """Write the `header` fields ("a,b,c") and then `rows` in the default
    csv dialect, so lines end in CRLF."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header.split(","))
        writer.writerows(rows)


def write_json(doc, path: str) -> None:
    """`doc` as JSON with one-space indent, sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_sites_csv(path: str, placed: dict[str, GeoPoint] | None = None) -> list[Site]:
    """Sites in file order from a CSV with header id,lat,lon,population
    (population optional, 0 when absent); a repeated id is an error, and so
    is a row with an id of `placed` at another point."""
    seen: set[str] = set()
    placed = placed or {}

    def site(sid, lat, lon, pop):
        if sid in seen:
            raise ValueError(f"duplicate site id {sid!r}")
        seen.add(sid)
        point = GeoPoint(float(lat), float(lon))
        if placed.get(sid, point) != point:
            at = placed[sid]
            raise ValueError(f"site {sid!r} lies at ({at.lat}, {at.lon}), "
                             f"not at ({point.lat}, {point.lon})")
        return Site(sid, point, float(pop) if pop else 0.0)
    return read_csv(path, "id,lat,lon[,population]", site)
