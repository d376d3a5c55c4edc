"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of a numpy Generator, so one seed
gives the same inputs on every run. The program under test sees only
the generated objects or files, never the seed.
"""

from __future__ import annotations

import math
import os

import numpy as np

from lightwan.designer import DesignInput
from lightwan.geo import GeoPoint, Site, geodesic_km
from lightwan.traffic import gravity_matrix


def ring_sites(rng: np.random.Generator, n: int, center: tuple[float, float],
               radius_deg: float, prefix: str = "s") -> list[Site]:
    """n population-weighted sites on a jittered ring, in angular order."""
    ang = (np.arange(n) + rng.uniform(-0.3, 0.3, n)) * 2.0 * math.pi / n
    rad = radius_deg * rng.uniform(0.8, 1.0, n)
    pops = rng.uniform(1.0, 10.0, n)
    return [Site(f"{prefix}{i:02d}",
                 GeoPoint(center[0] + float(rad[i] * math.sin(ang[i])),
                          center[1] + float(rad[i] * math.cos(ang[i]))),
                 float(pops[i]))
            for i in range(n)]


def ring_conduits(rng: np.random.Generator, n: int, chords: int) -> list[tuple[int, int]]:
    """Index pairs of a fiber ring in angular order plus random chords."""
    edges = {(i, (i + 1) % n) for i in range(n)}
    for i in rng.choice(n, size=chords, replace=False):
        j = int((i + 2 + rng.integers(0, n - 3)) % n)
        edges.add((int(i), j))
    return sorted((min(a, b), max(a, b)) for a, b in edges)


def design_instance(rng: np.random.Generator, n: int, mw_links: int,
                    radius_deg: float = 5.0, hop_km: float = 100.0) -> DesignInput:
    """Synthetic design instance with exactly `mw_links` candidate MW links.

    Fiber is the metric closure of a ring-plus-chords conduit graph with
    10-40% route inflation, times the 1.5 slowdown; MW links run 0-20%
    over the geodesic and cost one tower per `hop_km` started. MW is
    therefore always shorter than any fiber path, so dominance
    elimination keeps every candidate and the pool size is `mw_links`.
    The budget is 0; callers set one rung at a time.
    """
    sites = ring_sites(rng, n, (0.0, 0.0), radius_deg)
    ids = [s.id for s in sites]
    loc = {s.id: s.location for s in sites}
    geodesic = {(a, b): geodesic_km(loc[a], loc[b])
                for i, a in enumerate(ids) for b in ids[i + 1:]}
    km = np.full((n, n), np.inf)
    np.fill_diagonal(km, 0.0)
    for i, j in ring_conduits(rng, n, n // 3):
        km[i, j] = km[j, i] = geodesic[(ids[i], ids[j])] * float(rng.uniform(1.1, 1.4))
    for k in range(n):
        km = np.minimum(km, km[:, k:k + 1] + km[k:k + 1, :])
    fiber = {(ids[i], ids[j]): float(km[i, j]) * 1.5
             for i in range(n) for j in range(i + 1, n)}
    pairs = sorted(geodesic)
    mw_km, mw_cost = {}, {}
    for t in sorted(rng.choice(len(pairs), size=mw_links, replace=False)):
        pair = pairs[t]
        mw_km[pair] = geodesic[pair] * float(rng.uniform(1.0, 1.2))
        mw_cost[pair] = float(max(1, math.ceil(mw_km[pair] / hop_km)))
    return DesignInput(sites=sites, traffic=gravity_matrix(sites), geodesic=geodesic,
                       mw_km=mw_km, mw_cost=mw_cost, fiber_km_eq=fiber, budget=0.0)


# ---------------------------------------------------------------------------
# Planning dataset written to disk for the CLI pipeline

# The region is a 2.4 x 1.2 degree box (about 265 x 133 km) near the
# equator, with a terrain margin so every tower lies inside the raster.
LAT0, LAT1, LON0, LON1 = 0.0, 1.2, 0.0, 2.4
MARGIN = 0.1
CELL = 0.02


def _terrain_values(rng: np.random.Generator, ridges: int) -> tuple[np.ndarray, float, float]:
    xll, yll = LON0 - MARGIN, LAT0 - MARGIN
    ncols = int(round((LON1 - LON0 + 2 * MARGIN) / CELL))
    nrows = int(round((LAT1 - LAT0 + 2 * MARGIN) / CELL))
    lon = xll + (np.arange(ncols) + 0.5) * CELL
    lat = yll + (np.arange(nrows)[::-1] + 0.5) * CELL  # row 0 is northernmost
    lon_g, lat_g = np.meshgrid(lon, lat)
    z = 20.0 + 15.0 * np.sin(lon_g * rng.uniform(2, 5)) * np.cos(lat_g * rng.uniform(2, 5))
    for _ in range(ridges):
        # A ridge is a segment with a Gaussian cross-section.
        a = np.array([rng.uniform(LON0, LON1), rng.uniform(LAT0, LAT1)])
        theta = rng.uniform(0, math.pi)
        half = rng.uniform(0.3, 0.6)
        u = np.array([math.cos(theta), math.sin(theta)])
        px, py = lon_g - a[0], lat_g - a[1]
        along = np.clip(px * u[0] + py * u[1], -half, half)
        dx, dy = px - along * u[0], py - along * u[1]
        dist = np.sqrt(dx * dx + dy * dy)
        z += rng.uniform(250.0, 450.0) * np.exp(-(dist / 0.04) ** 2)
    return np.round(z, 1), xll, yll


def _stratified(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n points, one uniform in each of n distinct cells of a grid over
    the box: as random as a uniform spread, but without the clumps and
    gaps that make the number of tower pairs in range vary by seed."""
    rows = max(1, math.ceil(math.sqrt(n / 2.0)))
    cols = math.ceil(n / rows)
    cells = rng.choice(rows * cols, size=n, replace=False)
    r, c = np.divmod(cells, cols)
    lat = LAT0 + (r + rng.uniform(0.0, 1.0, n)) * (LAT1 - LAT0) / rows
    lon = LON0 + (c + rng.uniform(0.0, 1.0, n)) * (LON1 - LON0) / cols
    return lat, lon


def write_plan_dataset(rng: np.random.Generator, outdir: str, n_sites: int = 4,
                       n_towers: int = 80, n_junctions: int = 8, days: int = 4,
                       ridges: int = 3) -> dict:
    """Write a planning dataset and return the CLI config that reads it.

    Files: terrain.asc (ridged), towers.csv (a cluster around each city
    plus a stratified spread; ground elevation left to the terrain), sites.csv, fiber endpoints and
    conduits (a ring through cities and junction towns plus chords, so
    there are more endpoints than sites), and an hourly multi-day
    rain.csv in which each hour is dry or replays one of a few storm
    patterns, so failure sets repeat.
    """
    os.makedirs(outdir, exist_ok=True)

    def path(name: str) -> str:
        return os.path.join(outdir, name)

    z, xll, yll = _terrain_values(rng, ridges)
    nrows, ncols = z.shape
    with open(path("terrain.asc"), "w") as fh:
        fh.write(f"ncols {ncols}\nnrows {nrows}\nxllcorner {xll}\nyllcorner {yll}\n"
                 f"cellsize {CELL}\nNODATA_value -9999\n")
        for row in z:
            fh.write(" ".join(f"{v:g}" for v in row) + "\n")

    center = ((LAT0 + LAT1) / 2.0, (LON0 + LON1) / 2.0)
    cities = ring_sites(rng, n_sites, center, 0.5, prefix="c")
    # Squash the ring to the box's 2:1 aspect.
    cities = [Site(c.id, GeoPoint(c.location.lat,
                                  center[1] + 2.0 * (c.location.lon - center[1])),
                   c.population * 100.0) for c in cities]
    with open(path("sites.csv"), "w") as fh:
        fh.write("id,lat,lon,population\n")
        for c in cities:
            fh.write(f"{c.id},{c.location.lat!r},{c.location.lon!r},{c.population!r}\n")

    with open(path("towers.csv"), "w") as fh:
        fh.write("id,lat,lon,height_m,ground_elevation_m\n")
        # A cluster within ~15 km of each city, the rest spread uniformly.
        near = 8 * n_sites
        ang = rng.uniform(0.0, 2.0 * math.pi, near)
        rad = 0.13 * np.sqrt(rng.uniform(0.0, 1.0, near))
        spread_lat, spread_lon = _stratified(rng, n_towers - near)
        lats = np.concatenate([[c.location.lat for c in cities for _ in range(8)]
                               + rad * np.sin(ang), spread_lat])
        lons = np.concatenate([[c.location.lon for c in cities for _ in range(8)]
                               + rad * np.cos(ang), spread_lon])
        lats = np.clip(lats, LAT0, LAT1)
        lons = np.clip(lons, LON0, LON1)
        heights = rng.uniform(40.0, 120.0, n_towers)
        for i in range(n_towers):
            fh.write(f"t{i:04d},{lats[i]:.5f},{lons[i]:.5f},{heights[i]:.1f},\n")

    # Fiber endpoints: the cities, then junction towns between
    # consecutive cities, pushed off the chord by up to 15% of its length.
    endpoints = []
    for i, c in enumerate(cities):
        nxt = cities[(i + 1) % n_sites].location
        endpoints.append(Site(f"f_{c.id}", c.location, c.population))
        for k in range(n_junctions // n_sites):
            t = (k + 1) / (n_junctions // n_sites + 1)
            lat = c.location.lat + t * (nxt.lat - c.location.lat)
            lon = c.location.lon + t * (nxt.lon - c.location.lon)
            off = rng.uniform(-0.15, 0.15)
            endpoints.append(Site(
                f"j{i:02d}{k}",
                GeoPoint(lat - off * (nxt.lon - c.location.lon),
                         lon + off * (nxt.lat - c.location.lat)),
                float(rng.uniform(5.0, 50.0))))
    with open(path("fiber_endpoints.csv"), "w") as fh:
        fh.write("id,lat,lon,population\n")
        for e in endpoints:
            fh.write(f"{e.id},{e.location.lat!r},{e.location.lon!r},{e.population!r}\n")
    with open(path("fiber_conduits.csv"), "w") as fh:
        fh.write("endpoint_a,endpoint_b,fiber_km\n")
        for i, j in ring_conduits(rng, len(endpoints), len(endpoints) // 2):
            a, b = endpoints[i], endpoints[j]
            km = geodesic_km(a.location, b.location) * float(rng.uniform(1.1, 1.4))
            fh.write(f"{a.id},{b.id},{km!r}\n")

    ids = sorted(c.id for c in cities)
    pairs = [f"{a}|{b}" for i, a in enumerate(ids) for b in ids[i + 1:]]
    patterns = [sorted(rng.choice(pairs, size=int(rng.integers(1, 4)), replace=False))
                for _ in range(5)]
    with open(path("rain.csv"), "w") as fh:
        fh.write("timestamp,link_id,rain_mm_h\n")
        for day in range(days):
            for hour in range(24):
                t = f"2015-07-{day + 1:02d}T{hour:02d}:00"
                if rng.random() < 0.4:
                    fh.write(f"{t},{pairs[0]},0.0\n")
                    continue
                for link in patterns[int(rng.integers(0, len(patterns)))]:
                    fh.write(f"{t},{link},{rng.uniform(60.0, 120.0):.1f}\n")

    return {
        "towers_csv": path("towers.csv"),
        "terrain_asc": path("terrain.asc"),
        "sites_csv": path("sites.csv"),
        "fiber_endpoints_csv": path("fiber_endpoints.csv"),
        "fiber_conduits_csv": path("fiber_conduits.csv"),
        "rain_csv": path("rain.csv"),
        "site_link_radius_km": 25.0,
        "aggregate_gbps": 20.0,
        "seed": 1,
        "los": {"max_range_km": 40.0, "sample_step_m": 100.0},
    }
