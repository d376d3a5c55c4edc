"""Line-of-sight feasibility of tower-tower microwave hops over terrain.

A hop is feasible when the straight line between the antenna altitudes
clears, at every sample along the great-circle path, the terrain surface
plus the refraction-adjusted Earth bulge plus the first Fresnel zone plus
a configurable obstruction margin.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .geo import EARTH_RADIUS_KM, GeoPoint, geodesic_km, read_csv, require_finite, write_csv

# Terrain samples per clearance pass: amortises numpy's per-call cost over
# many hops while keeping the work arrays out of the peak memory.
_CHUNK_SAMPLES = 4096
# Fewest samples per segment worth screening: screening a segment costs
# about two samples' work.
_MIN_SEGMENT = 4
# A screened segment clears when its lower end line height is at least its
# bound plus this slack. Each per-sample term is a few float operations on
# values under 1e4 m, so its rounding error is under 1e-11 m, far below it.
_SCREEN_SLACK_M = 1e-6
# Degrees of slack around a segment's end samples for the rounding of the
# sample positions (under 1e-12 degrees within _SCREEN_MAX_LAT of the
# equator, where the screen stops).
_SCREEN_EPS_DEG = 1e-9
_SCREEN_MAX_LAT = 80.0
# Tower rows per block of the pairwise range screen (memory O(towers x rows)).
_SCREEN_ROWS = 64
# ESRI ASCII grid header keys; all but the last are required.
_ASC_HEADER = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")
# A hop row of HopGraph.hops: two tower indices and the length in km.
HOP_DTYPE = np.dtype([("a", np.int64), ("b", np.int64), ("km", float)])


@dataclass(frozen=True)
class Tower:
    """An antenna-bearing structure from an inventory."""

    id: str
    location: GeoPoint
    height_m: float
    ground_elevation_m: float = 0.0

    def __post_init__(self) -> None:
        _check_tower(self.id, self.height_m, self.ground_elevation_m)


def _check_tower(tid: str, height_m: float, ground_m: float) -> None:
    # nan passes a plain `<= 0` check.
    if not 0 < height_m < math.inf:
        raise ValueError(f"tower {tid!r}: height must be > 0 and finite, got {height_m!r}")
    if not math.isfinite(ground_m):
        raise ValueError(f"tower {tid!r}: ground elevation must be finite, got {ground_m!r}")


@dataclass(frozen=True)
class LosParams:
    """Parameters of the hop-feasibility model.

    Defaults follow common practice for 11 GHz licensed microwave: K=1.3
    effective-Earth refraction, 100 km maximum range, antennae mounted at
    the tower top, terrain sampled at the raster's native 30 m step.
    `f_ghz` is the carrier of the whole radio model: the shipped rain
    attenuation pair (`weather.P838_11_GHZ`) holds only at 11 GHz.
    """

    f_ghz: float = 11.0
    k_factor: float = 1.3
    max_range_km: float = 100.0
    usable_height_fraction: float = 1.0
    obstruction_margin_m: float = 0.0
    sample_step_m: float = 30.0

    def __post_init__(self) -> None:
        # An infinite f_ghz would drop the Fresnel term.
        require_finite(self)
        for name, value in vars(self).items():
            if value <= 0 and name != "obstruction_margin_m":
                raise ValueError(f"{name} must be > 0")
        if self.usable_height_fraction > 1:
            raise ValueError("usable_height_fraction must be in (0, 1]")


@dataclass
class HopGraph:
    """Towers in id order plus the feasible hops between them: one
    `HOP_DTYPE` row per hop, with the indices `a` and `b` of its towers in
    `towers` and its base geodesic length `km`."""

    towers: dict[str, Tower]
    hops: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HopGraph):
            return NotImplemented
        return self.towers == other.towers and np.array_equal(self.hops, other.hops)


class TerrainGrid:
    """Surface elevation raster (terrain plus clutter) in ESRI ASCII layout.

    `values` is row-major with row 0 the northernmost row; cells are
    squares of `cellsize` degrees anchored at the grid's lower-left
    corner. Sampling interpolates bilinearly between cell centers and
    clamps to the outermost centers near the border, so it is defined
    everywhere inside the bounding box.
    """

    def __init__(self, values: np.ndarray, xllcorner: float, yllcorner: float,
                 cellsize: float, nodata: float = -9999.0) -> None:
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.size == 0:
            raise ValueError("terrain values must be a non-empty 2-D array")
        if cellsize <= 0:
            raise ValueError("cellsize must be > 0")
        self.values = np.where(values == nodata, np.nan, values)
        self.xllcorner = float(xllcorner)
        self.yllcorner = float(yllcorner)
        self.cellsize = float(cellsize)
        self.nodata = float(nodata)
        self.nrows, self.ncols = values.shape

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        """(lon_min, lat_min, lon_max, lat_max)."""
        return (self.xllcorner, self.yllcorner,
                self.xllcorner + self.ncols * self.cellsize,
                self.yllcorner + self.nrows * self.cellsize)

    def contains(self, point: GeoPoint) -> bool:
        x0, y0, x1, y1 = self.bounds
        return x0 <= point.lon <= x1 and y0 <= point.lat <= y1

    def sample_many(self, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
        """Bilinear elevation at each (lat, lon); raises outside the box or on NODATA."""
        lats = np.asarray(lats, dtype=float)
        lons = np.asarray(lons, dtype=float)
        x0, y0, x1, y1 = self.bounds
        if np.any(lons < x0) or np.any(lons > x1) or np.any(lats < y0) or np.any(lats > y1):
            raise ValueError("sample outside terrain bounds")
        fx, fy, i0, j0 = self.cell_corners(lats, lons)
        tx = np.clip(fx - j0, 0.0, 1.0)
        ty = np.clip(fy - i0, 0.0, 1.0)
        j1 = np.minimum(j0 + 1, self.ncols - 1)
        i1 = np.minimum(i0 + 1, self.nrows - 1)
        r0 = self.nrows - 1 - i0
        r1 = self.nrows - 1 - i1
        v = ((1 - ty) * ((1 - tx) * self.values[r0, j0] + tx * self.values[r0, j1])
             + ty * ((1 - tx) * self.values[r1, j0] + tx * self.values[r1, j1]))
        if np.any(np.isnan(v)):
            raise ValueError("sample touches NODATA cells")
        return v

    def cell_corners(self, lats: np.ndarray, lons: np.ndarray) -> tuple[np.ndarray, ...]:
        """(fx, fy, i0, j0): fractional indices relative to cell centers and
        the lower-left cell (rows counted from the bottom) of the bilinear
        read at each (lat, lon); i0 and j0 never decrease with lat and lon."""
        fx = (lons - self.xllcorner) / self.cellsize - 0.5
        fy = (lats - self.yllcorner) / self.cellsize - 0.5
        j0 = np.clip(np.floor(fx).astype(int), 0, max(self.ncols - 2, 0))
        i0 = np.clip(np.floor(fy).astype(int), 0, max(self.nrows - 2, 0))
        return fx, fy, i0, j0

    def sample(self, point: GeoPoint) -> float:
        return float(self.sample_many(np.array([point.lat]), np.array([point.lon]))[0])


def load_terrain_asc(path: str) -> TerrainGrid:
    """Read an ESRI ASCII grid: header keys (ncols/nrows/xllcorner/yllcorner/cellsize
    [/NODATA_value], any case) first, then the values in any whitespace layout."""
    header: dict[str, float] = {}
    body: list[str] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if parts and parts[0].lower() not in _ASC_HEADER:
                body = [line, *fh]
                break
            if len(parts) == 1:
                raise ValueError(f"{path}: line {lineno}: header field {parts[0]!r} has no value")
            if parts:
                try:
                    header[parts[0].lower()] = float(parts[1])
                except ValueError as exc:
                    raise ValueError(f"{path}: line {lineno}: {exc}") from None
    for req in _ASC_HEADER[:5]:
        if req not in header:
            raise ValueError(f"{path}: missing header field {req}")
    try:
        values = np.loadtxt(body, comments=None, ndmin=1) if body else np.empty(0)
    except ValueError:  # lines of uneven length (rows wrapped), or a bad token
        try:
            values = np.loadtxt(["".join(body).replace("\n", " ")], comments=None, ndmin=1)
        except ValueError as exc:
            # Name the file line of the first token that is not a number.
            for n, line in enumerate(body, lineno):
                for token in line.split():
                    try:
                        float(token)
                    except ValueError as bad:
                        raise ValueError(f"{path}: line {n}: {bad}") from None
            raise ValueError(f"{path}: {exc}") from None
    del body  # the text goes before TerrainGrid copies the values
    ncols, nrows = int(header["ncols"]), int(header["nrows"])
    if values.size != ncols * nrows:
        raise ValueError(f"{path}: expected {ncols * nrows} values, found {values.size}")
    return TerrainGrid(values.reshape(nrows, ncols), header["xllcorner"],
                       header["yllcorner"], header["cellsize"],
                       header.get("nodata_value", -9999.0))


def clearance_terms_m(d1_km, d2_km, d_km, p: LosParams):
    """(Earth bulge, first-Fresnel-zone width) in meters d1_km and d2_km from
    the ends of a hop of d_km > 0, scalars or arrays: the bulge under an Earth
    radius scaled by K = p.k_factor (D^2 / (50.96 K) mid-hop) and the Fresnel
    width 17.4 sqrt(d1 d2 / (D f)) at f = p.f_ghz. The segment screen and the
    sampler both read their terms here."""
    bulge = d1_km * d2_km / (12.74 * p.k_factor)
    fresnel = 2.0 * 8.7 * np.sqrt(d1_km * d2_km / d_km) / math.sqrt(p.f_ghz)
    return bulge, fresnel


def _unit_vector(p: GeoPoint) -> np.ndarray:
    lat = math.radians(p.lat)
    lon = math.radians(p.lon)
    return np.array([math.cos(lat) * math.cos(lon),
                     math.cos(lat) * math.sin(lon),
                     math.sin(lat)])


def _omega(va: np.ndarray, vb: np.ndarray) -> float:
    return math.acos(min(1.0, max(-1.0, float(np.dot(va, vb)))))


def _arc_points(va, vb, omega, sin_omega, wa, wb) -> tuple[np.ndarray, np.ndarray]:
    """(lats, lons) of great-circle points at endpoint weights wa, wb (slerp, or
    the normalised chord where omega < 1e-12); arguments are per point or
    broadcast, and no point's arithmetic depends on another's."""
    flat = np.asarray(omega) < 1e-12
    if flat.any():
        pts = np.where(flat, wa, np.sin(wa * omega))[:, None] * va
        pts += np.where(flat, wb, np.sin(wb * omega))[:, None] * vb
        pts /= np.where(flat, np.linalg.norm(pts, axis=1), sin_omega)[:, None]
    else:
        pts = np.sin(wa * omega)[:, None] * va
        pts += np.sin(wb * omega)[:, None] * vb
        pts /= np.broadcast_to(sin_omega, len(pts))[:, None]
    lats = np.degrees(np.arcsin(np.clip(pts[:, 2], -1.0, 1.0)))
    lons = np.degrees(np.arctan2(pts[:, 1], pts[:, 0]))
    return lats, lons


def _path_samples(a: GeoPoint, b: GeoPoint, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n+1 great-circle samples a..b as (lats, lons, fractions): the points
    `_clearance` reads for a hop of n steps."""
    va = _unit_vector(a)
    vb = _unit_vector(b)
    omega = _omega(va, vb)
    idx = np.arange(n + 1)
    wb = idx / n
    lats, lons = _arc_points(va, vb, omega, math.sin(omega), (n - idx) / n, wb)
    return lats, lons, wb


def _runs(offsets: np.ndarray, s: int, e: int) -> tuple[np.ndarray, np.ndarray]:
    """(run, position in run) of items s..e-1 of runs laid end to end, run r
    holding items offsets[r] to offsets[r + 1] - 1."""
    r0 = int(np.searchsorted(offsets, s, side="right")) - 1
    r1 = int(np.searchsorted(offsets, e, side="left"))
    starts = np.maximum(offsets[r0:r1], s)
    r = np.repeat(np.arange(r0, r1), np.diff(np.append(starts, e)))
    return r, np.arange(s, e) - offsets[r]


def _chunk(hop, k0, offsets, s, e):
    # A function, so its index arrays are freed before the chunk is read.
    r, i = _runs(offsets, s, e)
    return hop[r], k0[r] + i


def _chunks(blocks):
    """(hop, k) of each sample, `_CHUNK_SAMPLES` samples at a time (the last
    chunk may be shorter), of the runs (hop, first k, count) in `blocks` laid
    end to end; a run may span chunks and blocks."""
    hop = k0 = count = np.empty(0, dtype=np.int64)
    for block in itertools.chain(blocks, [None]):
        if block is not None:
            hop, k0, count = (np.concatenate(pair) for pair in zip((hop, k0, count), block))
        offsets = np.concatenate(([0], np.cumsum(count)))
        stop = int(offsets[-1])
        if block is not None:
            stop -= stop % _CHUNK_SAMPLES
        for s in range(0, stop, _CHUNK_SAMPLES):
            yield _chunk(hop, k0, offsets, s, min(s + _CHUNK_SAMPLES, stop))
        # Keep the samples past `stop`: the rest of the run it cuts, then the
        # runs after it.
        r = int(np.searchsorted(offsets, stop, side="right")) - 1
        hop, k0, count = hop[r:], k0[r:].copy(), count[r:].copy()
        k0[:1] += stop - offsets[r]
        count[:1] -= stop - offsets[r]


def _unscreened(units, alts, ia, ib, d, omega, sin_omega, n, terrain: TerrainGrid,
                p: LosParams):
    """Blocks of runs (hop, first k, count), in hop and sample order, of the
    samples that the segment screen cannot clear.

    Each hop's samples 0..n are split into segments of `size` consecutive
    samples, at most one terrain cell wide. A segment is cleared unsampled
    when the lower of its end samples' line heights is at least the
    largest terrain any of its samples' bilinear reads can touch, plus its
    largest Earth bulge and Fresnel width (at the weight nearest 0.5), the
    obstruction margin and `_SCREEN_SLACK_M`. Segments whose end samples
    lie more than one cell apart, or whose window leaves the grid (or
    `_SCREEN_MAX_LAT`) or holds NODATA, are left to the sampling. Only
    which samples are read depends on `size`, never a hop's answer.
    """
    # A cell's east-west width at the towers' highest latitude (|z| = sin).
    z = float(np.abs(units[np.concatenate((ia, ib)), 2]).max(initial=0.0))
    cell_m = (terrain.cellsize * math.pi / 180.0 * EARTH_RADIUS_KM * 1000.0
              * max(math.sqrt(1.0 - z * z), math.cos(math.radians(_SCREEN_MAX_LAT))))
    size = int(cell_m // p.sample_step_m)
    if size < _MIN_SEGMENT or not len(n):
        return [(np.arange(len(n)), np.zeros(len(n), dtype=np.int64), n + 1)]
    x0, y0, x1, y1 = terrain.bounds
    y0, y1 = max(y0, -_SCREEN_MAX_LAT), min(y1, _SCREEN_MAX_LAT)
    seg_off = np.concatenate(([0], np.cumsum(n // size + 1)))

    def screen(g: int):
        # A function, so its work arrays are freed before the samples are read.
        h, j = _runs(seg_off, g, min(g + block, int(seg_off[-1])))
        m, k0, ns, ds = len(h), j * size, n[h], d[h]
        k1 = np.minimum(k0 + size - 1, ns)
        # Both end samples of every segment, as the sampling computes them.
        hh, kk, nh = np.concatenate((h, h)), np.concatenate((k0, k1)), np.concatenate((ns, ns))
        a, b = ia[hh], ib[hh]
        wb = kk / nh
        wa = (nh - kk) / nh
        lats, lons = _arc_points(units[a], units[b], omega[hh], sin_omega[hh], wa, wb)
        line = alts[a] * wa + alts[b] * wb
        # The samples between lie on the great circle between the ends: at
        # most an arc L away, their sin(latitude) rises past the ends' by at
        # most L^2 / 8, and their longitude stays between the ends' while
        # those differ by under 90 degrees (no antimeridian, no pole).
        pad = (np.degrees((omega[h] * (k1 - k0) / ns) ** 2 / 8.0)
               / math.cos(math.radians(_SCREEN_MAX_LAT)) + _SCREEN_EPS_DEG)
        lat_lo = np.minimum(lats[:m], lats[m:]) - pad
        lat_hi = np.maximum(lats[:m], lats[m:]) + pad
        lon_lo = np.minimum(lons[:m], lons[m:]) - _SCREEN_EPS_DEG
        lon_hi = np.maximum(lons[:m], lons[m:]) + _SCREEN_EPS_DEG
        _, _, i_lo, j_lo = terrain.cell_corners(lat_lo, lon_lo)
        _, _, i_hi, j_hi = terrain.cell_corners(lat_hi, lon_hi)
        screened = ((lon_lo >= x0) & (lon_hi <= x1) & (lat_lo >= y0) & (lat_hi <= y1)
                    & (lon_hi - lon_lo < 90.0) & (i_hi - i_lo <= 1) & (j_hi - j_lo <= 1))
        # With i_hi <= i_lo + 1 and j_hi <= j_lo + 1, every sample's bilinear
        # read touches only these 3 x 3 cells; a NODATA one makes the top NaN.
        rows = [terrain.nrows - 1 - np.minimum(i, terrain.nrows - 1)
                for i in (i_lo, i_lo + 1, i_hi + 1)]
        cols = [np.minimum(j, terrain.ncols - 1) for j in (j_lo, j_lo + 1, j_hi + 1)]
        terrain_top = functools.reduce(np.maximum, [terrain.values[r, c]
                                                    for r in rows for c in cols])
        w = np.clip(0.5, k0 / ns, k1 / ns)
        bulge, fresnel = clearance_terms_m(ds * w, ds * (1.0 - w), ds, p)
        needed = terrain_top + bulge + fresnel + p.obstruction_margin_m + _SCREEN_SLACK_M
        left = ~(screened & (np.minimum(line[:m], line[m:]) >= needed))
        return h[left], k0[left], (k1 - k0 + 1)[left]

    block = max(1, _CHUNK_SAMPLES // 2)  # two end samples a segment
    return (screen(g) for g in range(0, int(seg_off[-1]), block))


def _clearance(towers: list[Tower], ia: np.ndarray, ib: np.ndarray, d_km: np.ndarray,
               terrain: TerrainGrid, p: LosParams) -> np.ndarray:
    """Whether each hop towers[ia[h]]-towers[ib[h]] of length d_km[h] is clear.

    The samples the segment screen (`_unscreened`) cannot clear form one
    sequence, read `_CHUNK_SAMPLES` at a time (a hop may span chunks). Sample
    i of n has endpoint weights i/n and (n-i)/n, so every term is bitwise
    identical under endpoint swap."""
    units = np.array([_unit_vector(t.location) for t in towers])
    alts = np.array([t.ground_elevation_m + p.usable_height_fraction * t.height_m
                     for t in towers])
    clear = np.ones(len(d_km), dtype=bool)
    todo = np.flatnonzero(d_km > 0.0)
    ia, ib, d = ia[todo], ib[todo], d_km[todo]
    omega = np.array([_omega(units[i], units[j]) for i, j in zip(ia.tolist(), ib.tolist())])
    sin_omega = np.array([math.sin(w) for w in omega.tolist()])
    n = np.maximum(1, np.ceil(d * 1000.0 / p.sample_step_m).astype(np.int64))

    def clears(h: np.ndarray, k: np.ndarray) -> np.ndarray:
        # A function, so one chunk's work arrays are freed before the next.
        a, b, nh, dh = ia[h], ib[h], n[h], d[h]
        wb = k / nh
        wa = (nh - k) / nh
        lats, lons = _arc_points(units[a], units[b], omega[h], sin_omega[h], wa, wb)
        elev = terrain.sample_many(lats, lons)
        bulge, fresnel = clearance_terms_m(dh * wb, dh * wa, dh, p)
        line = alts[a] * wa + alts[b] * wb
        needed = elev + bulge + fresnel + p.obstruction_margin_m
        return line >= needed

    ok = np.ones(len(todo), dtype=bool)
    for h, k in _chunks(_unscreened(units, alts, ia, ib, d, omega, sin_omega, n, terrain, p)):
        ok[h[~clears(h, k)]] = False
    clear[todo] = ok
    return clear


def _check_inside(tower: Tower, terrain: TerrainGrid) -> None:
    if not terrain.contains(tower.location):
        raise ValueError(f"tower {tower.id!r} outside terrain bounds")


def hop_feasible(a: Tower, b: Tower, terrain: TerrainGrid, p: LosParams) -> bool:
    """True iff the a-b hop is within range and its Fresnel zone is fully clear.

    Clearance is required at every terrain sample: the antenna-to-antenna
    line must sit at or above terrain + Earth bulge + Fresnel width +
    obstruction margin, with the bulge and Fresnel width of
    `clearance_terms_m`.
    """
    for t in (a, b):
        _check_inside(t, terrain)
    d_km = geodesic_km(a.location, b.location)
    if d_km > p.max_range_km:
        return False
    return bool(_clearance([a, b], np.array([0]), np.array([1]), np.array([d_km]),
                           terrain, p)[0])


def build_hop_graph(towers: list[Tower], terrain: TerrainGrid, p: LosParams) -> HopGraph:
    """All feasible tower-tower hops; deterministic for fixed inputs.

    A vectorized haversine screens pairs by range with a margin against
    rounding; the survivors are measured with `geodesic_km` and cleared by
    one `_clearance` call, so the hops are those `hop_feasible` accepts.
    """
    if not towers:
        raise ValueError("empty tower list")
    ids = [t.id for t in towers]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate tower ids")
    ordered = sorted(towers, key=lambda t: t.id)
    lat = np.radians([t.location.lat for t in ordered])
    lon = np.radians([t.location.lon for t in ordered])
    screen = p.max_range_km * (1.0 + 1e-9)
    ia, ib, lengths = [], [], []
    for r0 in range(0, len(ordered), _SCREEN_ROWS):
        rows = slice(r0, r0 + _SCREEN_ROWS)
        h = (np.sin((lat - lat[rows, None]) / 2.0) ** 2
             + np.cos(lat[rows, None]) * np.cos(lat) * np.sin((lon - lon[rows, None]) / 2.0) ** 2)
        near = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.minimum(h, 1.0))) <= screen
        for r, j in zip(*(x.tolist() for x in np.nonzero(np.triu(near, r0 + 1)))):
            ta, tb = ordered[r0 + r], ordered[j]
            d = geodesic_km(ta.location, tb.location)
            if d <= p.max_range_km:
                for t in (ta, tb):
                    _check_inside(t, terrain)
                ia.append(r0 + r)
                ib.append(j)
                lengths.append(d)
    ia, ib, lengths = np.array(ia, dtype=np.int64), np.array(ib, dtype=np.int64), np.array(lengths)
    clear = _clearance(ordered, ia, ib, lengths, terrain, p)
    hops = np.empty(int(clear.sum()), dtype=HOP_DTYPE)
    hops["a"], hops["b"], hops["km"] = ia[clear], ib[clear], lengths[clear]
    return HopGraph({t.id: t for t in ordered}, hops)


def cull_towers(towers: list[Tower], min_height_m: float, grid_cell_deg: float,
                max_per_cell: int, seed: int) -> list[Tower]:
    """Height-filter then per-cell uniform subsampling, deterministic per seed.
    `min_height_m` must be finite, `grid_cell_deg` finite and > 0 and
    `max_per_cell` an int >= 1 (nan passes every bound check); the
    ValueError starts with the name of the first bad setting."""
    if not (isinstance(min_height_m, numbers.Real) and math.isfinite(min_height_m)):
        raise ValueError(f"min_height_m must be a finite number, got {min_height_m!r}")
    if not (isinstance(grid_cell_deg, numbers.Real) and 0 < grid_cell_deg < math.inf):
        raise ValueError(f"grid_cell_deg must be finite and > 0, got {grid_cell_deg!r}")
    if isinstance(max_per_cell, bool) or not (isinstance(max_per_cell, numbers.Integral)
                                              and max_per_cell >= 1):
        raise ValueError(f"max_per_cell must be an integer >= 1, got {max_per_cell!r}")
    tall = [t for t in towers if t.height_m >= min_height_m]
    cells: dict[tuple[int, int], list[Tower]] = {}
    for t in tall:
        key = (math.floor(t.location.lat / grid_cell_deg),
               math.floor(t.location.lon / grid_cell_deg))
        cells.setdefault(key, []).append(t)
    rng = np.random.default_rng(seed)
    kept: list[Tower] = []
    for key in sorted(cells):
        group = sorted(cells[key], key=lambda t: t.id)
        if len(group) <= max_per_cell:
            kept.extend(group)
        else:
            picks = rng.choice(len(group), size=max_per_cell, replace=False)
            kept.extend(group[i] for i in sorted(picks))
    return sorted(kept, key=lambda t: t.id)


def load_towers_csv(path: str, terrain: TerrainGrid | None = None) -> list[Tower]:
    """Read a tower inventory: id,lat,lon,height_m[,ground_elevation_m].

    When ground elevation is absent it is sampled from `terrain`, for all
    such towers in one call. A repeated id is an error.
    """
    seen: set[str] = set()

    def tower(tid, lat, lon, height, ground):
        if tid in seen:
            raise ValueError(f"duplicate tower id {tid!r}")
        seen.add(tid)
        loc = GeoPoint(float(lat), float(lon))
        if not ground:
            if terrain is None:
                raise ValueError(f"tower {tid} lacks ground elevation and no terrain was supplied")
            if not terrain.contains(loc):
                raise ValueError(f"tower {tid!r} outside terrain bounds")
        height, ground = float(height), float(ground) if ground else None
        _check_tower(tid, height, 0.0 if ground is None else ground)
        return tid, loc, height, ground

    rows = read_csv(path, "id,lat,lon,height_m[,ground_elevation_m]", tower)
    unset = [loc for _, loc, _, ground in rows if ground is None]
    elev = iter(terrain.sample_many([p.lat for p in unset], [p.lon for p in unset]).tolist()
                if unset else ())
    return [Tower(tid, loc, height, next(elev) if ground is None else ground)
            for tid, loc, height, ground in rows]


def save_hops_csv(hop_graph: HopGraph, path: str) -> None:
    ids = list(hop_graph.towers)
    hops = hop_graph.hops[np.lexsort((hop_graph.hops["b"], hop_graph.hops["a"]))]
    write_csv(path, "tower_a,tower_b,length_km",
              ([ids[a], ids[b], repr(km)] for a, b, km in hops.tolist()))


def load_hops_csv(path: str, towers: list[Tower]) -> HopGraph:
    by_id = {t.id: t for t in sorted(towers, key=lambda t: t.id)}
    index = {tid: i for i, tid in enumerate(by_id)}

    def hop(a, b, km):
        km = float(km)
        if a not in index or b not in index or a == b or not 0 < km < math.inf:
            raise ValueError(f"hop ({a}, {b}) needs two known towers and a "
                             f"finite length_km > 0, got {km}")
        return index[a], index[b], km

    return HopGraph(by_id, np.array(read_csv(path, "tower_a,tower_b,length_km", hop),
                                    dtype=HOP_DTYPE))
