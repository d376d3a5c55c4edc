"""Budgeted hybrid topology design.

Selects which site-to-site microwave links to build, given per-pair MW
and fiber distances and a tower budget, minimizing traffic-weighted mean
stretch. Fiber is always available at zero budget cost; MW links pay
their tower count. The solver pipeline is: provably-safe elimination of
fiber-dominated candidates, exact branch-and-bound when the candidate
pool is small, and otherwise greedy candidate generation under an
inflated budget followed by local improvement.

Every step takes one shared `HybridEvaluator` first and reads the
instance as `ev.inp`: `eliminate_dominated(ev)`, `greedy_candidates(ev,
pool)`, `solve_exact(ev, candidates)` and `evaluate_design(ev,
built_links)` take and return site pairs, while the searches behind them
work on link indices (`ev.link[pair]`). `solve_heuristic(inp)` builds the
evaluator once and runs the steps on it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Collection, Iterable, Sequence

import numpy as np

from .fiberbase import StretchStats, stretch_stats
from .geo import FIBER_SLOWDOWN, GeoPoint, Site, geodesic_km, write_json
from .graphcore import (
    BATCH_ELEMENTS as _BATCH_ELEMENTS, CsrGraph, distance_matrix, next_hop_walks,
    shortest_paths_from, weight_matrix,
)
from .los import HopGraph
from .traffic import Pair, PairIndex, TrafficMatrix, link_id, pair_key, parse_link_id

EXACT_CANDIDATE_GUARD = 25
# greedy_candidates runs until its links cost this multiple of the budget.
GREEDY_INFLATION = 2.0
_REL_TOL = 1e-9


class ExactGuardExceeded(Exception):
    """solve_exact refused an instance too large for exact search."""


class InfeasibleDesignError(Exception):
    """Some site pair cannot be routed over the available links."""


@dataclass
class DesignInput:
    """One optimization instance.

    Matrices are keyed by canonical unordered site pairs: `geodesic` (d),
    `mw_km` (m, absent where MW is infeasible), `mw_cost` (towers, c),
    and `fiber_km_eq` (o, fiber path km already multiplied by
    `FIBER_SLOWDOWN` so all lengths are latency-equivalent km). `tower_paths`
    optionally records the tower chain realizing each MW link for
    augmentation and weather analysis downstream.
    """

    sites: list[Site]
    traffic: TrafficMatrix
    geodesic: dict[Pair, float]
    mw_km: dict[Pair, float]
    mw_cost: dict[Pair, float]
    fiber_km_eq: dict[Pair, float]
    budget: float
    tower_paths: dict[Pair, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0 <= self.budget < math.inf:
            raise ValueError(f"budget must be finite and >= 0, got {self.budget!r}")
        ids = [s.id for s in self.sites]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate site ids")
        known = set(ids)
        for matrix in (self.geodesic, self.mw_km, self.mw_cost, self.fiber_km_eq):
            for a, b in matrix:
                if a not in known or b not in known:
                    raise ValueError(f"pair ({a}, {b}) references unknown site")
        for pair, m in self.mw_km.items():
            if pair not in self.geodesic:
                raise ValueError(f"mw pair {pair} lacks a geodesic entry")
            if m < self.geodesic[pair] * (1.0 - _REL_TOL):
                raise ValueError(f"mw length for {pair} below geodesic")
            if pair not in self.mw_cost:
                raise ValueError(f"mw pair {pair} lacks a cost entry")
        for pair, c in self.mw_cost.items():
            if c < 1:
                raise ValueError(f"mw cost for {pair} must be >= 1 tower")
        for pair, o in self.fiber_km_eq.items():
            if o < FIBER_SLOWDOWN * self.geodesic[pair] * (1.0 - _REL_TOL):
                raise ValueError(f"fiber length for {pair} below {FIBER_SLOWDOWN}x geodesic")

    @property
    def site_ids(self) -> list[str]:
        return sorted(s.id for s in self.sites)


@dataclass(frozen=True)
class PairRoute:
    """The routed path for one site pair in the hybrid graph."""

    nodes: tuple[str, ...]
    media: tuple[str, ...]  # per edge: "mw" | "fiber"
    length_km: float        # latency-equivalent km
    stretch: float

    @property
    def edges(self) -> list[tuple[str, str]]:
        return list(zip(self.nodes, self.nodes[1:]))


@dataclass(frozen=True)
class NetworkDesign:
    """A chosen MW link set with its routing and stretch summary."""

    built_links: tuple[Pair, ...]
    routes: dict[Pair, PairRoute]
    stats: StretchStats
    towers_used: float
    budget: float

    def fiber_links(self) -> list[Pair]:
        """Sorted fiber links that some route uses."""
        return sorted({pair_key(u, v) for r in self.routes.values()
                       for (u, v), medium in zip(r.edges, r.media) if medium == "fiber"})


class HybridEvaluator:
    """Pure scorer of link sets; matrices and per-pair arrays follow `pairs`.

    Available MW link k (`links[k]`, `link[pair]`: sorted(inp.mw_km) order,
    so link order is sorted pair order) owns the entries (i, j) and (j, i)
    of a weight matrix, flat positions `_at[k]`: `_mw[k]` when built (MW
    only when strictly shorter than fiber; a tie stays fiber, as in
    eliminate_dominated), else its fiber weight `_fib[k]`. It costs
    `cost[k]` towers. No two links share an entry, so the searches derive a
    set's matrix from a neighbouring set's by rewriting the entries of the
    links that differ (`with_links`, `move_stack`), bitwise the matrix
    `graph_for` builds.
    Everything is scored by `score`, and the value of a matrix does not
    depend on the others in its kernel call. So a search may hold a matrix
    back and score it in a later call it makes anyway (branch-and-bound's
    exclude bounds ride with the next include bound): the matrix still
    costs one row and reads the same float. `fiber_dist` solves the fiber
    matrix once, for dominance elimination and every search's empty set.
    """

    def __init__(self, inp: DesignInput) -> None:
        self.inp = inp
        self.pairs = PairIndex(inp.site_ids, inp.traffic)
        self.geodesic = np.array([inp.geodesic[p] for p in self.pairs.pairs])
        self.index = {s: i for i, s in enumerate(self.pairs.ids)}
        self.fiber = weight_matrix(self.pairs.ids, inp.fiber_km_eq)
        n = len(self.index)
        demands = list(inp.traffic.items())
        self._demand_at = np.array([self.index[a] * n + self.index[b] for (a, b), _ in demands],
                                   dtype=np.intp)
        self._coef = np.array([h / inp.geodesic[pair] for pair, h in demands])
        self.links = sorted(inp.mw_km)
        self.link = {pair: k for k, pair in enumerate(self.links)}
        self.cost = np.array([inp.mw_cost[p] for p in self.links])
        i = np.array([self.index[a] for a, _ in self.links], dtype=np.intp)
        j = np.array([self.index[b] for _, b in self.links], dtype=np.intp)
        self._at = np.stack([i * n + j, j * n + i], axis=1)
        self._fib = self.fiber[i, j]
        m = np.array([inp.mw_km[p] for p in self.links])
        self._mw = np.where(m < self._fib, m, self._fib)
        # The same per link as Python scalars, for writes into one matrix.
        self._cells = list(zip(i.tolist(), j.tolist(), self._mw.tolist(), self._fib.tolist()))

    def _step(self) -> int:
        """Matrices per kernel call, read from the cap at call time."""
        return max(1, _BATCH_ELEMENTS // self.fiber.size)

    def with_links(self, w: np.ndarray, built: Iterable[int] = (),
                   dropped: Iterable[int] = ()) -> np.ndarray:
        """A copy of weight matrix `w` with the links of index `built` at their
        built weight and those of index `dropped` reset to fiber."""
        w = w.copy()
        for k in dropped:
            i, j, _, f = self._cells[k]
            w[i, j] = w[j, i] = f
        for k in built:
            i, j, m, _ = self._cells[k]
            w[i, j] = w[j, i] = m
        return w

    def graph_for(self, built: Iterable[Pair]) -> np.ndarray:
        """Latency-equivalent km weights of fiber plus the built MW links:
        one indexed write into a copy of the fiber matrix."""
        k = np.array([self.link[p] for p in built], dtype=np.intp)
        w = self.fiber.copy()
        w.reshape(-1)[self._at[k]] = self._mw[k, None]
        return w

    def move_stack(self, base: np.ndarray, added: np.ndarray,
                   removed: np.ndarray | None = None) -> np.ndarray:
        """One copy of `base` per entry of `added`: the link at the same entry
        of `removed` reset to fiber, then the added link built. Without
        `removed` every move is an add (the added link resets itself)."""
        removed = added if removed is None else removed
        stack = np.repeat(base[None], len(added), axis=0)
        flat = stack.reshape(len(added), -1)
        row = np.arange(len(added))[:, None]
        flat[row, self._at[removed]] = self._fib[removed, None]
        flat[row, self._at[added]] = self._mw[added, None]
        return stack

    def move_objectives(self, base: np.ndarray, added: np.ndarray,
                        removed: np.ndarray | None = None) -> list[float]:
        """Objectives of the move stack of `base` (see `move_stack`), built
        and scored one kernel batch at a time."""
        removed = added if removed is None else removed
        step = self._step()
        return [v for s in range(0, len(added), step)
                for v in self.score(self.move_stack(base, added[s:s + step], removed[s:s + step]))]

    def score(self, stack: np.ndarray) -> list[float]:
        """Objective of each weight matrix of `stack`, in order: sum over pairs
        of (h/d) x routed latency-equivalent km, +inf when some demand pair
        is unroutable. The stack is solved in kernel calls of at most
        `_step()` matrices and the demand entries gathered once per call;
        each value is bitwise equal to that of a one-matrix call."""
        step = self._step()
        if len(stack) > step:
            return [v for s in range(0, len(stack), step) for v in self.score(stack[s:s + step])]
        return self._objectives(distance_matrix(stack))

    def _objectives(self, d: np.ndarray) -> list[float]:
        # take() returns C order, so each set's demand row is contiguous.
        out = []
        for v in d.reshape(len(d), -1).take(self._demand_at, axis=1):
            # One contiguous vector per set keeps the dot product's
            # summation order that of a one-set call. An unroutable
            # pair makes the sum inf or nan (0 x inf).
            total = float(self._coef @ v)
            out.append(total if math.isfinite(total) else math.inf)
        return out

    @cached_property
    def fiber_dist(self) -> np.ndarray:
        """Distances of the fiber-only matrix, solved once per evaluator."""
        return distance_matrix(self.fiber)

    def objective(self, built: Iterable[Pair]) -> float:
        """Objective of one built-link set (see `score`); the empty set's is
        read off `fiber_dist`, the same float."""
        built = list(built)
        return (self.score(self.graph_for(built)[None]) if built
                else self._objectives(self.fiber_dist[None]))[0]


def objective(inp: DesignInput, design: NetworkDesign) -> float:
    """Eq-style objective of an evaluated design: sum of (h/d) x path length.

    Equals the traffic-weighted mean stretch because the matrix is
    normalized. Raises when a demand pair is missing from the routing.
    """
    total = 0.0
    for (a, b), h in inp.traffic.items():
        route = design.routes.get((a, b))
        if route is None:
            raise InfeasibleDesignError(f"pair ({a}, {b}) is not routed")
        total += h / inp.geodesic[(a, b)] * route.length_km
    return total


def _first_best(vals: Sequence[float], current: float) -> int | None:
    """Index of the first least of `vals` when it is below `current`."""
    best = min(range(len(vals)), key=vals.__getitem__, default=None)
    return best if best is not None and vals[best] < current else None


def eliminate_dominated(ev: HybridEvaluator) -> list[Pair]:
    """Candidate MW links that can carry some flow in an optimal design.

    A link whose MW length is at least the best fiber path between its
    endpoints can be replaced edge-for-path by fiber in any routing
    without increasing any path length, so dropping it preserves the
    optimum while saving budget.
    """
    fiber = ev.fiber_dist.ravel()[ev._at[:, 0]].tolist()
    return [p for p, best in zip(ev.links, fiber) if ev.inp.mw_km[p] < best]


def greedy_candidates(ev: HybridEvaluator, pool: Sequence[Pair]) -> list[Pair]:
    """Greedy candidate links from `pool` under an inflated budget.

    Repeatedly adds the single link whose addition lowers the objective
    the most (ties to the earliest in `pool`) while the cost so far is
    below GREEDY_INFLATION x budget; the terminating addition may
    overshoot the inflated budget, which is fine because the final solver
    enforces the real one. Stops early when no addition strictly
    improves. The add order does not depend on the budget, so candidate
    lists for nested budgets are nested prefixes. Each round scores one
    move stack: the chosen set's matrix with each remaining link built in
    turn.
    """
    rest = np.array([ev.link[p] for p in pool], dtype=np.intp)
    chosen: list[Pair] = []
    base = ev.fiber
    cost = 0.0
    current = ev.objective(())
    while cost < GREEDY_INFLATION * ev.inp.budget:
        vals = ev.move_objectives(base, rest)
        best = _first_best(vals, current)
        if best is None:
            break
        k = rest[best]
        chosen.append(ev.links[k])
        rest = np.delete(rest, best)
        base = ev.with_links(base, built=[k])
        cost += ev.cost[k]
        current = vals[best]
    return chosen


def _branch_and_bound(ev: HybridEvaluator, cands: Sequence[Pair]) -> frozenset:
    """Best subset of the sorted, distinct `cands` under the budget (see
    solve_exact).

    A node carries the weight matrix of its bound set; a child's is a copy
    of its parent's with the links it drops reset to fiber. An exclude
    child's bound is read only once the include subtree is done, so its
    matrix waits in `pending` and rides along in the next include bound's
    kernel call, which always comes first: `free` holds only links with
    `cost + c <= budget`, so a branching node has two or more. Its include
    chain keeps its bound and fill, so is neither pruned nor a leaf, until a
    child drops a link and scores its bound, at the latest at free [a, b]:
    `(cost + c_a) + c_b > budget` drops b there by the same float sum. Each
    waiting matrix is so scored once, as beside its include sibling:
    deferring adds no rows and changes no value, only the number of calls.
    """
    budget = ev.inp.budget
    link = [ev.link[p] for p in cands]
    costs = ev.cost[link].tolist()
    # A node's bound is a list: [value] once scored, [] while its matrix
    # waits here.
    pending: list[tuple[np.ndarray, list[float]]] = []

    def scored(*stack: np.ndarray) -> list[float]:
        # Values of `stack`; the waiting bounds are scored in the same call.
        vals = ev.score(np.array([w for w, _ in pending] + list(stack)))
        for (_, box), val in zip(pending, vals):
            box.append(val)
        pending.clear()
        return vals[len(vals) - len(stack):]

    def fits(cost: float, undecided: Iterable[int]) -> list[int]:
        # Undecided links that still fit on their own, by the include
        # branch's own test; cost only grows deeper, so no other link
        # can join any completion of this node.
        return [k for k in undecided if cost + costs[k] <= budget]

    def dfs(chosen: tuple[int, ...], cost: float, free: list[int], w: np.ndarray,
            bound: list[float]) -> None:
        nonlocal best, best_val
        if bound[0] >= best_val - _REL_TOL * max(1.0, abs(best_val)):
            return
        fill = cost
        for k in free:
            fill += costs[k]
        if fill <= budget:
            best, best_val = chosen + tuple(free), bound[0]
            return
        k, rest = free[0], free[1:]
        exc_w, exc_bound = ev.with_links(w, dropped=[link[k]]), []
        pending.append((exc_w, exc_bound))
        inc_free = fits(cost + costs[k], rest)
        if inc_free == rest:  # the include child's bound set is this node's
            inc_w, inc_bound = w, bound
        else:
            inc_w = ev.with_links(w, dropped=[link[q] for q in rest if q not in inc_free])
            inc_bound = scored(inc_w)
        dfs(chosen + (k,), cost + costs[k], inc_free, inc_w, inc_bound)
        dfs(chosen, cost, rest, exc_w, exc_bound)

    best: tuple[int, ...] = ()
    best_val = ev.objective(())
    free = fits(0.0, range(len(cands)))
    if free:  # else the root's bound set is the empty incumbent
        root = ev.with_links(ev.fiber, built=[link[k] for k in free])
        dfs((), 0.0, free, root, scored(root))
    return frozenset(cands[k] for k in best)


def solve_exact(ev: HybridEvaluator, candidates: Sequence[Pair]) -> NetworkDesign:
    """Optimal candidate subset under the budget by branch-and-bound.

    The DFS decides candidates in sorted order, including a link before
    excluding it. A node's bound is the objective with every undecided
    link that still fits on its own (`cost + c <= budget`, the include
    branch's test) built for free. Every completion is a subset of that
    set and links only shorten paths, so the bound is admissible; when
    the whole set fits it is the subtree's optimum and, being the first
    leaf the include-first order reaches there, is taken without
    branching. Dropping links that cannot fit only raises bounds on
    subtrees that hold no better design, so the answer equals that of
    the looser bound with every undecided link built: Floyd-Warshall and
    the objective's fixed-order dot product are monotone in the link set
    under IEEE rounding, and the search accepts the same incumbents.
    Each bound set is scored once, from the same matrix, whichever kernel
    call it lands in: an exclude child's bound waits for the next include
    bound's call (see `_branch_and_bound`), so waiting adds no rows.
    Refuses more than EXACT_CANDIDATE_GUARD candidates; callers fall back
    to solve_heuristic's greedy path.
    """
    cands = sorted(set(candidates))
    if len(cands) > EXACT_CANDIDATE_GUARD:
        raise ExactGuardExceeded(
            f"{len(cands)} candidates exceed the exact-search guard "
            f"({EXACT_CANDIDATE_GUARD})")
    for pair in cands:
        if pair not in ev.link:
            raise ValueError(f"candidate {pair} is not an available MW link")
    return evaluate_design(ev, sorted(_branch_and_bound(ev, cands)))


def _local_improve(ev: HybridEvaluator, built: Collection[Pair], pool: Sequence[Pair],
                   max_moves: int = 1000) -> set[Pair]:
    """Local improvement to a first local optimum, bounded at `max_moves`.

    Moves are single additions within remaining budget (links are free
    capacity-wise, so an improving add is always safe) and single swaps
    (remove one built, add one unbuilt) that respect the budget. Each
    iteration scores one move stack off the current set's matrix and takes
    the first strictly best move: adds in pool order, then swaps by removed
    link ascending and added link in pool order. Swaps removing the link
    the previous move added are skipped: each such set is the previous base
    or one of its moves, already scored at or above the value now current,
    so none wins. The moves are two link-index arrays of equal length; an
    add resets the added link itself before building it (see move_stack).
    """
    budget = ev.inp.budget
    current = ev.objective(built)
    base = ev.graph_for(built)
    pool = np.array([ev.link[p] for p in pool], dtype=np.intp)
    is_built = np.zeros(len(ev.links), dtype=bool)
    is_built[[ev.link[p] for p in built]] = True
    cost = ev.cost[is_built].sum()
    last = -1
    for _ in range(max_moves):
        unbuilt = pool[~is_built[pool]]
        adds = unbuilt[cost + ev.cost[unbuilt] <= budget]
        removable = np.flatnonzero(is_built)
        removable = removable[removable != last]
        removed = np.repeat(removable, len(unbuilt))
        added = np.tile(unbuilt, len(removable))
        fits = cost - ev.cost[removed] + ev.cost[added] <= budget
        removed = np.concatenate([adds, removed[fits]])
        added = np.concatenate([adds, added[fits]])
        vals = ev.move_objectives(base, added, removed)
        best = _first_best(vals, current)
        if best is None:
            break
        r, a = removed[best], added[best]
        if r != a:
            is_built[r] = False
            cost -= ev.cost[r]
        is_built[a] = True
        cost += ev.cost[a]
        base = ev.with_links(base, built=[a], dropped=[r])
        current, last = vals[best], a
    return {ev.links[k] for k in np.flatnonzero(is_built)}


def solve_heuristic(inp: DesignInput) -> NetworkDesign:
    """Design pipeline behind every CLI run.

    Dominated candidates are eliminated first (optimality-preserving).
    When the surviving pool fits the exact-search guard the answer is the
    true optimum over it. Larger instances go through greedy candidate
    generation at GREEDY_INFLATION x budget, exact search over those
    candidates when they fit the guard (else greedy selection trimmed to
    budget), and a local improvement pass over the full pool, which
    recovers cheap complementary links the greedy cutoff can miss. One
    pool and one evaluator serve every step.
    """
    ev = HybridEvaluator(inp)
    pool = eliminate_dominated(ev)
    if len(pool) <= EXACT_CANDIDATE_GUARD:
        return solve_exact(ev, pool)
    cands = greedy_candidates(ev, pool)
    if len(cands) <= EXACT_CANDIDATE_GUARD:
        built = _branch_and_bound(ev, sorted(cands))
    else:
        # Walk the greedy order, keeping every link that still fits.
        built, cost = [], 0.0
        for pair in cands:
            if cost + inp.mw_cost[pair] <= inp.budget:
                built.append(pair)
                cost += inp.mw_cost[pair]
    return evaluate_design(ev, sorted(_local_improve(ev, built, pool)))


def evaluate_design(ev: HybridEvaluator, built_links: Sequence[Pair]) -> NetworkDesign:
    """Route every site pair over built MW plus all fiber links and
    summarize traffic-weighted stretch.

    Raises InfeasibleDesignError when any site pair is unreachable and
    ValueError when the built set exceeds the budget.
    """
    inp = ev.inp
    built = sorted(set(pair_key(*p) for p in built_links))
    for pair in built:
        if pair not in ev.link:
            raise ValueError(f"built link {pair} is not an available MW link")
    towers = sum(inp.mw_cost[p] for p in built)
    if towers > inp.budget + 1e-9:
        raise ValueError(f"built links cost {towers} towers, budget is {inp.budget}")

    w = ev.graph_for(built)
    dist = distance_matrix(w)
    ids = ev.pairs.ids
    if np.isinf(dist).any():
        i, j = np.argwhere(np.isinf(dist))[0]  # row-major, so i < j
        raise InfeasibleDesignError(f"pair ({ids[i]}, {ids[j]}) cannot be routed")
    stretch = dist[ev.pairs.rows, ev.pairs.cols] / ev.geodesic
    # Python lists, read once per call: the per-edge and per-pair reads
    # below then cost no numpy scalar each.
    is_mw = (w < ev.fiber).tolist()
    km = dist.tolist()
    at = list(zip(ev.pairs.rows.tolist(), ev.pairs.cols.tolist()))
    routes: dict[Pair, PairRoute] = {}
    for pair, (i, j), walk, s in zip(ev.pairs.pairs, at, next_hop_walks(w, dist, at),
                                     stretch.tolist()):
        media = tuple("mw" if is_mw[u][v] else "fiber" for u, v in zip(walk, walk[1:]))
        routes[pair] = PairRoute(tuple(ids[u] for u in walk), media, km[i][j], s)
    stats = stretch_stats(stretch, ev.pairs.weights)
    return NetworkDesign(tuple(built), routes, stats, towers, inp.budget)


# ---------------------------------------------------------------------------
# Deriving MW link inputs from a hop graph


@dataclass(frozen=True)
class SiteLink:
    length_km: float
    tower_count: int
    path: tuple[str, ...]  # site, towers..., site


def site_tower_graph(sites: Sequence[Site], hop_graph: HopGraph,
                     radius_km: float) -> CsrGraph:
    """The tower graph with every site attached to the towers at
    0 < geodesic km <= radius_km. A site id that is also a tower id is a
    ValueError: the site would merge with that tower."""
    if not 0 <= radius_km < math.inf:
        raise ValueError(f"radius_km must be finite and >= 0, got {radius_km!r}")
    stubs = []
    for site in sites:
        if site.id in hop_graph.towers:
            raise ValueError(f"site id {site.id!r} is also a tower id")
        stubs += [(site.id, t, d) for t, tower in enumerate(hop_graph.towers.values())
                  if 0 < (d := geodesic_km(site.location, tower.location)) <= radius_km]
    ids = sorted({*hop_graph.towers, *(s.id for s in sites)})
    index = {v: i for i, v in enumerate(ids)}
    tower_at = np.array([index[t] for t in hop_graph.towers], dtype=np.int64)
    hops = hop_graph.hops
    return CsrGraph(ids, np.concatenate([tower_at[hops["a"]], [index[s] for s, _, _ in stubs]]),
                    np.concatenate([tower_at[hops["b"]], tower_at[[t for _, t, _ in stubs]]]),
                    np.concatenate([hops["km"], [d for _, _, d in stubs]]))


def site_links(sites: Sequence[Site], hop_graph: HopGraph,
               radius_km: float = 15.0) -> dict[Pair, SiteLink]:
    """Shortest MW tower path between every site pair.

    Sites attach to all towers within `radius_km` (cities are assumed to
    host tower capacity) but not to a tower at distance 0; the link cost
    is the number of distinct towers on the path. Pairs with no tower
    route are absent. One search runs per site a with every other site
    blocked, so other sites never relay; b's path is the least (km, node
    sequence) over b's towers t of a's path to t plus the stub t-b, which
    is what Dijkstra over the towers and just a and b settles for b.
    """
    ordered = sorted(sites, key=lambda s: s.id)
    g = site_tower_graph(ordered, hop_graph, radius_km)
    ids = {s.id for s in ordered}
    out: dict[Pair, SiteLink] = {}
    for i, a in enumerate(ordered[:-1]):
        paths = shortest_paths_from(g, a.id, blocked=ids - {a.id})
        for b in ordered[i + 1:]:
            ends = [(paths[t].total_weight + d, paths[t].nodes + (b.id,))
                    for t, d in g.neighbors(b.id).items() if t in paths]
            if ends:
                km, nodes = min(ends)
                out[pair_key(a.id, b.id)] = SiteLink(km, len(nodes) - 2, nodes)
    return out


def build_design_input(sites: Sequence[Site], traffic: TrafficMatrix,
                       hop_graph: HopGraph | None, fiber_lengths: dict[Pair, float],
                       budget: float, radius_km: float = 15.0) -> DesignInput:
    """Assemble a DesignInput from pipeline artifacts.

    `fiber_lengths` holds physical shortest-path fiber km per site pair
    (from the conduit graph); they are converted to latency-equivalent km
    here, at `FIBER_SLOWDOWN`.
    """
    loc = {s.id: s.location for s in sites}
    geodesic = {(a, b): geodesic_km(loc[a], loc[b]) for a, b in PairIndex(loc).pairs}
    links = site_links(sites, hop_graph, radius_km) if hop_graph is not None else {}
    return DesignInput(
        sites=list(sites),
        traffic=traffic,
        geodesic=geodesic,
        mw_km={k: v.length_km for k, v in links.items()},
        mw_cost={k: float(v.tower_count) for k, v in links.items()},
        fiber_km_eq={k: v * FIBER_SLOWDOWN for k, v in fiber_lengths.items()},
        budget=budget,
        tower_paths={k: v.path for k, v in links.items()},
    )


# ---------------------------------------------------------------------------
# Serialization


def _dense(matrix: dict[Pair, float], ids: list[str]) -> list[list[float | None]]:
    n = len(ids)
    idx = {s: i for i, s in enumerate(ids)}
    out: list[list[float | None]] = [[None] * n for _ in range(n)]
    for i in range(n):
        out[i][i] = 0.0
    for (a, b), v in matrix.items():
        out[idx[a]][idx[b]] = v
        out[idx[b]][idx[a]] = v
    return out


def _sparse(dense: list[list[float | None]], pairs: PairIndex) -> dict[Pair, float]:
    cells = zip(pairs.pairs, pairs.rows.tolist(), pairs.cols.tolist())
    return {p: float(dense[i][j]) for p, i, j in cells if dense[i][j] is not None}


def save_design_input(inp: DesignInput, path: str) -> None:
    ids = inp.site_ids
    doc = {
        "sites": [{"id": s.id, "lat": s.location.lat, "lon": s.location.lon,
                   "population": s.population}
                  for s in sorted(inp.sites, key=lambda s: s.id)],
        "budget": inp.budget,
        "fiber_slowdown": FIBER_SLOWDOWN,
        "traffic": _dense(inp.traffic.as_dict(), ids),
        "geodesic_km": _dense(inp.geodesic, ids),
        "mw_km": _dense(inp.mw_km, ids),
        "mw_cost_towers": _dense(inp.mw_cost, ids),
        "fiber_km_eq": _dense(inp.fiber_km_eq, ids),
        "tower_paths": {link_id(pair): list(p) for pair, p in sorted(inp.tower_paths.items())},
    }
    write_json(doc, path)


def load_design_input(path: str) -> DesignInput:
    """An instance from `save_design_input`; its `fiber_slowdown` must be `FIBER_SLOWDOWN`."""
    with open(path) as fh:
        doc = json.load(fh)
    sites = [Site(s["id"], GeoPoint(s["lat"], s["lon"]), s.get("population", 0.0))
             for s in doc["sites"]]
    pairs = PairIndex(s.id for s in sites)
    known = set(pairs.ids)
    try:
        slowdown = doc.get("fiber_slowdown", FIBER_SLOWDOWN)
        if slowdown != FIBER_SLOWDOWN:
            raise ValueError(f"fiber_slowdown {slowdown!r} must be {FIBER_SLOWDOWN}")
        tower_paths = {parse_link_id(key, known): tuple(nodes)
                       for key, nodes in doc.get("tower_paths", {}).items()}
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return DesignInput(
        sites=sites,
        traffic=TrafficMatrix(_sparse(doc["traffic"], pairs)),
        geodesic=_sparse(doc["geodesic_km"], pairs),
        mw_km=_sparse(doc["mw_km"], pairs),
        mw_cost=_sparse(doc["mw_cost_towers"], pairs),
        fiber_km_eq=_sparse(doc["fiber_km_eq"], pairs),
        budget=doc["budget"],
        tower_paths=tower_paths,
    )


def save_design(design: NetworkDesign, path: str) -> None:
    doc = {
        "built_links": [list(p) for p in design.built_links],
        "towers_used": design.towers_used,
        "budget": design.budget,
        "stats": {
            "mean": design.stats.mean, "median": design.stats.median,
            "p95": design.stats.p95, "weighting": design.stats.weighting,
            "pair_count": design.stats.pair_count,
        },
        "per_pair": [
            {"src": a, "dst": b, "nodes": list(r.nodes), "media": list(r.media),
             "length_km": r.length_km, "stretch": r.stretch}
            for (a, b), r in sorted(design.routes.items())
        ],
    }
    write_json(doc, path)


def load_built_links(path: str) -> list[Pair]:
    """The built links of a design file written by `save_design`."""
    with open(path) as fh:
        return [pair_key(a, b) for a, b in json.load(fh)["built_links"]]


def design_to_geojson(inp: DesignInput, design: NetworkDesign,
                      towers: dict | None = None) -> dict:
    """FeatureCollection of built MW links and the fiber links any route
    uses. MW geometry follows the tower path when tower coordinates are
    available, else the direct site-site line."""
    locs = {s.id: s.location for s in inp.sites}

    def coords(node: str) -> list[float]:
        if node in locs:
            p = locs[node]
        elif towers is not None and node in towers:
            p = towers[node].location
        else:
            raise KeyError(f"no coordinates for node {node!r}")
        return [p.lon, p.lat]

    features = []
    for pair in design.built_links:
        path = inp.tower_paths.get(pair)
        if path and (towers is not None):
            line = [coords(n) for n in path]
        else:
            line = [coords(pair[0]), coords(pair[1])]
        features.append({
            "type": "Feature",
            "geometry": {"type": "LineString", "coordinates": line},
            "properties": {"medium": "mw", "link": list(pair),
                           "length_km": inp.mw_km[pair],
                           "cost_towers": inp.mw_cost[pair]},
        })
    for pair in design.fiber_links():
        features.append({
            "type": "Feature",
            "geometry": {"type": "LineString",
                         "coordinates": [coords(pair[0]), coords(pair[1])]},
            "properties": {"medium": "fiber", "link": list(pair),
                           "length_km": inp.fiber_km_eq[pair] / FIBER_SLOWDOWN},
        })
    return {"type": "FeatureCollection", "features": features}
