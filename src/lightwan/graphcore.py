"""Weighted-graph algorithms shared across the toolkit.

Two graph formats: dense weight matrices over sites and `CsrGraph` over
towers. Distances between sites come from one dense kernel,
`distance_matrix` (Floyd-Warshall over a `weight_matrix`), and site-level
routes from its next hops (`next_hop_walks`): design evaluation, fiber
demand routing and simulator routing, with exact ties to the smallest node
index. Dijkstra remains only on the sparse tower graphs (site links and
disjoint tower paths): one settle loop over node indices serves the
early-exit `shortest_path` and `shortest_paths_from`, with ties broken
toward the lexicographically smallest node-id sequence so designs are
reproducible. It pushes only improving heap entries and never enters a
caller's `blocked` nodes, so no query copies or edits a graph.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, Mapping, Sequence

import numpy as np


@dataclass(frozen=True)
class Path:
    """An ordered node walk with its summed edge weight."""

    nodes: tuple[str, ...]
    total_weight: float

    @property
    def edges(self) -> list[tuple[str, str]]:
        return list(zip(self.nodes, self.nodes[1:]))

    @property
    def interior(self) -> tuple[str, ...]:
        return self.nodes[1:-1]


class CsrGraph:
    """Undirected graph in compressed sparse row layout: node i's neighbours
    are `nbrs[indptr[i]:indptr[i + 1]]`, ascending, with matching `weights`.

    Edge k joins ids[a[k]] and ids[b[k]] with weight w[k]. `ids` must be
    sorted and unique, so node indices order like ids and the settle loop's
    index sequences tie-break like id sequences. Weights must be finite and
    > 0 and no edge may join a node to itself; a pair listed more than once,
    in either order, keeps its last weight.
    """

    def __init__(self, ids: Sequence[str], a, b, w) -> None:
        self.ids = list(ids)
        if any(x >= y for x, y in zip(self.ids, self.ids[1:])):
            raise ValueError("node ids must be sorted and unique")
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        w = np.asarray(w, dtype=float)
        if (loop := np.flatnonzero(a == b)).size:
            raise ValueError(f"self-loop on {self.ids[a[loop[0]]]!r}")
        if (bad := np.flatnonzero(~((w > 0) & (w < math.inf)))).size:
            raise ValueError(f"edge weight must be finite and > 0, got {float(w[bad[0]])}")
        n = len(self.ids)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        _, first = np.unique((lo * n + hi)[::-1], return_index=True)
        keep = len(w) - 1 - first
        src = np.concatenate([lo[keep], hi[keep]])
        dst = np.concatenate([hi[keep], lo[keep]])
        order = np.lexsort((dst, src))
        self.index = {v: i for i, v in enumerate(self.ids)}
        self.indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
        self.nbrs = dst[order]
        self.weights = np.concatenate([w[keep], w[keep]])[order]

    def neighbors(self, node: str) -> dict[str, float]:
        i = self.index[node]
        span = slice(self.indptr[i], self.indptr[i + 1])
        return dict(zip([self.ids[j] for j in self.nbrs[span].tolist()],
                        self.weights[span].tolist()))


def _settled(g: CsrGraph, src: str,
             blocked: Collection[str]) -> Iterator[tuple[float, tuple[int, ...]]]:
    """Dijkstra from src that never enters a node of `blocked`, yielding each
    node's (weight, node-index sequence) as it settles; heap keys are those
    pairs, so equal weights settle the smallest sequence first. A settled
    node relaxes its neighbours in one vector step, and an entry is pushed
    only when it beats the best one pushed for its node: a skipped entry
    could never pop first. A settled or blocked node's best km is -inf, so
    no entry beats it."""
    start = g.index[src]
    km_best = np.full(len(g.ids), math.inf)
    km_best[[g.index[v] for v in blocked if v in g.index]] = -math.inf
    km_best[start] = 0.0  # the search starts at src even when src is blocked
    seq_best = {start: (start,)}
    heap: list[tuple[float, tuple[int, ...]]] = [(0.0, (start,))]
    indptr = g.indptr.tolist()
    while heap:
        dist, nodes = heapq.heappop(heap)
        node = nodes[-1]
        if km_best[node] == -math.inf:
            continue
        km_best[node] = -math.inf
        yield dist, nodes
        nbrs = g.nbrs[indptr[node]:indptr[node + 1]]
        km = dist + g.weights[indptr[node]:indptr[node + 1]]
        old = km_best[nbrs]
        hit = (km <= old).nonzero()[0]
        for nbr, k, o in zip(nbrs[hit].tolist(), km[hit].tolist(), old[hit].tolist()):
            seq = nodes + (nbr,)
            if k < o or seq < seq_best[nbr]:
                km_best[nbr], seq_best[nbr] = k, seq
                heapq.heappush(heap, (k, seq))


def _path(g: CsrGraph, dist: float, nodes: tuple[int, ...]) -> Path:
    return Path(tuple(map(g.ids.__getitem__, nodes)), dist)


def shortest_path(g: CsrGraph, src: str, dst: str,
                  blocked: Collection[str] = ()) -> Path | None:
    """Minimal-weight path from src to dst that enters no node of `blocked`,
    or None when there is none.

    Among equal-weight alternatives the lexicographically smallest node
    sequence wins. src == dst yields a zero-weight single-node path.
    """
    end = g.index[dst]
    for dist, nodes in _settled(g, src, blocked):
        if nodes[-1] == end:
            return _path(g, dist, nodes)
    return None


def shortest_paths_from(g: CsrGraph, src: str,
                        blocked: Collection[str] = ()) -> dict[str, Path]:
    """Tie-broken shortest paths from src to every node it reaches without
    entering a node of `blocked`."""
    return {g.ids[nodes[-1]]: _path(g, dist, nodes) for dist, nodes in _settled(g, src, blocked)}


# Float64 entries per batched `distance_matrix` call (2 MB), so scoring many
# link sets at many sites stays within cache-sized work arrays.
BATCH_ELEMENTS = 1 << 18


def weight_matrix(nodes: Sequence[str], edges: Mapping[tuple[str, str], float]) -> np.ndarray:
    """Dense symmetric weights over `nodes` in the given order: 0 on the
    diagonal, inf where no edge joins two nodes."""
    index = {n: i for i, n in enumerate(nodes)}
    w = np.full((len(index), len(index)), np.inf)
    np.fill_diagonal(w, 0.0)
    for (a, b), weight in edges.items():
        w[index[a], index[b]] = w[index[b], index[a]] = weight
    return w


def distance_matrix(weights: np.ndarray) -> np.ndarray:
    """All-pairs shortest-path lengths of a dense weight matrix (inf where
    disconnected): Floyd-Warshall, one min-plus update per intermediate node.
    A stack `(..., n, n)` is solved slice by slice in one pass, each slice
    bitwise equal to its own 2-D call (the same per-element operations)."""
    d = np.array(weights, dtype=float)
    for k in range(d.shape[-1]):
        np.minimum(d, d[..., :, k:k + 1] + d[..., k:k + 1, :], out=d)
    return d


def next_hop_walks(weights: np.ndarray, dist: np.ndarray,
                   pairs: Iterable[tuple[int, int]]) -> Iterator[list[int]]:
    """Node-index walk s -> t for each (s, t) of `pairs` over dense `weights`
    and their `distance_matrix` `dist`: the next hop from u is the neighbour
    v != u with the least weights[u, v] + dist[v, t], exact ties to the
    smallest index, read one destination column at a time (O(n^2) memory).
    Raises ValueError when t is unreachable from s or a walk would pass n nodes."""
    off = np.array(weights, dtype=float)
    np.fill_diagonal(off, np.inf)
    columns: dict[int, tuple[list[int], list[float]]] = {}
    for s, t in pairs:
        if t not in columns:
            columns[t] = (off + dist[:, t]).argmin(axis=1).tolist(), dist[:, t].tolist()
        step, to_t = columns[t]
        unreachable = math.isinf(to_t[s])
        nodes = [s]
        while nodes[-1] != t:
            if unreachable or len(nodes) == len(off):
                raise ValueError(f"no loop-free walk from node {s} to node {t}")
            nodes.append(step[nodes[-1]])
        yield nodes


def tower_disjoint_paths(g: CsrGraph, src: str, dst: str, n: int,
                         blocked: Collection[str] = ()) -> list[Path]:
    """Up to n successively interior-disjoint shortest paths from src to dst.

    Each path avoids `blocked` and the interior nodes of all previous ones,
    so weights are non-decreasing; the list is short when the graph is
    exhausted. Adjacent (or equal) src and dst are a ValueError: a path
    with no interior would block nothing.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if src == dst or dst in g.neighbors(src):
        raise ValueError("src and dst are adjacent")
    avoid = set(blocked)
    paths: list[Path] = []
    for _ in range(n):
        p = shortest_path(g, src, dst, avoid)
        if p is None:
            break
        paths.append(p)
        avoid.update(p.interior)
    return paths


def bridges(links: Iterable[tuple[str, str]]) -> set[tuple[str, str]]:
    """Links whose removal disconnects their component (canonical (min,max) keys)."""
    adj: dict[str, set[str]] = {}
    for a, b in links:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    out: set[tuple[str, str]] = set()
    counter = 0
    for root in sorted(adj):
        if root in index:
            continue
        # Iterative DFS; stack entries are (node, parent, neighbor iterator).
        stack = [(root, None, iter(sorted(adj[root])))]
        index[root] = low[root] = counter
        counter += 1
        while stack:
            node, parent, it = stack[-1]
            advanced = False
            for nbr in it:
                if nbr not in index:
                    index[nbr] = low[nbr] = counter
                    counter += 1
                    stack.append((nbr, node, iter(sorted(adj[nbr]))))
                    advanced = True
                    break
                elif nbr != parent:
                    low[node] = min(low[node], index[nbr])
            if not advanced:
                stack.pop()
                if stack:
                    pnode = stack[-1][0]
                    low[pnode] = min(low[pnode], low[node])
                    if low[node] > index[pnode]:
                        out.add((min(pnode, node), max(pnode, node)))
    return out
