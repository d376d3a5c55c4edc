"""Weighted-graph algorithms shared across the toolkit.

Distances between sites come from one dense kernel, `distance_matrix`
(Floyd-Warshall over a `weight_matrix`), and site-level routes from its
next hops (`next_hop_walks`): design evaluation, fiber demand routing and
simulator routing, with exact ties to the smallest node index. Dijkstra
remains only on the sparse tower graphs (site links and disjoint tower
paths): one settle loop serves the early-exit `shortest_path`,
`shortest_paths_from` and the tests' oracle `shortest_path_lengths`, with
ties broken toward the lexicographically smallest node-id sequence so
designs are reproducible. It pushes only improving heap entries and never
enters a caller's `blocked` nodes, so no query copies or edits a graph.
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


class WeightedGraph:
    """Undirected graph with finite positive edge weights and opaque string ids."""

    def __init__(self) -> None:
        self._adj: dict[str, dict[str, float]] = {}

    def add_node(self, node: str) -> None:
        self._adj.setdefault(node, {})

    def add_edge(self, a: str, b: str, weight: float) -> None:
        if a == b:
            raise ValueError(f"self-loop on {a!r}")
        if not 0 < weight < math.inf:
            raise ValueError(f"edge weight must be finite and > 0, got {weight}")
        self.add_node(a)
        self.add_node(b)
        self._adj[a][b] = weight
        self._adj[b][a] = weight

    def __contains__(self, node: str) -> bool:
        return node in self._adj

    def nodes(self) -> list[str]:
        return list(self._adj)

    def neighbors(self, node: str) -> dict[str, float]:
        return self._adj[node]

    def has_edge(self, a: str, b: str) -> bool:
        return a in self._adj and b in self._adj[a]

    def edge_weight(self, a: str, b: str) -> float:
        return self._adj[a][b]

    def edges(self) -> Iterator[tuple[str, str, float]]:
        for a, nbrs in self._adj.items():
            for b, w in nbrs.items():
                if a < b:
                    yield a, b, w


def _check_nodes(g: WeightedGraph, *nodes: str) -> None:
    for n in nodes:
        if n not in g:
            raise KeyError(f"unknown node {n!r}")


# The best heap entry of a node not yet pushed: any finite entry beats it.
_UNSEEN = (math.inf, ())


def _settled_paths(g: WeightedGraph, src: str, blocked: Collection[str] = ()) -> Iterator[Path]:
    """Dijkstra from src that never enters a node of `blocked`, yielding each
    node's path as it settles; heap keys are (weight, node sequence), so equal
    weights settle the smallest sequence first. An entry is pushed only when it
    beats the best one pushed for its node: a skipped entry could never pop first."""
    _check_nodes(g, src)
    heap: list[tuple[float, tuple[str, ...]]] = [(0.0, (src,))]
    best: dict[str, tuple[float, tuple[str, ...]]] = {src: heap[0]}
    settled: set[str] = set()
    while heap:
        dist, nodes = heapq.heappop(heap)
        node = nodes[-1]
        if node in settled:
            continue
        settled.add(node)
        yield Path(nodes, dist)
        for nbr, w in g.neighbors(node).items():
            km, old = dist + w, best.get(nbr, _UNSEEN)
            if km <= old[0] and nbr not in settled and nbr not in blocked:
                entry = (km, nodes + (nbr,))
                if entry < old:
                    best[nbr] = entry
                    heapq.heappush(heap, entry)


def shortest_path(g: WeightedGraph, src: str, dst: str,
                  blocked: Collection[str] = ()) -> Path | None:
    """Minimal-weight path from src to dst that enters no node of `blocked`,
    or None when there is none.

    Among equal-weight alternatives the lexicographically smallest node
    sequence wins. src == dst yields a zero-weight single-node path.
    """
    _check_nodes(g, src, dst)
    for p in _settled_paths(g, src, blocked):
        if p.nodes[-1] == dst:
            return p
    return None


def shortest_paths_from(g: WeightedGraph, src: str,
                        blocked: Collection[str] = ()) -> dict[str, Path]:
    """Tie-broken shortest paths from src to every node it reaches without
    entering a node of `blocked`."""
    return {p.nodes[-1]: p for p in _settled_paths(g, src, blocked)}


def shortest_path_lengths(g: WeightedGraph, src: str) -> dict[str, float]:
    """Dijkstra distances from src; no library caller: the tests' oracle for `distance_matrix`."""
    return {p.nodes[-1]: p.total_weight for p in _settled_paths(g, src)}


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
    columns: dict[int, list[int]] = {}
    for s, t in pairs:
        if t not in columns:
            columns[t] = (off + dist[:, t]).argmin(axis=1).tolist()
        nodes = [s]
        while nodes[-1] != t:
            if np.isinf(dist[s, t]) or len(nodes) == len(off):
                raise ValueError(f"no loop-free walk from node {s} to node {t}")
            nodes.append(columns[t][nodes[-1]])
        yield nodes


def tower_disjoint_paths(g: WeightedGraph, src: str, dst: str, n: int,
                         blocked: Collection[str] = ()) -> list[Path]:
    """Up to n successively interior-disjoint shortest paths from src to dst.

    Each path avoids `blocked` and the interior nodes of all previous ones,
    so weights are non-decreasing; the list is short when the graph is
    exhausted. Adjacent (or equal) src and dst are a ValueError: a path
    with no interior would block nothing.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_nodes(g, src, dst)
    if src == dst or g.has_edge(src, dst):
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


def bridges(g: WeightedGraph) -> set[tuple[str, str]]:
    """Edges whose removal disconnects their component (canonical (min,max) keys)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    out: set[tuple[str, str]] = set()
    counter = 0
    for root in sorted(g.nodes()):
        if root in index:
            continue
        # Iterative DFS; stack entries are (node, parent, neighbor iterator).
        stack = [(root, None, iter(sorted(g.neighbors(root))))]
        index[root] = low[root] = counter
        counter += 1
        while stack:
            node, parent, it = stack[-1]
            advanced = False
            for nbr in it:
                if nbr not in index:
                    index[nbr] = low[nbr] = counter
                    counter += 1
                    stack.append((nbr, node, iter(sorted(g.neighbors(nbr)))))
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


def connected(g: WeightedGraph, nodes: Iterable[str]) -> bool:
    """True when every listed node lies in one connected component."""
    targets = set(nodes)
    _check_nodes(g, *targets)
    if len(targets) <= 1:
        return True
    start = next(iter(targets))
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for nbr in g.neighbors(node):
            if nbr not in seen:
                seen.add(nbr)
                frontier.append(nbr)
    return targets <= seen
