"""The dict-of-dicts tower graph and its settle loop, kept as test oracles.

`WeightedGraph` and the functions down to `connected` are the library's
graph code from before tower graphs became `graphcore.CsrGraph` index
arrays, copied unchanged (their `Path` is the library's, so results
compare equal). The helpers at the end rebuild the dict graphs the library
used to build: from a hop graph, a fiber graph and a simulator topology.
"""

from __future__ import annotations

import heapq
import math
from typing import Collection, Iterable, Iterator

import numpy as np

from lightwan.geo import latency_ms
from lightwan.graphcore import CsrGraph, Path
from lightwan.los import HOP_DTYPE, HopGraph


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


# --- conversions ---------------------------------------------------------------

def to_csr(g: WeightedGraph) -> CsrGraph:
    """The same graph as the library's CSR arrays."""
    ids = sorted(g.nodes())
    index = {n: i for i, n in enumerate(ids)}
    edges = list(g.edges())
    return CsrGraph(ids, [index[a] for a, _, _ in edges], [index[b] for _, b, _ in edges],
                    [w for _, _, w in edges])


def hop_dict_graph(hop_graph: HopGraph) -> WeightedGraph:
    """The tower graph as `HopGraph.graph()` built it: every tower, then the
    hops in row order, so a repeated pair keeps its last length."""
    g = WeightedGraph()
    for tid in hop_graph.towers:
        g.add_node(tid)
    for a, b, km in hop_rows(hop_graph):
        g.add_edge(a, b, km)
    return g


def fiber_dict_graph(fiber) -> WeightedGraph:
    """A `fiberbase.FiberGraph` as its former `graph()` method built it."""
    g = WeightedGraph()
    for eid in fiber.endpoints:
        g.add_node(eid)
    for (a, b), km in fiber.links.items():
        g.add_edge(a, b, km)
    return g


def latency_graph(topology) -> WeightedGraph:
    """A `simnet.SimTopology` weighted by link latency in ms, as its former
    `latency_graph` method built it."""
    g = WeightedGraph()
    for n in topology.nodes:
        g.add_node(n)
    for link in topology.links:
        g.add_edge(link.a, link.b, latency_ms(link.length_km, link.medium))
    return g


def link_for(topology, a: str, b: str):
    """The `simnet.SimLink` of `topology` between `a` and `b`, either way
    round, as its former `link_for` method found it."""
    for link in topology.links:
        if {link.a, link.b} == {a, b}:
            return link
    raise KeyError(f"no link {(a, b)}")


def hop_rows(hop_graph: HopGraph) -> list[tuple[str, str, float]]:
    """(tower_a, tower_b, length_km) per hop row, in row order."""
    ids = list(hop_graph.towers)
    return [(ids[a], ids[b], km) for a, b, km in hop_graph.hops.tolist()]


def hop_graph_of(towers, rows) -> HopGraph:
    """A HopGraph over `towers` (in id order) from (tower_a, tower_b, km) rows."""
    by_id = {t.id: t for t in sorted(towers, key=lambda t: t.id)}
    index = {tid: i for i, tid in enumerate(by_id)}
    return HopGraph(by_id, np.array([(index[a], index[b], km) for a, b, km in rows],
                                    dtype=HOP_DTYPE))
