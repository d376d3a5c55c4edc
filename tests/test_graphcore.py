import math

import numpy as np
import pytest

from lightwan import graphcore
from lightwan.designer import DesignInput, HybridEvaluator
from lightwan.geo import GeoPoint, Site, geodesic_km
from lightwan.graphcore import WeightedGraph
from lightwan.traffic import TrafficMatrix


def bellman_ford(g: WeightedGraph, src: str) -> dict[str, float]:
    # Independent oracle: edge-list relaxation, no priority queue.
    dist = {n: math.inf for n in g.nodes()}
    dist[src] = 0.0
    edges = [(a, b, w) for a, b, w in g.edges()]
    for _ in range(len(dist)):
        changed = False
        for a, b, w in edges:
            if dist[a] + w < dist[b]:
                dist[b] = dist[a] + w
                changed = True
            if dist[b] + w < dist[a]:
                dist[a] = dist[b] + w
                changed = True
        if not changed:
            break
    return dist


def random_graph(rng, n=50, p=0.12) -> WeightedGraph:
    g = WeightedGraph()
    names = [f"n{i:03d}" for i in range(n)]
    for name in names:
        g.add_node(name)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(names[i], names[j], float(rng.uniform(0.5, 10.0)))
    return g


def test_graph_rejects_self_loops_and_bad_weights():
    g = WeightedGraph()
    with pytest.raises(ValueError):
        g.add_edge("a", "a", 1.0)
    with pytest.raises(ValueError):
        g.add_edge("a", "b", 0.0)


def test_shortest_path_src_equals_dst():
    g = WeightedGraph()
    g.add_node("a")
    p = graphcore.shortest_path(g, "a", "a")
    assert p.nodes == ("a",)
    assert p.total_weight == 0.0
    assert p.edges == []


def test_shortest_path_triangle():
    g = WeightedGraph()
    g.add_edge("a", "b", 1.0)
    g.add_edge("b", "c", 1.0)
    g.add_edge("a", "c", 3.0)
    p = graphcore.shortest_path(g, "a", "c")
    assert p.nodes == ("a", "b", "c")
    assert p.total_weight == 2.0


def test_shortest_path_unknown_node():
    g = WeightedGraph()
    g.add_node("a")
    with pytest.raises(KeyError):
        graphcore.shortest_path(g, "a", "zz")


def test_shortest_path_disconnected():
    g = WeightedGraph()
    g.add_node("a")
    g.add_node("b")
    assert graphcore.shortest_path(g, "a", "b") is None


def test_shortest_path_lexicographic_tie_break():
    # Two equal-weight routes a-b-d and a-c-d; the smaller sequence wins.
    g = WeightedGraph()
    g.add_edge("a", "b", 1.0)
    g.add_edge("b", "d", 1.0)
    g.add_edge("a", "c", 1.0)
    g.add_edge("c", "d", 1.0)
    p = graphcore.shortest_path(g, "a", "d")
    assert p.nodes == ("a", "b", "d")
    # Same tie broken from the other side.
    p2 = graphcore.shortest_path(g, "d", "a")
    assert p2.nodes == ("d", "b", "a")


def test_shortest_path_matches_bellman_ford_oracle():
    rng = np.random.default_rng(11)
    for _ in range(5):
        g = random_graph(rng)
        dist = bellman_ford(g, "n000")
        for node in g.nodes():
            p = graphcore.shortest_path(g, "n000", node)
            if math.isinf(dist[node]):
                assert p is None
            else:
                assert p.total_weight == pytest.approx(dist[node], rel=1e-12)
                # Path weights must sum consistently along adjacent nodes.
                total = sum(g.edge_weight(u, v) for u, v in p.edges)
                assert total == pytest.approx(p.total_weight, rel=1e-12)


def test_shortest_paths_from_agrees_with_per_pair():
    rng = np.random.default_rng(3)
    g = random_graph(rng, n=30)
    paths = graphcore.shortest_paths_from(g, "n000")
    for node, p in paths.items():
        single = graphcore.shortest_path(g, "n000", node)
        assert single.nodes == p.nodes
        assert single.total_weight == p.total_weight


def graph_distances(g: WeightedGraph) -> tuple[list[str], np.ndarray]:
    nodes = sorted(g.nodes())
    edges = {(a, b): w for a, b, w in g.edges()}
    return nodes, graphcore.distance_matrix(graphcore.weight_matrix(nodes, edges))


def test_distance_matrix_single_node():
    g = WeightedGraph()
    g.add_node("a")
    nodes, dist = graph_distances(g)
    assert nodes == ["a"]
    assert dist.tolist() == [[0.0]]


def test_distance_matrix_disconnected_entry_inf():
    g = WeightedGraph()
    g.add_node("a")
    g.add_node("b")
    _, dist = graph_distances(g)
    assert dist.tolist() == [[0.0, math.inf], [math.inf, 0.0]]


def test_distance_matrix_matches_per_pair_calls():
    rng = np.random.default_rng(5)
    g = random_graph(rng, n=40)
    nodes, dist = graph_distances(g)
    for i, s in enumerate(nodes[:20]):
        for j, t in enumerate(nodes[:20]):
            p = graphcore.shortest_path(g, s, t)
            if p is None:
                assert math.isinf(dist[i, j])
            else:
                assert dist[i, j] == pytest.approx(p.total_weight, rel=1e-12)
                assert dist[i, j] == dist[j, i]


@pytest.mark.parametrize("seed", range(4))
def test_distance_matrix_matches_dijkstra_oracle(seed):
    # Sparse seeded graphs split into components, plus isolated nodes.
    rng = np.random.default_rng(100 + seed)
    g = random_graph(rng, n=30, p=0.06)
    for extra in ("x0", "x1"):
        g.add_node(extra)
    nodes, dist = graph_distances(g)
    assert any(math.isinf(v) for v in dist.ravel())
    for i, s in enumerate(nodes):
        lengths = graphcore.shortest_path_lengths(g, s)
        for j, t in enumerate(nodes):
            if t in lengths:
                assert dist[i, j] == pytest.approx(lengths[t], rel=1e-9)
            else:
                assert math.isinf(dist[i, j])


def test_distance_matrix_stack_bitwise_equals_slices():
    # A (2, 3, n, n) stack of sparse graphs with inf entries and isolated
    # nodes; every slice must equal its own 2-D call exactly.
    rng = np.random.default_rng(11)
    slices = []
    for _ in range(6):
        g = random_graph(rng, n=12, p=0.2)
        g.add_node("x0")
        nodes = sorted(g.nodes())
        slices.append(graphcore.weight_matrix(nodes, {(a, b): w for a, b, w in g.edges()}))
    stack = np.array(slices).reshape(2, 3, *slices[0].shape)
    dist = graphcore.distance_matrix(stack)
    assert dist.shape == stack.shape
    assert np.isinf(dist).any()
    for idx in np.ndindex(2, 3):
        assert np.array_equal(dist[idx], graphcore.distance_matrix(stack[idx]))


def test_distance_matrix_hybrid_mw_not_shorter_than_fiber():
    # Hybrid weights over five sites on a line: one MW link ties its fiber
    # link, one is longer, one has no fiber alongside, and s4 is isolated.
    sites = [Site(f"s{i}", GeoPoint(0.0, float(i)), 1.0) for i in range(5)]
    ids = [s.id for s in sites]
    geodesic = {(a.id, b.id): geodesic_km(a.location, b.location)
                for i, a in enumerate(sites) for b in sites[i + 1:]}
    fiber = {p: 1.8 * geodesic[p] for p in (("s0", "s1"), ("s1", "s2"), ("s2", "s3"))}
    mw = {("s0", "s1"): fiber[("s0", "s1")],
          ("s1", "s2"): 1.1 * fiber[("s1", "s2")],
          ("s0", "s3"): 1.05 * geodesic[("s0", "s3")]}
    inp = DesignInput(sites, TrafficMatrix({("s0", "s1"): 1.0}), geodesic, mw,
                      {p: 1.0 for p in mw}, fiber, budget=10.0)
    dist = graphcore.distance_matrix(HybridEvaluator(inp).graph_for(sorted(mw)))
    g = WeightedGraph()
    for sid in ids:
        g.add_node(sid)
    for (a, b), km in list(fiber.items()) + list(mw.items()):
        g.add_edge(a, b, min(km, g.edge_weight(a, b)) if g.has_edge(a, b) else km)
    for i, s in enumerate(ids):
        lengths = graphcore.shortest_path_lengths(g, s)
        for j, t in enumerate(ids):
            if t in lengths:
                assert dist[i, j] == pytest.approx(lengths[t], rel=1e-9)
            else:
                assert math.isinf(dist[i, j])
    assert math.isinf(dist[0, 4])


def test_tower_disjoint_single_interior_node():
    g = WeightedGraph()
    g.add_edge("s", "m", 1.0)
    g.add_edge("m", "t", 1.0)
    paths = graphcore.tower_disjoint_paths(g, "s", "t", 2)
    assert len(paths) == 1
    assert paths[0].nodes == ("s", "m", "t")


def test_tower_disjoint_two_routes_ordered_by_weight():
    g = WeightedGraph()
    g.add_edge("s", "x", 2.0)
    g.add_edge("x", "t", 3.0)
    g.add_edge("s", "y", 3.0)
    g.add_edge("y", "t", 4.0)
    paths = graphcore.tower_disjoint_paths(g, "s", "t", 3)
    assert [p.total_weight for p in paths] == [5.0, 7.0]


def test_tower_disjoint_corridor_of_20_chains():
    # 20 parallel chains of increasing length between the same endpoints.
    g = WeightedGraph()
    for c in range(20):
        prev = "s"
        for h in range(3):
            node = f"c{c:02d}h{h}"
            g.add_edge(prev, node, 1.0 + 0.01 * c)
            prev = node
        g.add_edge(prev, "t", 1.0 + 0.01 * c)
    paths = graphcore.tower_disjoint_paths(g, "s", "t", 25)
    assert len(paths) == 20
    weights = [p.total_weight for p in paths]
    assert weights == sorted(weights)
    seen: set[str] = set()
    for p in paths:
        interior = set(p.interior)
        assert not (interior & seen)
        seen |= interior


def test_bridges_on_square_with_tail():
    g = WeightedGraph()
    g.add_edge("a", "b", 1.0)
    g.add_edge("b", "c", 1.0)
    g.add_edge("c", "d", 1.0)
    g.add_edge("d", "a", 1.0)
    g.add_edge("d", "e", 1.0)
    assert graphcore.bridges(g) == {("d", "e")}


def test_bridges_oracle_on_random_graphs():
    def is_bridge(g, a, b):
        h = g.copy()
        h.remove_edge(a, b)
        return not graphcore.connected(h, [a, b])

    rng = np.random.default_rng(9)
    for _ in range(5):
        g = random_graph(rng, n=18, p=0.15)
        expected = {(a, b) for a, b, _ in g.edges() if is_bridge(g, a, b)}
        assert graphcore.bridges(g) == expected


def test_determinism_identical_runs():
    rng = np.random.default_rng(13)
    g = random_graph(rng, n=25)
    a = [graphcore.shortest_path(g, "n000", n) for n in sorted(g.nodes())]
    b = [graphcore.shortest_path(g, "n000", n) for n in sorted(g.nodes())]
    assert a == b
