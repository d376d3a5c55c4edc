import heapq
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from lightwan import graphcore
from lightwan.designer import DesignInput, HybridEvaluator
from lightwan.geo import GeoPoint, Site, geodesic_km
from lightwan.graphcore import CsrGraph, Path
from lightwan.traffic import TrafficMatrix

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from dict_graph import WeightedGraph, connected, shortest_path_lengths, to_csr  # noqa: E402


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


def graph(*edges, nodes=()) -> CsrGraph:
    """A CSR graph from (a, b, weight) edges plus isolated `nodes`."""
    g = WeightedGraph()
    for node in nodes:
        g.add_node(node)
    for a, b, w in edges:
        g.add_edge(a, b, w)
    return to_csr(g)


def test_graph_rejects_self_loops_and_bad_weights():
    with pytest.raises(ValueError, match="self-loop on 'b'"):
        CsrGraph(["a", "b"], [0, 1], [1, 1], [1.0, 1.0])
    for weight in (0.0, -1.0):
        with pytest.raises(ValueError, match="finite and > 0"):
            CsrGraph(["a", "b"], [0, 1], [1, 0], [1.0, weight])
    for ids in (["b", "a"], ["a", "a"]):
        with pytest.raises(ValueError, match="sorted and unique"):
            CsrGraph(ids, [0], [1], [1.0])


@pytest.mark.parametrize("weight", [math.nan, math.inf])
def test_graph_rejects_non_finite_weights(weight):
    with pytest.raises(ValueError, match="finite and > 0"):
        CsrGraph(["a", "b"], [0], [1], [weight])


def test_graph_keeps_last_weight_of_a_repeated_pair():
    # As in a dict of weights: (a, b) then (b, a) leaves the second length,
    # even when it is the longer one.
    g = CsrGraph(["a", "b", "c"], [0, 1, 2, 1], [1, 2, 0, 0], [3.0, 1.0, 2.0, 5.0])
    assert g.neighbors("a") == {"b": 5.0, "c": 2.0}
    assert g.neighbors("b") == {"a": 5.0, "c": 1.0}
    assert g.indptr.tolist() == [0, 2, 4, 6]
    p = graphcore.shortest_path(g, "a", "b")
    assert (p.nodes, p.total_weight) == (("a", "c", "b"), 3.0)


def test_shortest_path_src_equals_dst():
    g = graph(nodes=["a"])
    p = graphcore.shortest_path(g, "a", "a")
    assert p.nodes == ("a",)
    assert p.total_weight == 0.0
    assert p.edges == []


def test_shortest_path_triangle():
    g = graph(("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 3.0))
    p = graphcore.shortest_path(g, "a", "c")
    assert p.nodes == ("a", "b", "c")
    assert p.total_weight == 2.0


def test_shortest_path_unknown_node():
    g = graph(nodes=["a"])
    with pytest.raises(KeyError):
        graphcore.shortest_path(g, "a", "zz")


def test_shortest_path_disconnected():
    g = graph(nodes=["a", "b"])
    assert graphcore.shortest_path(g, "a", "b") is None


def test_shortest_path_lexicographic_tie_break():
    # Two equal-weight routes a-b-d and a-c-d; the smaller sequence wins.
    g = graph(("a", "b", 1.0), ("b", "d", 1.0), ("a", "c", 1.0), ("c", "d", 1.0))
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
            p = graphcore.shortest_path(to_csr(g), "n000", node)
            if math.isinf(dist[node]):
                assert p is None
            else:
                assert p.total_weight == pytest.approx(dist[node], rel=1e-12)
                # Path weights must sum consistently along adjacent nodes.
                total = sum(g.edge_weight(u, v) for u, v in p.edges)
                assert total == pytest.approx(p.total_weight, rel=1e-12)


def test_shortest_paths_from_agrees_with_per_pair():
    rng = np.random.default_rng(3)
    g = to_csr(random_graph(rng, n=30))
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
    csr = to_csr(g)
    for i, s in enumerate(nodes[:20]):
        for j, t in enumerate(nodes[:20]):
            p = graphcore.shortest_path(csr, s, t)
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
        lengths = shortest_path_lengths(g, s)
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


def reference_distance_matrix(weights) -> np.ndarray:
    """Floyd-Warshall on fresh arrays, as `distance_matrix` ran before its
    workspace: the oracle its bits are held to."""
    d = np.array(weights, dtype=float)
    for k in range(d.shape[-1]):
        np.minimum(d, d[..., :, k:k + 1] + d[..., k:k + 1, :], out=d)
    return d


def tied_weights(rng, shape, p=0.5) -> np.ndarray:
    """Symmetric weight stacks of shape (..., n, n), 0 on the diagonal, inf
    where no edge; the weights are drawn from a few values whose sums tie
    exactly or only up to rounding (0.1 + 0.2 against 0.3)."""
    w = rng.choice([0.1, 0.2, 0.3, 0.5, 1.0, 2.5], size=shape)
    w = np.where(rng.random(shape) < p, w, np.inf)
    w = np.minimum(w, np.swapaxes(w, -1, -2))
    n = shape[-1]
    w[..., np.arange(n), np.arange(n)] = 0.0
    return w


def assert_bitwise_reference(weights) -> None:
    got = graphcore.distance_matrix(weights)
    want = reference_distance_matrix(weights)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_distance_matrix_bitwise_equals_reference_around_the_workspace_limit():
    # Shapes with at most WORKSPACE_ELEMENTS entries keep a workspace; the
    # others build one per call. Both sides, 2-D and stacked.
    rng = np.random.default_rng(21)
    limit = graphcore.WORKSPACE_ELEMENTS
    shapes = [(1, 1), (2, 2), (6, 6), (9, 9), (2, 6, 6), (3, 9, 9), (2, 3, 5, 5),
              (0, 4, 4), (limit // 64, 8, 8), (limit // 64 + 1, 8, 8), (64, 64), (65, 65)]
    assert 64 * 64 == limit
    for shape in shapes:
        w = tied_weights(rng, shape)
        before = w.copy()
        assert_bitwise_reference(w)
        assert np.array_equal(w, before)  # the input is left as it was
    sparse = tied_weights(rng, (3, 9, 9), p=0.05)
    assert_bitwise_reference(sparse)
    assert np.isinf(graphcore.distance_matrix(sparse)).any()
    assert_bitwise_reference([[0, 3], [3, 0]])


def test_distance_matrix_one_shape_again_and_interleaved():
    rng = np.random.default_rng(22)
    for _ in range(50):
        assert_bitwise_reference(tied_weights(rng, (2, 6, 6)))
    for i in range(60):
        shape = [(2, 6, 6), (9, 9), (3, 9, 9), (2, 6, 6), (70, 8, 8)][i % 5]
        assert_bitwise_reference(tied_weights(rng, shape))


def test_distance_matrix_returns_a_fresh_array():
    # A caller may write into a result: the next call of the same shape
    # neither sees that nor rewrites the result.
    rng = np.random.default_rng(23)
    first_w, second_w = tied_weights(rng, (2, 9, 9)), tied_weights(rng, (2, 9, 9))
    first = graphcore.distance_matrix(first_w)
    kept = first.copy()
    second = graphcore.distance_matrix(second_w)
    assert first.tobytes() == kept.tobytes()
    first[...] = -1.0
    second[...] = -1.0
    assert_bitwise_reference(first_w)
    assert_bitwise_reference(second_w)


def test_distance_matrix_workspace_stays_within_its_byte_cap():
    # 64 stack shapes of 8x8 matrices, 2.1 MB of buffers if all were kept.
    rng = np.random.default_rng(24)
    for m in range(1, 65):
        assert_bitwise_reference(tied_weights(rng, (m, 8, 8)))
    kept = graphcore._kept.spaces
    assert sum(2 * d.nbytes for d, _, _ in kept.values()) <= graphcore.WORKSPACE_BYTES
    assert (64, 8, 8) in kept


def test_distance_matrix_threads_keep_their_own_workspace():
    # Four threads solve one shape 200 times each, every input different;
    # a short switch interval lets a thread stop inside a call.
    rng = np.random.default_rng(25)
    inputs = [[tied_weights(rng, (2, 6, 6)) for _ in range(200)] for _ in range(4)]
    want = [[reference_distance_matrix(w).tobytes() for w in ws] for ws in inputs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda ws: [graphcore.distance_matrix(w).tobytes() for w in ws],
                                inputs, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert got == want


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
        lengths = shortest_path_lengths(g, s)
        for j, t in enumerate(ids):
            if t in lengths:
                assert dist[i, j] == pytest.approx(lengths[t], rel=1e-9)
            else:
                assert math.isinf(dist[i, j])
    assert math.isinf(dist[0, 4])


# --- next hops from the dense kernel ----------------------------------------------

def walk_is_tied(weights, dist, walk, rel=1e-9) -> bool:
    """True when some other neighbour of a node on `walk` comes within rel
    of the walk's length of the hop the walk takes: then another path is
    no more than that much longer, and a tie rule, not the lengths,
    decides between them."""
    t = walk[-1]
    slack = rel * dist[walk[0], t]
    for u, v in zip(walk, walk[1:]):
        cost = weights[u] + dist[:, t]
        taken = cost[v]
        cost[[u, v]] = np.inf
        if cost.min() - taken <= slack:
            return True
    return False


def assert_walk_matches(weights, dist, got, want) -> bool:
    """Oracle comparison of two node-index walks between the same ends:
    identical where `want` is shorter than every alternative by more than
    rel 1e-9, else of equal edge-weight sum within rel 1e-12. Returns
    whether the pair fell to the tie branch."""
    assert (got[0], got[-1]) == (want[0], want[-1])
    if not walk_is_tied(weights, dist, want):
        assert got == want
        return False
    total = [sum(weights[u, v] for u, v in zip(w, w[1:])) for w in (got, want)]
    assert total[0] == pytest.approx(total[1], rel=1e-12, abs=0.0)
    return True


def closure_weights(seed, n=10):
    """Hybrid-like dense weights whose direct edges tie multi-hop paths:
    the metric closure of a ring-plus-chords graph, a few strictly shorter
    shortcut edges, then an island pair and an isolated node."""
    rng = np.random.default_rng(seed)
    ring = np.full((n, n), np.inf)
    np.fill_diagonal(ring, 0.0)
    for i in range(n):
        j = (i + 1) % n
        ring[i, j] = ring[j, i] = float(rng.uniform(1.0, 9.0))
    for _ in range(n // 2):
        i, j = rng.choice(n, size=2, replace=False)
        ring[i, j] = ring[j, i] = min(ring[i, j], float(rng.uniform(1.0, 9.0)))
    w = np.full((n + 3, n + 3), np.inf)
    w[:n, :n] = graphcore.distance_matrix(ring)
    for _ in range(n // 3):
        i, j = rng.choice(n, size=2, replace=False)
        w[i, j] = w[j, i] = 0.7 * w[i, j]
    w[n, n + 1] = w[n + 1, n] = 2.5
    np.fill_diagonal(w, 0.0)
    return w


@pytest.mark.parametrize("seed", range(8))
def test_next_hop_walks_on_tied_metric_closure(seed):
    w = closure_weights(seed, n=8 + seed)
    dist = graphcore.distance_matrix(w)
    n = len(w)
    reach = [(s, t) for s in range(n) for t in range(n) if np.isfinite(dist[s, t])]
    ties = 0
    for (s, t), walk in zip(reach, graphcore.next_hop_walks(w, dist, reach)):
        assert (walk[0], walk[-1]) == (s, t)
        assert len(set(walk)) == len(walk)
        hops = [w[u, v] for u, v in zip(walk, walk[1:])]
        assert all(0.0 < h < math.inf for h in hops)
        assert sum(hops) == pytest.approx(dist[s, t], rel=1e-12, abs=0.0)
        for u, v in zip(walk, walk[1:]):
            cost = w[u] + dist[:, t]
            cost[u] = np.inf
            assert v == int(np.flatnonzero(cost == cost.min())[0])
        ties += len(walk) > 2 and sum(hops) == pytest.approx(w[s, t], rel=1e-12)
    # Walks of two or more hops whose direct edge is just as short.
    assert ties > 0
    for s, t in [(0, n - 3), (n - 1, 0), (n - 3, n - 1)]:
        assert math.isinf(dist[s, t])
        with pytest.raises(ValueError, match=f"^no loop-free walk from node {s} to node {t}$"):
            list(graphcore.next_hop_walks(w, dist, [(s, t)]))


def test_next_hop_walks_raises_instead_of_looping():
    # Inconsistent distances make nodes 0 and 1 point at each other.
    w = np.array([[0.0, 1.0, np.inf], [1.0, 0.0, 1.0], [np.inf, 1.0, 0.0]])
    dist = graphcore.distance_matrix(w)
    assert list(graphcore.next_hop_walks(w, dist, [(0, 2), (1, 1)])) == [[0, 1, 2], [1]]
    dist[0, 2] = -0.5
    with pytest.raises(ValueError, match="^no loop-free walk from node 0 to node 2$"):
        list(graphcore.next_hop_walks(w, dist, [(0, 2)]))


def test_tower_disjoint_single_interior_node():
    g = graph(("s", "m", 1.0), ("m", "t", 1.0))
    paths = graphcore.tower_disjoint_paths(g, "s", "t", 2)
    assert len(paths) == 1
    assert paths[0].nodes == ("s", "m", "t")


def test_tower_disjoint_two_routes_ordered_by_weight():
    g = graph(("s", "x", 2.0), ("x", "t", 3.0), ("s", "y", 3.0), ("y", "t", 4.0))
    paths = graphcore.tower_disjoint_paths(g, "s", "t", 3)
    assert [p.total_weight for p in paths] == [5.0, 7.0]


def test_tower_disjoint_corridor_of_20_chains():
    # 20 parallel chains of increasing length between the same endpoints.
    edges = []
    for c in range(20):
        prev = "s"
        for h in range(3):
            node = f"c{c:02d}h{h}"
            edges.append((prev, node, 1.0 + 0.01 * c))
            prev = node
        edges.append((prev, "t", 1.0 + 0.01 * c))
    g = graph(*edges)
    paths = graphcore.tower_disjoint_paths(g, "s", "t", 25)
    assert len(paths) == 20
    weights = [p.total_weight for p in paths]
    assert weights == sorted(weights)
    seen: set[str] = set()
    for p in paths:
        interior = set(p.interior)
        assert not (interior & seen)
        seen |= interior


def test_tower_disjoint_rejects_adjacent_ends():
    g = graph(("s", "t", 1.0), ("s", "m", 1.0), ("m", "t", 1.0))
    with pytest.raises(ValueError, match="adjacent"):
        graphcore.tower_disjoint_paths(g, "s", "t", 2)


# The settle loop and disjoint paths as they were before searches took a
# blocked set: every relaxed edge pushed a heap entry, and the disjoint
# paths deleted nodes from a copy of the graph. Kept as the oracle for the
# improving-only pushes and the blocked nodes.

class ReferenceGraph(WeightedGraph):
    """A WeightedGraph that can lose nodes and edges, as the library graph
    could before its searches took a blocked set."""

    @classmethod
    def copy_of(cls, g: WeightedGraph) -> "ReferenceGraph":
        h = cls()
        for node in g.nodes():
            h.add_node(node)
        for a, b, w in g.edges():
            h.add_edge(a, b, w)
        return h

    def remove_node(self, node: str) -> None:
        for nbr in self._adj.pop(node, {}):
            del self._adj[nbr][node]

    def remove_edge(self, a: str, b: str) -> None:
        del self._adj[a][b]
        del self._adj[b][a]


def reference_settled_paths(g, src):
    """Dijkstra from src, yielding each node's path as it settles; heap keys are
    (weight, node sequence), so equal weights settle the smallest sequence first."""
    heap = [(0.0, (src,))]
    settled = set()
    while heap:
        dist, nodes = heapq.heappop(heap)
        node = nodes[-1]
        if node in settled:
            continue
        settled.add(node)
        yield Path(nodes, dist)
        for nbr, w in g.neighbors(node).items():
            if nbr not in settled:
                heapq.heappush(heap, (dist + w, nodes + (nbr,)))


def reference_shortest_path(g, src, dst):
    for p in reference_settled_paths(g, src):
        if p.nodes[-1] == dst:
            return p
    return None


def reference_shortest_paths_from(g, src):
    return {p.nodes[-1]: p for p in reference_settled_paths(g, src)}


def reference_tower_disjoint_paths(g, src, dst, n):
    work = ReferenceGraph.copy_of(g)
    paths = []
    for _ in range(n):
        p = reference_shortest_path(work, src, dst)
        if p is None:
            break
        paths.append(p)
        if p.interior:
            for node in p.interior:
                work.remove_node(node)
        else:
            work.remove_edge(src, dst)
    return paths


def tied_random_graph(seed, weights, n=36, p=0.14):
    """Seeded random graph whose weights are drawn from `weights`, so many
    routes tie on km exactly and the node-sequence rule decides."""
    rng = np.random.default_rng(seed)
    g = WeightedGraph()
    names = [f"n{i:02d}" for i in range(n)]
    for name in names:
        g.add_node(name)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(names[i], names[j], float(rng.choice(weights)))
    return g, rng


def count_ties(g, paths):
    """Settled nodes reached at their least km through two or more neighbours."""
    km = {v: p.total_weight for v, p in paths.items()}
    return sum(len([u for u, w in g.neighbors(v).items() if u in km and km[u] + w == km[v]]) > 1
               for v in km)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("weights", [(1.0, 2.0, 3.0), (0.1, 0.2, 0.3)])
def test_settle_loop_matches_reference(seed, weights):
    g, _ = tied_random_graph(seed, weights)
    csr = to_csr(g)
    nodes = sorted(g.nodes())
    ties = 0
    for src in nodes:
        want = reference_shortest_paths_from(g, src)
        assert graphcore.shortest_paths_from(csr, src) == want
        ties += count_ties(g, want)
    assert ties > 0
    for src in nodes[:6]:
        for dst in nodes:
            assert graphcore.shortest_path(csr, src, dst) == reference_shortest_path(g, src, dst)
            if dst != src and not g.has_edge(src, dst):
                assert (graphcore.tower_disjoint_paths(csr, src, dst, 4)
                        == reference_tower_disjoint_paths(g, src, dst, 4))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("weights", [(1.0, 2.0, 3.0), (0.1, 0.2, 0.3)])
def test_blocked_nodes_match_reference_on_removed_copy(seed, weights):
    g, rng = tied_random_graph(100 + seed, weights)
    csr = to_csr(g)
    nodes = sorted(g.nodes())
    for src in nodes[::3]:
        others = [v for v in nodes if v != src]
        blocked = set(rng.choice(others, size=6, replace=False).tolist())
        removed = ReferenceGraph.copy_of(g)
        for node in blocked:
            removed.remove_node(node)
        want = reference_shortest_paths_from(removed, src)
        assert graphcore.shortest_paths_from(csr, src, blocked=blocked) == want
        assert not blocked & set(want)
        for dst in others:
            got = graphcore.shortest_path(csr, src, dst, blocked=blocked)
            if dst in blocked:
                assert got is None
                continue
            assert got == reference_shortest_path(removed, src, dst)
            if not g.has_edge(src, dst):
                assert (graphcore.tower_disjoint_paths(csr, src, dst, 3, blocked=blocked)
                        == reference_tower_disjoint_paths(removed, src, dst, 3))


def test_bridges_on_square_with_tail():
    links = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("d", "e")]
    assert graphcore.bridges(links) == {("d", "e")}
    # A link listed twice, in either order, is still one link.
    assert graphcore.bridges(links + [("b", "a"), ("e", "d")]) == {("d", "e")}


def test_bridges_oracle_on_random_graphs():
    def is_bridge(g, a, b):
        h = WeightedGraph()
        for node in g.nodes():
            h.add_node(node)
        for u, v, w in g.edges():
            if (u, v) != (a, b):
                h.add_edge(u, v, w)
        return not connected(h, [a, b])

    rng = np.random.default_rng(9)
    for _ in range(5):
        g = random_graph(rng, n=18, p=0.15)
        expected = {(a, b) for a, b, _ in g.edges() if is_bridge(g, a, b)}
        assert graphcore.bridges((a, b) for a, b, _ in g.edges()) == expected


def test_determinism_identical_runs():
    rng = np.random.default_rng(13)
    g = to_csr(random_graph(rng, n=25))
    a = [graphcore.shortest_path(g, "n000", n) for n in g.ids]
    b = [graphcore.shortest_path(g, "n000", n) for n in g.ids]
    assert a == b
