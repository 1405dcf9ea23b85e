"""Differential tests of the trusted graph construction.

`Graph(n, edges)` validates what enters from outside; everything the library
derives from a valid graph is built from neighbour masks by
`Graph._from_masks`, unchecked.  These tests hold the trusted path to the
validating one and to the edge lists, pin the canonical keys to the edge-set
brute force that the mask search replaced (kept here as the reference), and
check that the convolution kernels validate no graph while they evaluate."""

import itertools
import random

import pytest

from contractads import clear_caches, graphic_functions as gf
from contractads import graphs
from contractads.graphs import (
    Graph,
    canonical_key,
    complete_graph,
    cycle_graph,
    graph_partitions,
    path_graph,
    quotient,
    relabel_graph,
    subgraph,
)


def _labelled_graphs(max_vertices):
    """Every labelled graph with 1..max_vertices vertices, as (n, sorted edges)."""
    for n in range(1, max_vertices + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            yield n, [p for i, p in enumerate(pairs) if bits >> i & 1]


def _assert_is_graph(g, n, edges):
    """g, its trusted rebuild from masks and the validated Graph(n, edges) all
    are the graph on n vertices with exactly these edges (pairs u < v)."""
    validated = Graph(n, sorted(edges))
    edge_set = frozenset(edges)
    for h in (g, Graph._from_masks(n, g.adj_mask), validated):
        assert h == validated and validated == h
        assert hash(h) == hash(validated)
        assert h.n == n
        assert h.edges == edge_set
        assert h.m == len(edge_set)
        assert [h.degree(v) for v in range(n)] == [sum(v in e for e in edge_set) for v in range(n)]
        for u, v in itertools.product(range(n), repeat=2):
            assert h.has_edge(u, v) == ((min(u, v), max(u, v)) in edge_set)
        assert repr(h) == f"Graph(n={n}, edges={sorted(edge_set)})"


def test_masks_match_edge_lists_on_labelled_graphs():
    for n, edges in _labelled_graphs(5):
        rows = [0] * n
        for u, v in edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        _assert_is_graph(Graph._from_masks(n, tuple(rows)), n, edges)


def test_classes_and_relabellings_match_validated_graphs(graphs_upto_6):
    rng = random.Random(20261018)
    for g in graphs_upto_6:
        _assert_is_graph(g, g.n, g.edges)
        perm = rng.sample(range(g.n), g.n)
        relabelled = {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges}
        _assert_is_graph(relabel_graph(g, perm), g.n, relabelled)


def test_relabel_refuses_a_non_permutation():
    with pytest.raises(ValueError, match="permutation"):
        relabel_graph(path_graph(3), [0, 0, 1])


def test_quotients_match_their_definition(graphs_upto_5):
    for g in graphs_upto_5:
        for blocks in graph_partitions(g):
            joined = [
                (i, j)
                for i, j in itertools.combinations(range(len(blocks)), 2)
                if any(blocks[i] >> u & 1 and blocks[j] >> v & 1 or blocks[i] >> v & 1 and blocks[j] >> u & 1
                       for u, v in g.edges)
            ]
            _assert_is_graph(quotient(g, blocks), len(blocks), joined)
            for b in blocks:
                verts = [v for v in range(g.n) if b >> v & 1]
                inside = [(verts.index(u), verts.index(v)) for u, v in g.edges if u in verts and v in verts]
                _assert_is_graph(subgraph(g, b), len(verts), inside)


def test_kernels_validate_no_graph(monkeypatch):
    clear_caches()
    functions = [
        gf.mobius_gf(),
        gf.wonderful_complex_gf(),
        gf.convolve(gf.hyper_weighted_gf(), gf.grav_weighted_gf()),
    ]
    inputs = [complete_graph(6), cycle_graph(6)]

    def refuse(self, *args, **kwargs):
        raise AssertionError("Graph.__init__ called while evaluating")

    monkeypatch.setattr(Graph, "__init__", refuse)
    with pytest.raises(AssertionError, match="evaluating"):
        path_graph(2)
    for fn in functions:
        for g in inputs:
            fn(g)


# -- the edge-set canonical search, as the reference ------------------------------


def _reference_refine_colors(n, adj):
    colors = [len(adj[v]) for v in range(n)]
    while True:
        signatures = [(colors[v], tuple(sorted(colors[w] for w in adj[v]))) for v in range(n)]
        palette = {s: i for i, s in enumerate(sorted(set(signatures)))}
        new = [palette[s] for s in signatures]
        if new == colors:
            return colors
        colors = new


def _reference_orderings_by_class(classes):
    pools = [list(itertools.permutations(c)) for c in classes]
    for combo in itertools.product(*pools):
        order = []
        for part in combo:
            order.extend(part)
        yield order


def _reference_search(n, edges):
    """Colour refinement over neighbour sets, then the least adjacency mask
    over the orderings within refinement classes, each edge's bit read from
    a pair-index table."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    by_color = {}
    for v, c in enumerate(_reference_refine_colors(n, adj)):
        by_color.setdefault(c, []).append(v)
    classes = [by_color[c] for c in sorted(by_color)]
    pair = {p: k for k, p in enumerate(itertools.combinations(range(n), 2))}
    best = None
    for order in _reference_orderings_by_class(classes):
        pos = [0] * n
        for slot, v in enumerate(order):
            pos[v] = slot
        mask = 0
        for u, v in edges:
            a, b = pos[u], pos[v]
            mask |= 1 << pair[(a, b) if a < b else (b, a)]
        if best is None or mask < best:
            best = mask
    return best


def test_canonical_search_matches_edge_set_reference(graphs_upto_6):
    rng = random.Random(20261018)
    cases = list(_labelled_graphs(5))
    for g in graphs_upto_6:
        if g.n == 6:
            cases.append((6, sorted(g.edges)))
            cases.append((6, sorted(relabel_graph(g, rng.sample(range(6), 6)).edges)))
    generic = 0
    for n, edges in cases:
        g = Graph(n, edges)
        want = _reference_search(n, edges)
        assert graphs._min_adjacency_mask(g) == want, (n, edges)
        key = canonical_key(g)
        if key[0] == "g":
            generic += 1
            assert key == ("g", n, want), (n, edges)
    assert generic > 200


# the two fixed generic inputs of the benchmark's hilbert_queries workload,
# on which colour refinement leaves a single class
CUBE_Q3 = [(0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3), (2, 6), (3, 7), (4, 5), (4, 6), (5, 7), (6, 7)]
CIRCULANT_C7_12 = sorted({tuple(sorted((i, (i + d) % 7))) for i in range(7) for d in (1, 2)})


def test_pruned_search_matches_reference_on_seven_vertices():
    rng = random.Random(20261019)
    seven = [g for g in graphs.connected_graphs_upto(7) if g.n == 7]
    assert len(seven) == 853
    cases = [(7, sorted(g.edges)) for g in seven]
    cases += [(7, sorted(relabel_graph(g, rng.sample(range(7), 7)).edges)) for g in seven]
    cases += [(8, CUBE_Q3), (7, CIRCULANT_C7_12)]
    for n, edges in cases:
        assert graphs._min_adjacency_mask(Graph(n, edges)) == _reference_search(n, edges), (n, edges)
