import math
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from contractads.qpoly import QPoly
from contractads.graphs import (
    Graph,
    canonical_graph,
    canonical_key,
    chromatic_polynomial,
    complete_graph,
    complete_multipartite_parts,
    connected_graphs_upto,
    connected_subset_masks,
    contract,
    contract_tube,
    count_acyclic_orientations,
    cycle_graph,
    enumerate_tubes,
    family_graph,
    graph_from_graph6,
    graph_from_text,
    graph_partitions,
    graph_to_text,
    induced_subgraph,
    multipartite_graph,
    path_graph,
    quotient,
    relabel_graph,
    star_graph,
    subgraph,
)

random.seed(20240817)


# -- construction and families ---------------------------------------------------


def test_family_graphs():
    p3 = family_graph("path", 3)
    assert p3.n == 3 and p3.edges == frozenset({(0, 1), (1, 2)})
    st3 = family_graph("star", 3)
    assert st3.degree(0) == 3
    with pytest.raises(ValueError):
        family_graph("cycle", 2)
    with pytest.raises(ValueError):
        family_graph("multipartite", (3,))  # disconnected request


def test_multipartite_recognition():
    assert canonical_key(multipartite_graph((2, 2))) == canonical_key(cycle_graph(4))
    assert canonical_key(multipartite_graph((3, 1))) == canonical_key(star_graph(3))
    assert canonical_key(complete_graph(4)) == ("K", (1, 1, 1, 1))
    assert complete_multipartite_parts(path_graph(4)) is None
    assert complete_multipartite_parts(multipartite_graph((3, 2, 1))) == (3, 2, 1)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 5)])


# -- tubes and partitions ------------------------------------------------------------


def test_tubes_of_path():
    tubes = enumerate_tubes(path_graph(3))
    assert len(tubes) == 6
    assert frozenset({0, 2}) not in tubes
    assert frozenset({0, 1, 2}) in tubes


def test_connected_subset_masks_match_brute_force(graphs_upto_5):
    for g in graphs_upto_5:
        for within in range(1, 1 << g.n):
            subsets = [m for m in range(1, within + 1) if m & within == m and g.subset_connected(m)]
            for v in range(g.n):
                if within >> v & 1:
                    want = [m for m in subsets if m >> v & 1]
                    assert connected_subset_masks(g, within, v) == want, (g, within, v)


def brute_force_partitions(g):
    """Oracle: all set partitions, filtered to tube blocks."""

    def set_partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in set_partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [part[i] + [first]] + part[i + 1 :]
            yield [[first]] + part

    count = 0
    for part in set_partitions(list(range(g.n))):
        if all(g.subset_connected(sum(1 << v for v in block)) for block in part):
            count += 1
    return count


@pytest.mark.parametrize("n", range(1, 8))
def test_path_partition_count(n):
    got = sum(1 for _ in graph_partitions(path_graph(n)))
    assert got == 2 ** (n - 1)
    assert got == brute_force_partitions(path_graph(n))


BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


@pytest.mark.parametrize("n", range(1, 7))
def test_complete_partition_count(n):
    got = sum(1 for _ in graph_partitions(complete_graph(n)))
    assert got == BELL[n]
    assert got == brute_force_partitions(complete_graph(n))


def test_partition_count_eight_vertices():
    # one big instance per family, against the set-partition oracle
    assert sum(1 for _ in graph_partitions(path_graph(8))) == 2**7
    assert sum(1 for _ in graph_partitions(complete_graph(8))) == BELL[8]


def test_partitions_of_p3():
    assert sum(1 for _ in graph_partitions(path_graph(3))) == 4


# -- contraction -----------------------------------------------------------------------


def test_contract_edge_of_c4():
    g = cycle_graph(4)
    assert canonical_key(contract_tube(g, {1, 2})) == canonical_key(complete_graph(3))


def test_contract_multipartite_stays_multipartite():
    g = multipartite_graph((2, 2))
    contracted = contract_tube(g, {0, 2})  # a cross-block edge
    assert complete_multipartite_parts(contracted) == (1, 1, 1)
    for tube in enumerate_tubes(g):
        if len(tube) in (1, g.n):
            continue
        assert complete_multipartite_parts(contract_tube(g, tube)) is not None
        assert complete_multipartite_parts(induced_subgraph(g, tube)) is not None


def test_contract_all_singletons_is_identity():
    g = cycle_graph(5)
    partition = [frozenset([v]) for v in range(5)]
    assert contract(g, partition) == g


def test_contract_rejects_non_tube():
    g = path_graph(4)
    with pytest.raises(ValueError):
        contract_tube(g, {0, 2})


def test_contraction_block_adjacency():
    # blocks adjacent in the quotient iff their union is a tube
    g = cycle_graph(5)
    for blocks in graph_partitions(g):
        contracted = quotient(g, blocks)
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                union_is_tube = g.subset_connected(blocks[i] | blocks[j])
                assert contracted.has_edge(i, j) == union_is_tube


def _vertex_sets(blocks):
    return [[v for v in range(mask.bit_length()) if mask >> v & 1] for mask in blocks]


def test_quotient_is_validated_contraction(graphs_upto_5):
    for g in graphs_upto_5:
        for blocks in graph_partitions(g):
            assert list(blocks) == sorted(blocks, key=lambda b: b & -b)
            assert quotient(g, blocks) == contract(g, _vertex_sets(blocks))
            for b in blocks:
                assert subgraph(g, b) == induced_subgraph(g, _vertex_sets([b])[0])


def test_contract_rejects_non_partitions():
    g = path_graph(4)
    for partition in (
        [[0, 1], [2]],  # does not cover
        [[0, 1], [1, 2, 3]],  # overlaps
        [[0, 1], [], [2, 3]],  # empty block
        [[0, 1], [2, 3, 4]],  # out of range
        [[0, 2], [1], [3]],  # not a tube
    ):
        with pytest.raises(ValueError):
            contract(g, partition)
    with pytest.raises(ValueError):
        induced_subgraph(g, [2, 4])


# -- canonical keys ----------------------------------------------------------------------


def _labelled_graphs(max_vertices):
    for n in range(1, max_vertices + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def test_canonical_key_invariant_under_relabeling(graphs_upto_5):
    for g in graphs_upto_5:
        key = canonical_key(g)
        for _ in range(20):
            perm = random.sample(range(g.n), g.n)
            assert canonical_key(relabel_graph(g, perm)) == key


def test_canonical_key_on_disconnected_graphs():
    rng = random.Random(20261018)
    classes = {n: set() for n in range(1, 7)}
    for g in _labelled_graphs(6):
        if g.is_connected():
            continue
        key = canonical_key(g)
        assert canonical_key(relabel_graph(g, rng.sample(range(g.n), g.n))) == key
        classes[g.n].add(key)
    # disconnected graphs up to isomorphism: A000088 minus A001349
    assert [len(classes[n]) for n in range(1, 7)] == [0, 1, 2, 5, 13, 44]


def test_canonical_graph_refuses_disconnected_graphs():
    with pytest.raises(ValueError, match="connected"):
        canonical_graph(Graph(4, [(0, 1), (2, 3)]))


def test_canonical_graph_is_isomorphic_representative():
    g = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    rep = canonical_graph(g)
    assert canonical_key(rep) == canonical_key(g)
    assert rep == canonical_graph(rep)


def test_canonical_key_cap():
    # a generic 13-vertex graph, one above the cap: refused before any search
    cycle = [(i, (i + 1) % 13) for i in range(13)]
    g = Graph(13, cycle + [(0, 3), (1, 4)])
    with pytest.raises(ValueError, match="family"):
        canonical_key(g)
    # families are recognised structurally and immune to the cap
    assert canonical_key(path_graph(30)) == ("P", 30)
    assert canonical_key(cycle_graph(25)) == ("C", 25)
    assert canonical_key(multipartite_graph((9, 8, 3))) == ("K", (9, 8, 3))


def _circulant(n, steps):
    return Graph(n, sorted({(min(i, (i + d) % n), max(i, (i + d) % n)) for i in range(n) for d in steps}))


def test_canonical_key_on_symmetric_graphs():
    # one refinement class each, with 120, 22 and 1,440 automorphisms
    petersen = Graph(10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                     + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    crown = Graph(12, [(i, 6 + j) for i in range(6) for j in range(6) if i != j])
    rng = random.Random(20261019)
    for g in (petersen, _circulant(11, (1, 2)), crown):
        key = canonical_key(g)
        assert key[:2] == ("g", g.n)
        for _ in range(3):
            assert canonical_key(relabel_graph(g, rng.sample(range(g.n), g.n))) == key
        rep = canonical_graph(g)
        assert canonical_key(rep) == key
        assert canonical_graph(rep) == rep


# -- chromatic polynomial, acyclic orientations ---------------------------------------------


def coloring_count(g, colors):
    """Proper colourings with the given number of colours, counted by giving
    vertices 0, 1, ... in turn each colour that no earlier neighbour has."""
    earlier = [[u for u in range(v) if g.has_edge(u, v)] for v in range(g.n)]
    colour = []

    def extend():
        v = len(colour)
        if v == g.n:
            return 1
        total = 0
        for c in range(colors):
            if all(colour[u] != c for u in earlier[v]):
                colour.append(c)
                total += extend()
                colour.pop()
        return total

    return extend()


@pytest.mark.parametrize(
    "g",
    [path_graph(1), path_graph(3), complete_graph(3), cycle_graph(4), star_graph(3),
     Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])],
)
def test_chromatic_against_coloring_oracle(g):
    chi = chromatic_polynomial(g)
    for k in range(0, g.n + 2):
        assert chi.substitute(k) == coloring_count(g, k)


def test_chromatic_on_every_labelled_graph():
    # disconnected graphs included: they multiply over their components
    for g in _labelled_graphs(5):
        chi = chromatic_polynomial(g)
        for k in range(g.n + 1):
            assert chi.substitute(k) == coloring_count(g, k), (g, k)


def test_chromatic_of_long_path():
    # the sweep's frontier along a path is one vertex
    q = QPoly.q()
    assert chromatic_polynomial(path_graph(30)) == q * (q - 1) ** 29


def _deletion_contraction(g, memo):
    """chi by deletion-contraction of the lowest edge, memoised in `memo` on
    the labelled graph: an oracle for the frontier sweep that shares none
    of its code."""
    key = (g.n, g.adj_mask)
    if key not in memo:
        if not g.m:
            memo[key] = QPoly.q(g.n)
        else:
            u, v = min(g.edges)
            deleted = Graph(g.n, g.edges - {(u, v)})
            contracted = contract(g, [{u, v}] + [{w} for w in range(g.n) if w not in (u, v)])
            memo[key] = _deletion_contraction(deleted, memo) - _deletion_contraction(contracted, memo)
    return memo[key]


def test_chromatic_matches_deletion_contraction_on_every_class():
    # every connected class with at most 7 vertices, and a relabelling of each
    rng = random.Random(20261020)
    memo = {}
    classes = connected_graphs_upto(7)
    assert len(classes) == 996
    for g in classes:
        h = relabel_graph(g, rng.sample(range(g.n), g.n))
        assert chromatic_polynomial(g) == _deletion_contraction(g, memo), g
        assert chromatic_polynomial(h) == _deletion_contraction(h, memo), h


def test_chromatic_of_relabelled_path_and_large_complete_graph():
    # the maximum-cardinality-search order keeps a relabelled path's frontier
    # to at most its two ends; chi of K_14 is the falling factorial of length 14
    q = QPoly.q()
    perm = random.Random(30).sample(range(30), 30)
    assert chromatic_polynomial(relabel_graph(path_graph(30), perm)) == q * (q - 1) ** 29
    falling = QPoly.one()
    for k in range(14):
        falling = falling * (q - k)
    assert chromatic_polynomial(complete_graph(14)) == falling


def test_chromatic_of_complete_bipartite_graphs():
    # chi(K[m, n]) = sum_k S(m, k) q (q - 1) ... (q - k + 1) (q - k)^n: the
    # k colours of the first side, the rest for the second.  Twins are placed
    # in one run, which keeps K[8, 8] to a fraction of a second; K[11, 1] is
    # a star whose leaves are numbered first, and its core must still come
    # first (eleven leaves on the frontier would be Bell(11) states)
    q = QPoly.q()

    def stirling2(m, k):
        return sum((-1) ** (k - j) * math.comb(k, j) * j**m for j in range(k + 1)) // math.factorial(k)

    for m, n in [(1, 1), (2, 3), (3, 2), (4, 4), (5, 3), (8, 8), (11, 1)]:
        want, falling = QPoly.zero(), QPoly.one()
        for k in range(1, m + 1):
            falling = falling * (q - (k - 1))
            want = want + stirling2(m, k) * falling * (q - k) ** n
        start = time.perf_counter()
        assert chromatic_polynomial(multipartite_graph((m, n))) == want, (m, n)
        assert time.perf_counter() - start < 3, (m, n)


def test_chromatic_examples():
    q = QPoly.q()
    assert chromatic_polynomial(complete_graph(3)) == q * (q - 1) * (q - 2)
    assert chromatic_polynomial(path_graph(1)) == q
    c4 = chromatic_polynomial(cycle_graph(4))
    assert c4 == (q - 1) ** 4 + (q - 1)


def test_acyclic_orientations():
    assert count_acyclic_orientations(complete_graph(4)) == 24
    assert count_acyclic_orientations(cycle_graph(4)) == 14
    assert count_acyclic_orientations(path_graph(4)) == 8


# -- text formats ----------------------------------------------------------------------------


def test_text_roundtrip():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert graph_from_text(graph_to_text(g)) == g


def test_text_rejects_bad_input():
    with pytest.raises(ValueError):
        graph_from_text("3\n0 1")
    with pytest.raises(ValueError):
        graph_from_text("n=3\n0 0")
    with pytest.raises(ValueError):
        graph_from_text("n=3\n0 7")
    with pytest.raises(ValueError):
        graph_from_text("n=3\n0 1\n0 1")


def test_graph6_decode():
    # standard examples: 'D?{' is a 5-vertex graph; spot-check C_5 written as 'DqK'
    g = graph_from_graph6("Bw")  # triangle K_3
    assert canonical_key(g) == canonical_key(complete_graph(3))
    g5 = graph_from_graph6("D~{")  # K_5
    assert canonical_key(g5) == canonical_key(complete_graph(5))
    with pytest.raises(ValueError):
        graph_from_graph6("")
    with pytest.raises(ValueError):
        graph_from_graph6("\x01bad")
