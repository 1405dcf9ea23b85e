import random
import re
from itertools import permutations

import pytest

from contractads.graphs import (
    Graph,
    canonical_graph,
    complete_graph,
    cycle_graph,
    multipartite_graph,
    path_graph,
    relabel_graph,
    star_graph,
)
from contractads.graphic_functions import gerst_total_dim, mobius_gf
from contractads.trees import (
    enumerate_admissible_trees,
    enumerate_binary_trees,
    gcass_dimension,
    gccom_normal,
    gcgrav_normal_counts,
    gchyper_normal_counts,
    gclie_normal_count,
    nested_set_count,
    oracle_witness,
    stable_tree_count,
)

random.seed(4099)


# -- enumeration -----------------------------------------------------------------


def test_stable_tree_counts():
    assert stable_tree_count(path_graph(2)) == 1
    assert stable_tree_count(complete_graph(3)) == 4
    assert stable_tree_count(cycle_graph(4)) == 19


def test_stable_trees_match_nested_sets():
    for g in [path_graph(4), cycle_graph(4), complete_graph(4), star_graph(3),
              cycle_graph(5), path_graph(6), Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])]:
        assert stable_tree_count(g) == nested_set_count(g)


def test_admissibility_of_enumerated_trees():
    g = cycle_graph(4)
    for tree in enumerate_admissible_trees(g):
        for node in tree.internal_nodes():
            mask = sum(1 << v for v in node.leaves)
            assert g.subset_connected(mask)
            assert node.arity() >= 2


def test_tree_cap():
    # one vertex above the cap: refused before any enumeration
    with pytest.raises(ValueError, match="capped"):
        enumerate_admissible_trees(path_graph(9))


def test_disconnected_graph_is_rejected():
    g = Graph(3, [(0, 1)])
    for call in (
        enumerate_admissible_trees,
        enumerate_binary_trees,
        lambda g: gchyper_normal_counts(g, order=[0, 1, 2]),
        lambda g: gcgrav_normal_counts(g, order=[0, 1, 2]),
        lambda g: gclie_normal_count(g, order=[0, 1, 2]),
        gcass_dimension,
        gccom_normal,
    ):
        with pytest.raises(ValueError, match="connected"):
            call(g)


def test_binary_tree_counts():
    # for complete graphs every pairing scheme is admissible: (2n-3)!! trees
    assert len(enumerate_binary_trees(complete_graph(4))) == 15
    assert len(enumerate_binary_trees(complete_graph(5))) == 105
    assert len(enumerate_binary_trees(path_graph(4))) == 5  # Catalan C_3


# -- normal monomial counts ---------------------------------------------------------


def test_gclie_examples():
    assert gclie_normal_count(path_graph(3)) == 1
    assert gclie_normal_count(complete_graph(3)) == 2
    assert gclie_normal_count(cycle_graph(4)) == 3


def test_gclie_matches_mobius(graphs_upto_5):
    mu = mobius_gf()
    for g in graphs_upto_5:
        assert gclie_normal_count(g) == abs(mu(g))


def test_gchyper_examples():
    assert gchyper_normal_counts(complete_graph(4)) == [0, 1, 5, 1]
    assert gchyper_normal_counts(path_graph(2)) == [0, 1]
    assert gchyper_normal_counts(path_graph(3)) == [0, 1, 1]
    assert gchyper_normal_counts(path_graph(1)) == [1]


def test_gcgrav_examples():
    assert sum(gcgrav_normal_counts(path_graph(2))) == 1
    assert gerst_total_dim(path_graph(2)) == 2
    counts = gcgrav_normal_counts(complete_graph(3))
    assert 2 * sum(counts) == gerst_total_dim(complete_graph(3))


def test_gcass_examples():
    assert gcass_dimension(path_graph(3)) == 4
    assert gcass_dimension(complete_graph(3)) == 6


def test_counts_are_labeling_invariant(graphs_upto_5):
    mu = mobius_gf()
    for g in graphs_upto_5:
        if g.n < 3:
            continue
        lie = gclie_normal_count(g)
        hyper = gchyper_normal_counts(g)
        for _ in range(3):
            perm = random.sample(range(g.n), g.n)
            h = relabel_graph(g, perm)
            assert gclie_normal_count(h) == lie
            assert gchyper_normal_counts(h) == hyper


def test_explicit_order_surface():
    # the literal single-order count on the standard labelling
    assert gclie_normal_count(complete_graph(3), order=[0, 1, 2]) == 2
    # a bad ordering may overcount but never undercounts
    g = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert gclie_normal_count(g, order=[0, 1, 2, 3]) >= gclie_normal_count(g)
    with pytest.raises(ValueError):
        gclie_normal_count(g, order=[0, 1, 2])


def test_explicit_order_hyper_and_grav():
    g = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    orders = [list(p) for p in permutations(range(4))]
    hyper_min = sum(gchyper_normal_counts(g))
    hyper = [sum(gchyper_normal_counts(g, order=o)) for o in orders]
    assert min(hyper) == hyper_min < max(hyper)
    grav_min = sum(gcgrav_normal_counts(g))
    overcounts = 0
    for o in orders:
        try:
            counts = gcgrav_normal_counts(g, order=o)
        except AssertionError as exc:
            # an overcount breaks the 2*count = dim gcGerst check
            overcounts += 1
            assert int(re.search(r"normal count (\d+)", str(exc)).group(1)) > grav_min
        else:
            assert sum(counts) >= grav_min
    assert 0 < overcounts < len(orders)
    for oracle in (gchyper_normal_counts, gcgrav_normal_counts):
        with pytest.raises(ValueError):
            oracle(g, order=[0, 1, 2])


# -- which order won -----------------------------------------------------------------


def test_witness_convention_on_k33_and_k222():
    # the "min" convention overcounts there under every ordering
    for parts in ([3, 3], [2, 2, 2]):
        assert oracle_witness(multipartite_graph(parts), "hyper")[1] == "max"


def test_min_witness_reproduces_counts():
    g = relabel_graph(cycle_graph(5), [3, 0, 4, 1, 2])
    h = canonical_graph(g)
    for kind, oracle in (
        ("lie", gclie_normal_count),
        ("hyper", gchyper_normal_counts),
        ("grav", gcgrav_normal_counts),
    ):
        order, convention = oracle_witness(g, kind)
        assert convention == "min"
        assert oracle(h, order=order) == oracle(g)
    with pytest.raises(ValueError, match="unknown oracle"):
        oracle_witness(g, "ass")


# -- the comb monomial ------------------------------------------------------------------


def test_gccom_normal_comb():
    g = path_graph(4)
    comb = gccom_normal(g)
    # leaves appear in adjacency order starting from the minimal vertex
    assert repr(comb) == "(((0,1),2),3)"
    st = star_graph(3)
    comb2 = gccom_normal(st)
    assert comb2.leaves == frozenset(range(4))
    for node in comb2.internal_nodes():
        assert node.arity() == 2
        assert st.subset_connected(sum(1 << v for v in node.leaves))


def test_gccom_respects_order():
    g = path_graph(3)
    comb = gccom_normal(g, order=[2, 1, 0])
    # growth starts at vertex 2, so the deepest pair is {1, 2}
    leafsets = sorted((node.leaves for node in comb.internal_nodes()), key=len)
    assert leafsets == [frozenset({1, 2}), frozenset({0, 1, 2})]
