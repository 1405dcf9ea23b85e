"""Differential test of the mask kernel in `contractads.trees` against the
tree-by-tree normality predicates it replaced, kept here as the reference
oracle.  The reference walks `AdmissibleTree` objects and their frozenset
leaf sets and re-sorts children for every check."""

from contractads.graphs import Graph
from contractads.trees import (
    _ORACLES,
    AdmissibleTree,
    _bfs_order,
    _min_ranks,
    _non_normal,
    _rank_array,
    _tree_store,
    enumerate_admissible_trees,
    enumerate_binary_trees,
    search_orders,
)


def _is_tube(g: Graph, vertices: frozenset[int]) -> bool:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return g.subset_connected(mask)


# min ranks of the cells seen under the current ranking, cleared whenever
# the ranking changes
_min_rank_memo: dict[AdmissibleTree, int] = {}


def _min_rank(cell: AdmissibleTree, rank: list[int]) -> int:
    found = _min_rank_memo.get(cell)
    if found is None:
        found = _min_rank_memo[cell] = min(rank[v] for v in cell.leaves)
    return found


def _sorted_children(node: AdmissibleTree, rank: list[int]) -> list[AdmissibleTree]:
    return sorted(node.children, key=lambda t: _min_rank(t, rank))


def _lie_tree_normal(g, tree, rank, maxnbr=False) -> bool:
    for node in tree.internal_nodes():
        first, second = _sorted_children(node, rank)
        if first.is_leaf():
            continue
        l1, l2 = _sorted_children(first, rank)
        if not _is_tube(g, l1.leaves | second.leaves):
            return False
        if maxnbr:
            if _min_rank(second, rank) <= _min_rank(l2, rank):
                return False
        elif _min_rank(l2, rank) <= _min_rank(second, rank):
            return False
    return True


def _hyper_tree_normal(g, tree, rank, maxnbr=False) -> bool:
    for v in tree.internal_nodes():
        for w in v.children:
            if w.is_leaf() or w.arity() != 2:
                continue
            tau1, tau2 = _sorted_children(w, rank)
            r1 = _min_rank(tau1, rank)
            r2 = _min_rank(tau2, rank)
            for sibling in v.children:
                if sibling is w:
                    continue
                rs = _min_rank(sibling, rank)
                if rs < r1:
                    return False
                bad = rs > r2 if maxnbr else rs < r2
                if bad and _is_tube(g, sibling.leaves | tau1.leaves):
                    return False
    return True


def _grav_tree_normal(g, tree, rank, maxnbr=False) -> bool:
    for v in tree.internal_nodes():
        for w in v.children:
            if w.is_leaf():
                continue
            if w.arity() != 2:
                return False
            tau1, tau2 = _sorted_children(w, rank)
            cells = [tau1, tau2] + [s for s in v.children if s is not w]
            cells.sort(key=lambda t: _min_rank(t, rank))
            a = cells[0]
            neighbour_ranks = [
                _min_rank(c, rank) for c in cells[1:] if _is_tube(g, c.leaves | a.leaves)
            ]
            if not neighbour_ranks:
                raise AssertionError("contracted pattern graph must be connected")
            chosen = max(neighbour_ranks) if maxnbr else min(neighbour_ranks)
            pair = {_min_rank(a, rank), chosen}
            if pair == {_min_rank(tau1, rank), _min_rank(tau2, rank)}:
                return False
    return True


REFERENCE = {"lie": _lie_tree_normal, "hyper": _hyper_tree_normal, "grav": _grav_tree_normal}


def _assert_verdicts_match(g: Graph, orders) -> None:
    trees = {True: enumerate_binary_trees(g), False: enumerate_admissible_trees(g)}
    for kind, (binary, rule) in _ORACLES.items():
        store = _tree_store(g, binary)
        for order in orders:
            rank = _rank_array(g, order)
            _min_rank_memo.clear()
            for maxnbr, bad in zip((False, True), _non_normal(store, _min_ranks(rank), rule)):
                kernel = [not bad >> t & 1 for t in range(len(trees[binary]))]
                reference = [REFERENCE[kind](g, tree, rank, maxnbr) for tree in trees[binary]]
                assert kernel == reference, (kind, g, order, maxnbr)


def test_min_rank_table():
    rank = [2, 0, 3, 1]
    table = _min_ranks(rank)
    for mask in range(1, 16):
        assert table[mask] == min(rank[v] for v in range(4) if mask >> v & 1)


def test_kernel_matches_reference_on_every_search_order(graphs_upto_5):
    for g in graphs_upto_5:
        _assert_verdicts_match(g, search_orders(g))


def test_kernel_matches_reference_on_six_vertices(graphs_upto_6):
    six = [g for g in graphs_upto_6 if g.n == 6]
    assert len(six) == 112
    for g in six:
        _assert_verdicts_match(g, [list(range(6)), _bfs_order(g, 0, False)])
