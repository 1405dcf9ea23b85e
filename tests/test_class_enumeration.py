"""`connected_graphs_upto` grows each vertex count from the classes of the
one below; the sweep over every labelled graph it replaced is kept here as
the reference."""

from collections import Counter

from contractads.graphs import _from_pair_mask, canonical_key, connected_graphs_upto

# OEIS A001349: connected graphs on 1..7 vertices up to isomorphism
CONNECTED_CLASSES = [1, 1, 2, 6, 21, 112, 853]


def _labelled_sweep_keys(n: int) -> dict[int, set[tuple]]:
    """The canonical keys of the connected graphs on each k <= n vertices,
    found by canonicalising every connected labelled graph on k vertices."""
    keys: dict[int, set[tuple]] = {}
    for k in range(1, n + 1):
        keys[k] = set()
        for pairs in range(1 << k * (k - 1) // 2):
            g = _from_pair_mask(k, pairs)
            if g.is_connected():
                keys[k].add(canonical_key(g))
    return keys


def test_matches_labelled_sweep_up_to_six_vertices():
    grown: dict[int, set[tuple]] = {k: set() for k in range(1, 7)}
    for g in connected_graphs_upto(6):
        grown[g.n].add(canonical_key(g))
    assert grown == _labelled_sweep_keys(6)


def test_seven_vertices():
    classes = connected_graphs_upto(7)
    sizes = [g.n for g in classes]
    assert sizes == sorted(sizes), "classes are not grouped by ascending vertex count"
    assert [Counter(sizes)[k] for k in range(1, 8)] == CONNECTED_CLASSES
    assert all(g.is_connected() for g in classes)
    assert len({canonical_key(g) for g in classes}) == len(classes)


def test_no_vertices():
    assert connected_graphs_upto(0) == []
    assert connected_graphs_upto(-1) == []
