"""Differential test of the tube table over twin classes in
`contractads.graphic_functions` against the subset recursion over vertex
masks it replaced, kept here as the reference: `mask_block_sums` and
`mask_solve` peel one tube at a time and key every table by the vertex mask.

The library keys its tables by the codes of count vectors on the twin
classes (see `contractads.graphs.Twins`).  Its graded block sums at the full
mask, and the star-inverse's value on every tube, must equal the reference
entry by entry, in value and in Python type: on every connected class with
at most 6 vertices, on a seeded relabelling of each, and on graphs with twin
classes of three or more vertices."""

import math
import random
import time

import pytest

from contractads import cli, clear_caches, graphic_functions as gf
from contractads.graphic_functions import GraphicFunction
from contractads.graphs import (
    TWIN_TABLE_MAX_STEPS,
    Graph,
    Twins,
    _bits,
    complete_graph,
    connected_subset_masks,
    multipartite_graph,
    path_graph,
    relabel_graph,
    star_graph,
    tube_masks,
)


def mask_block_sums(graph, weight, remaining, table):
    """Entry k: the sum over partitions of the mask `remaining` into k tubes
    of prod weight(B), or None if every such product is zero."""
    acc = table.get(remaining)
    if acc is not None:
        return acc
    acc = [None] * (bin(remaining).count("1") + 1)
    lowest = (remaining & -remaining).bit_length() - 1
    for block in connected_subset_masks(graph, remaining, lowest):
        w = weight(block)
        if not w:
            continue
        rest = remaining & ~block
        for k, value in enumerate(table.get(rest) or mask_block_sums(graph, weight, rest, table), 1):
            if value is not None:
                acc[k] = w * value if acc[k] is None else acc[k] + w * value
    table[remaining] = acc
    return acc


def mask_solve(f, graph):
    """The star-inverse of an outer factor of the vertex count on every tube
    mask of graph: (values, block-sum table)."""
    values = {1 << v: 1 for v in range(graph.n)}
    table = {0: [1]}
    for tube in sorted((t for t in tube_masks(graph) if t not in values), key=int.bit_count):
        graded = mask_block_sums(graph, values.get, tube, table)
        values[tube] = -sum((f.size_rule(k) * value for k, value in enumerate(graded) if value is not None), 0)
        if tube in table:
            table[tube][1] = values[tube]
    return values, table


def _size_functions():
    return {
        "phi": GraphicFunction.of_size("phi", gf._complex_block_factor),
        "1_q^odd": gf.one_q_odd_gf(),
        "1": gf.one_gf(),
    }


def _relabelled(graphs):
    rng = random.Random(20261020)
    return [relabel_graph(g, rng.sample(range(g.n), g.n)) for g in graphs]


def _blown_up_path():
    """P4 with each end replaced by three false twins: 0-2 and 5-7 are the
    ends, 3 and 4 the middle."""
    return Graph(8, [(end, 3) for end in range(3)] + [(3, 4)] + [(4, end) for end in range(5, 8)])


TWIN_GRAPHS = [multipartite_graph((3, 3, 2)), multipartite_graph((4, 3)), star_graph(7), _blown_up_path()]


def _same_lists(got, want, context):
    # None stands for a sum with no nonzero product.  Where every product it
    # meets is zero the mask recursion holds an explicit zero instead, and
    # which of the two depends on the vertex peeled first, not on the graph.
    assert len(got) == len(want), context
    for k, (a, b) in enumerate(zip(got, want)):
        if a is None or b is None:
            assert not a and not b, (context, k)
            continue
        assert a == b, (context, k)
        assert type(a) is type(b), (context, k, type(a), type(b))


def _compare(graphs):
    size_functions = _size_functions()
    for g in graphs:
        full = g.full_mask()
        for name, f in size_functions.items():
            weight = lambda tube, f=f: f.size_rule(tube.bit_count())
            got = gf._block_sums(g, weight, full, {0: [1]})
            _same_lists(got, mask_block_sums(g, weight, full, {0: [1]}), (name, g))
            # the star-inverse of the same factor; "1" gives mu
            values, table = mask_solve(f, g)
            weight, library_table = gf.star_inverse(f).tube_table(g)
            for tube in tube_masks(g):
                got, want = weight(tube), values[tube]
                assert got == want, (name, g, tube)
                assert type(got) is type(want), (name, g, tube, type(got), type(want))
            got = gf._block_sums(g, weight, full, library_table)
            _same_lists(got, mask_block_sums(g, values.get, full, table), ("starinv", name, g))


def test_block_sums_match_the_mask_recursion(graphs_upto_6):
    clear_caches()
    _compare(graphs_upto_6 + _relabelled(graphs_upto_6))


def test_block_sums_match_the_mask_recursion_on_large_twin_classes():
    clear_caches()
    _compare(TWIN_GRAPHS + _relabelled(TWIN_GRAPHS))


def test_named_functions_match_the_mask_recursion_on_large_twin_classes():
    # the wonderful series and mu, with values and types of a mask solve
    phi, odd = _size_functions()["phi"], gf.one_q_odd_gf()
    for g in TWIN_GRAPHS + _relabelled(TWIN_GRAPHS):
        clear_caches()
        full = g.full_mask()
        for fn, f in ((gf.wonderful_complex_gf(), phi), (gf.wonderful_real_gf(), odd), (gf.mobius_gf(), None)):
            if f is None:
                want = mask_solve(gf.one_gf(), g)[0][full]
            else:
                values, table = mask_solve(f, g)
                want = sum((value for value in mask_block_sums(g, values.get, full, table) if value is not None), 0)
            got = fn(g)
            assert got == want, (fn, g)
            if f is None:
                assert type(got) is type(want), (fn, g, type(got), type(want))


def test_twin_classes():
    # K[3,2] with vertex order 0-2, 3-4: two independent classes
    twins = Twins(multipartite_graph((3, 2)))
    assert twins.firsts == 0b01001 and twins.prefixes.keys() == {0, 3} and twins.cliques == 0
    assert twins.prefixes == {0: [0, 0b1, 0b11, 0b111], 3: [0, 0b1000, 0b11000]}
    # K4: one clique; St3: the core alone and the leaves
    assert Twins(complete_graph(4)).cliques == 1 and Twins(complete_graph(4)).firsts == 1
    assert Twins(star_graph(3)).firsts == 0b11 and list(Twins(star_graph(3)).prefixes) == [1]
    # P5 is twin-free: every vertex a first member, and every mask its own code
    twins = Twins(path_graph(5))
    assert twins.firsts == 0b11111 and not twins.prefixes and twins.canonical(0b10110) == 0b10110
    # the blown-up path: any two of the ends 0-2 are coded 0, 1, any two of 5-7 are 5, 6
    twins = Twins(_blown_up_path())
    assert twins.canonical(0b10100101) == 0b01100011 and twins.canonical(0b10100000) == 0b01100000


def test_block_counts_add_up_to_the_tubes():
    # through each first member v, the counts of the blocks on the tube codes
    # add up to the tubes of G that hold v and meet no class before v's
    for g in TWIN_GRAPHS + _relabelled(TWIN_GRAPHS):
        twins = Twins(g)
        full = g.full_mask()
        for v in _bits(twins.firsts):
            earlier = 0
            for u in _bits(twins.firsts & (1 << v) - 1):
                earlier |= twins.prefixes[u][-1] if u in twins.prefixes else 1 << u
            supports = [s for s in tube_masks(g, twins.firsts) if s & -s == 1 << v]
            counted = sum(count for _, count in twins.blocks(supports, full, v).values())
            assert counted == sum(1 for t in tube_masks(g) if t >> v & 1 and not t & earlier), (g, v)
        codes = twins.blocks(tube_masks(g, twins.firsts), full)
        assert len(codes) == len({twins.canonical(t) for t in tube_masks(g)})
        assert all(g.subset_connected(t) and twins.canonical(t) == t for t in codes)


def test_cli_hilbert_on_k40(capsys):
    # dim H^2 of the moduli space of stable genus-0 curves with 41 points
    clear_caches()
    start = time.perf_counter()
    assert cli.main(["hilbert", "--target", "complex", "--graph", "K40"]) == 0
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().out.startswith(f"1 + {2**40 - 821}*q + ")


def test_twin_table_over_its_cap_is_refused_before_any_table(capsys):
    parts = (2, 3, 4, 5, 6, 7, 8)
    steps = sum(parts) ** 3 * math.prod(math.comb(c + 2, 2) for c in parts)
    assert steps > TWIN_TABLE_MAX_STEPS
    with pytest.raises(ValueError, match=f"{steps:,}.*{TWIN_TABLE_MAX_STEPS:,}"):
        Twins(multipartite_graph(parts))
    start = time.perf_counter()
    assert cli.main(["hilbert", "--target", "complex", "--graph", "K[2,3,4,5,6,7,8]"]) == 2
    assert time.perf_counter() - start < 1
    assert f"{TWIN_TABLE_MAX_STEPS:,}" in capsys.readouterr().err



def test_the_estimate_counts_a_stars_leaves_once_each():
    # St_n's tube table grows like n^4 (n + 1 leaf counts), not n^5: St150 and
    # St200 are built; the K_lambda estimate, K[1, 200] = St200 aside, is unchanged
    for n in (150, 200):
        Twins(star_graph(n))
        Twins(multipartite_graph((1, n)))
    with pytest.raises(ValueError, match=f"{251**3 * 251 * 3:,}"):
        Twins(star_graph(250))
    with pytest.raises(ValueError, match=f"{202**3 * math.comb(4, 2) * math.comb(202, 2):,}"):
        Twins(multipartite_graph((2, 200)))
