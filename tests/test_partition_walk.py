"""Differential test of the walk over graph partitions in
`contractads.graphic_functions._product` against the loop it replaced, kept
here as the reference: one term per graph partition, each with its own
G|_mask / I built by `quotient` and its own outer value.

The walk prunes a block of zero or unknown (None) weight with everything
below it and evaluates the outer factor once per labelled quotient; the loop
skips only the partition.  Both must give the same value, of the same Python
type, on every connected class with at most 6 vertices and on a seeded
relabelling of each: on the two Koszul pairings, on a pairing whose inner
factor weighs 0 on every 2-vertex block, on a star-inverse whose solve meets
unknown weights, and on a product with nonzero values throughout."""

import random

from contractads import clear_caches, graphic_functions as gf
from contractads.graphic_functions import GraphicFunction
from contractads.graphs import _partition_masks, cycle_graph, graph_partitions, quotient, relabel_graph


def loop_product(graph, outer, weight, mask, table, twins=None):
    """(outer * inner)(G|_mask), one partition at a time."""
    if outer.size_rule is not None:
        graded = gf._block_sums(graph, weight, mask, table, twins)
        return sum((outer.size_rule(k) * value for k, value in enumerate(graded) if value is not None), 0)
    total = 0
    for blocks in _partition_masks(graph, mask):
        term = 1
        for block in blocks:
            w = weight(block)
            if not w:
                break
            term = term * w
        else:
            total = total + outer._value(quotient(graph, blocks)) * term
    return total


def _functions():
    """Fresh instances, from the library's constructors, of the products
    whose outer factor is not a function of the vertex count."""
    phi = GraphicFunction.of_size("phi", gf._complex_block_factor)
    return {
        "Com*Lie": gf.convolve(gf.one_q_gf() * gf.mobius_gf(), gf.one_q_gf()),
        "hyper*grav": gf.convolve(gf.hyper_weighted_gf(), gf.grav_weighted_gf()),
        "wonderful_C*phi": gf.convolve(gf.wonderful_complex_gf(), phi),
        "starinv(hyper)": gf.star_inverse(gf.hyper_weighted_gf()),
        "hyper*hyper": gf.convolve(gf.hyper_weighted_gf(), gf.hyper_weighted_gf()),
    }


def _relabelled(graphs):
    rng = random.Random(20261022)
    return [relabel_graph(g, rng.sample(range(g.n), g.n)) for g in graphs]


def test_walk_matches_the_partition_loop(graphs_upto_6, monkeypatch):
    for graphs in (graphs_upto_6, _relabelled(graphs_upto_6)):
        with monkeypatch.context() as m:
            clear_caches()
            m.setattr(gf, "_product", loop_product)
            reference = _functions()
            want = {name: [fn(g) for g in graphs] for name, fn in reference.items()}
        clear_caches()
        for name, fn in _functions().items():
            for g, value in zip(graphs, want[name]):
                got = fn(g)
                assert got == value, (name, g)
                assert type(got) is type(value), (name, g, type(got), type(value))


def test_walk_evaluates_each_labelled_quotient_once():
    clear_caches()
    g = cycle_graph(6)
    hyper, seen = gf.hyper_weighted_gf(), []
    outer = GraphicFunction("counted hyper", hyper._evaluate)
    outer._value = lambda q: seen.append((q.n, q.adj_mask)) or hyper._value(q)
    weight, table = gf.grav_weighted_gf().tube_table(g)
    value = gf._product(g, outer, weight, g.full_mask(), table)
    assert value == loop_product(g, hyper, weight, g.full_mask(), table)
    quotients = {(q.n, q.adj_mask) for q in (quotient(g, blocks) for blocks in graph_partitions(g))}
    # the 58 partitions of C6 have 6 labelled quotients, one per block count
    assert sorted(seen) == sorted(quotients) and len(quotients) == 6
