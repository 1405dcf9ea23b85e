"""Differential test of the block-mask partition sum in
`contractads.graphic_functions` against the frozenset kernel it replaced,
kept here as the reference: the Schmitt product, the star-inverse and the two
wonderful recurrences as loops over frozenset graph partitions, each term
built with the validating `contract` and `induced_subgraph`.

The named functions are built from the library's own constructors, once
with the four kernels swapped for the reference and twice as they are; the
library instances must agree with the reference in value and in Python type
on every connected class with at most 6 vertices and, with fresh memos, on a
seeded relabelling of each.  Products and inverses of functions of the
vertex count alone take the library's block-count table instead of the
partition loop, so both paths are held to the same reference."""

import random
from fractions import Fraction

from contractads import clear_caches, graphic_functions as gf
from contractads.graphic_functions import GraphicFunction
from contractads.graphs import contract, induced_subgraph, relabel_graph, subgraph, tube_masks
from contractads.qpoly import QPoly


def _frozenset_partitions(g):
    """Every set partition of the vertices whose blocks are all tubes."""

    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [part[i] | {first}] + part[i + 1 :]
            yield [frozenset([first])] + part

    for part in partitions(list(range(g.n))):
        if all(g.subset_connected(sum(1 << v for v in block)) for block in part):
            yield tuple(part)


def ref_convolve(f, g):
    def evaluate(graph):
        total = None
        for blocks in _frozenset_partitions(graph):
            term = f(contract(graph, blocks))
            for block in blocks:
                term = term * g(induced_subgraph(graph, block))
            total = term if total is None else total + term
        return total

    return GraphicFunction(f"({f.name}*{g.name})", evaluate)


def ref_star_inverse(f):
    inverse = GraphicFunction(f"starinv({f.name})", lambda g: None)

    def evaluate(graph):
        if graph.n == 1:
            return 1
        acc = -f(graph)
        for blocks in _frozenset_partitions(graph):
            if len(blocks) == 1 or len(blocks) == graph.n:
                continue
            term = f(contract(graph, blocks))
            for block in blocks:
                term = term * inverse(induced_subgraph(graph, block))
            acc = acc - term
        return acc

    inverse._evaluate = evaluate
    return inverse


def _ref_wonderful(name, odd_only, weight):
    fn = GraphicFunction(name, lambda g: None)

    def evaluate(g):
        if g.n == 1:
            return QPoly.one()
        acc = QPoly.one()
        for blocks in _frozenset_partitions(g):
            if len(blocks) == g.n or (odd_only and any(len(b) % 2 == 0 for b in blocks)):
                continue
            acc = acc - fn(contract(g, blocks)) * weight(g, blocks)
        return acc

    fn._evaluate = evaluate
    return fn


def ref_wonderful_complex():
    def factor(g, blocks):
        out = QPoly.one()
        for b in blocks:
            out = out * gf._complex_block_factor(len(b))
        return out

    return _ref_wonderful("wonderful_C", False, factor)


def ref_wonderful_real():
    return _ref_wonderful("wonderful_R", True, lambda g, blocks: QPoly.q((g.n - len(blocks)) // 2))


def _named_functions():
    """Fresh instances of every function under test, from the library's own
    constructors (whichever kernels `gf` holds at the time)."""
    mu = gf.mobius_gf()
    return {
        "mu": mu,
        "chromatic": gf.chromatic_gf(),
        "gerst": gf.gerst_hilbert_gf(),
        "wonderful_C": gf.wonderful_complex_gf(),
        "wonderful_R": gf.wonderful_real_gf(),
        "hyper": gf.hyper_weighted_gf(),
        "grav": gf.grav_weighted_gf(),
        "Com*Lie": gf.convolve(gf.one_q_gf() * mu, gf.one_q_gf()),
        "hyper*grav": gf.convolve(gf.hyper_weighted_gf(), gf.grav_weighted_gf()),
        "eps*eps": gf.convolve(gf.unit_gf(), gf.unit_gf()),
        "1_(1/2)*mu": gf.convolve(gf.one_param_gf(Fraction(1, 2)), mu),
        "1_q*1": gf.convolve(gf.one_q_gf(), gf.one_gf()),
        "starinv(1_q)": gf.star_inverse(gf.one_q_gf()),
        "starinv(eps)": gf.star_inverse(gf.unit_gf()),
        "starinv(hyper)": gf.star_inverse(gf.hyper_weighted_gf()),
    }


def _relabelled(graphs):
    rng = random.Random(20260518)
    return [relabel_graph(g, rng.sample(range(g.n), g.n)) for g in graphs]


def test_partition_sum_matches_frozenset_kernel(graphs_upto_6, monkeypatch):
    with monkeypatch.context() as m:
        clear_caches()
        m.setattr(gf, "convolve", ref_convolve)
        m.setattr(gf, "star_inverse", ref_star_inverse)
        ref_c, ref_r = ref_wonderful_complex(), ref_wonderful_real()
        m.setattr(gf, "wonderful_complex_gf", lambda: ref_c)
        m.setattr(gf, "wonderful_real_gf", lambda: ref_r)
        reference = _named_functions()
    for graphs in (graphs_upto_6, _relabelled(graphs_upto_6)):
        clear_caches()
        library = _named_functions()
        for g in graphs:
            for name, fn in library.items():
                got, want = fn(g), reference[name](g)
                assert got == want, (name, g)
                assert type(got) is type(want), (name, g, type(got), type(want))


def test_chromatic_symmetric_function_matches_frozenset_kernel(graphs_upto_6, monkeypatch):
    trees = [g for g in graphs_upto_6 if g.m == g.n - 1]
    with monkeypatch.context() as m:
        m.setattr(gf, "convolve", ref_convolve)
        reference = gf.chromatic_symfun_tree_gf()
        want = [reference(t) for t in trees]
    for graphs in (trees, _relabelled(trees)):
        library = gf.chromatic_symfun_tree_gf()
        for t, value in zip(graphs, want):
            got = library(t)
            assert got == value, t
            assert type(got) is type(value), (t, type(got), type(value))


def test_tube_table_agrees_with_the_function_on_every_tube(graphs_upto_6):
    # the weight of a tube table is the function on each tube, and its block
    # sums at the full mask hold the value at G in entry 1
    clear_caches()
    functions = {
        "mu": gf.mobius_gf(),
        "starinv(phi)": gf.star_inverse(GraphicFunction.of_size("phi", gf._complex_block_factor)),
        "starinv(1_q^odd)": gf.star_inverse(gf.one_q_odd_gf()),
        "1_q": gf.one_q_gf(),
        "1_q.mu": gf.one_q_gf() * gf.mobius_gf(),
        "starinv(hyper)": gf.star_inverse(gf.hyper_weighted_gf()),
    }
    for g in graphs_upto_6 + _relabelled(graphs_upto_6):
        for name, fn in functions.items():
            weight, table = fn.tube_table(g)
            for tube in tube_masks(g):
                got, want = weight(tube), fn(subgraph(g, tube))
                assert got == want, (name, g, tube)
                assert type(got) is type(want), (name, g, tube, type(got), type(want))
            assert gf._block_sums(g, weight, g.full_mask(), table)[1] == fn(g), (name, g)


def test_gerst_matches_the_frozenset_hadamard_kernel(graphs_upto_6):
    # gerst is read off mu's table at G as (1_q * mu) reversed; the reference
    # is its definition 1 * (1_q . mu), with the frozenset product and inverse
    reference = ref_convolve(gf.one_gf(), gf.one_q_gf() * ref_star_inverse(gf.one_gf()))
    for graphs in (graphs_upto_6, _relabelled(graphs_upto_6)):
        clear_caches()
        gerst = gf.gerst_hilbert_gf()
        for g in graphs:
            got, want = gerst(g), reference(g)
            assert got == want, g
            assert type(got) is type(want), (g, type(got), type(want))
