"""The convolution algebra of graphic functions.

A graphic function assigns a ring element to every connected graph,
invariantly under relabelling.  The Schmitt product

    (f * g)(G) = sum over graph partitions I of f(G/I) * prod_{B in I} g(G|_B)

makes these functions an associative monoid with unit eps (1 on the one-vertex
graph, 0 elsewhere).  This module provides the product, star-inversion, and
the named functions used throughout: 1, 1_q, mu, the chromatic function, and
the Hilbert series of the little-disks, wonderful (complex and real), gravity
and hypercommutative contractads.

The product and the star-inverse are one routine, `_product`: the sum over
the partitions I of a tube T of f(G|_T / I) times the inner factor's values
on the blocks, which `GraphicFunction.tube_table(G)` hands over (by popcount
for a function of the vertex count, from the table that solved it for a
star-inverse, through the memo otherwise).  An outer factor of the vertex
count alone (`GraphicFunction.of_size`: 1, eps, 1_x, 1_q, 1_q^odd) sees only
the number of blocks: its product is a recursion graded by block count,
`_block_sums`, which builds no G/I, over count vectors on the twin classes
of G (`graphs.Twins`): polynomial on K_n, St_n and K_lambda, and on a
twin-free graph every code is its own vertex mask.  Any other outer factor
takes one walk over the partitions of T and evaluates f once per labelled
quotient G|_T / I.  `star_inverse` solves every f on the tube codes of G,
smallest first, and keeps the last table.
Both wonderful series are 1 * starinv(phi).  As 1_x . (f * g) = (1_x . f) *
(1_x . g), since x^(n-1) = x^(|I|-1) prod_B x^(|B|-1), gerst = 1 * (1_q . mu)
is 1_q * mu reversed in degree n - 1, so chi = q * (1_q * mu) reversed in
degree n: mu and chi read mu's table at G, chi is checked against the
frontier sweep of `graphs.chromatic_polynomial`, and gerst reads chi.
"""

from __future__ import annotations

import functools
import weakref
from fractions import Fraction
from typing import Callable

from .qpoly import QPoly, _exact
from .series import _coeff
from .graphs import (
    Graph,
    canonical_key,
    chromatic_polynomial,
    connected_subset_masks,
    _joined,
    _neighbourhood,
    path_graph,
    quotient,
    subgraph,
    tube_masks,
    Twins,
)

class GraphicFunction:
    """Memoised isomorphism-invariant map from connected graphs to a ring.

    Values may be ints, Fractions, QPoly, or symmetric functions; anything
    with ring arithmetic works.  The memo is keyed by canonical form, so
    isomorphic graphs are computed once.  Inserts are idempotent (values are
    deterministic), which is all the concurrency story this needs.
    """

    # every live instance: `contractads.clear_caches()` empties their memos
    _instances: weakref.WeakSet[GraphicFunction] = weakref.WeakSet()

    def __init__(self, name: str, evaluate: Callable[[Graph], object]):
        self.name = name
        self._evaluate = evaluate
        self._memo: dict = {}
        self._kept: dict = {}  # emptied with the memo: size-rule values, a star-inverse's last table
        self.size_rule: Callable[[int], object] | None = None
        GraphicFunction._instances.add(self)

    @classmethod
    def of_size(cls, name: str, rule: Callable[[int], object]) -> "GraphicFunction":
        """G -> rule(number of vertices of G), with the rule kept, memoised, as
        `size_rule`.  The vertex count is the key: no canonical key is taken."""
        fn = cls(name, lambda g: fn.size_rule(g.n))
        kept = fn._kept
        fn.size_rule = lambda n: kept[n] if n in kept else kept.setdefault(n, rule(n))
        fn.tube_table = lambda graph: (lambda tube: fn.size_rule(tube.bit_count()), {0: [1]})
        fn._value = fn._evaluate
        return fn

    def tube_table(self, graph: Graph) -> tuple[Callable[[int], object], dict]:
        """(weight, table): this function's value on each tube mask of `graph`,
        and a `_block_sums` memo over it.  Here each tube is fetched by memo."""
        return functools.cache(lambda tube: self._value(subgraph(graph, tube))), {0: [1]}

    def __call__(self, g: Graph):
        if not g.is_connected():
            raise ValueError(f"graphic function {self.name} needs a connected graph")
        return self._value(g)

    def _value(self, g: Graph):
        """The value on a graph known to be connected: a tube, a quotient, checked input."""
        key = canonical_key(g)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        value = self._evaluate(g)
        self._memo[key] = value
        return value

    def __repr__(self):
        return f"GraphicFunction({self.name})"

    # pointwise ring structure -------------------------------------------------

    def __add__(self, other: "GraphicFunction") -> "GraphicFunction":
        return GraphicFunction(f"({self.name}+{other.name})", lambda g: self._value(g) + other._value(g))

    def __sub__(self, other: "GraphicFunction") -> "GraphicFunction":
        return GraphicFunction(f"({self.name}-{other.name})", lambda g: self._value(g) - other._value(g))

    def __mul__(self, other: "GraphicFunction") -> "GraphicFunction":
        """Pointwise (Hadamard) product f . g."""
        return GraphicFunction(f"({self.name}.{other.name})", lambda g: self._value(g) * other._value(g))

    def scale(self, value) -> "GraphicFunction":
        return GraphicFunction(f"({value})*{self.name}", lambda g: value * self._value(g))


def _block_sums(graph: Graph, weight: Callable[[int], object], remaining: int, table: dict, twins: Twins | None = None):
    """The list whose entry k is the sum over partitions of the code
    `remaining` (see `Twins`) into k tubes of prod weight(B), or None if
    every such product is zero; a table starts as {0: [1]}.  Peels off the
    block holding the lowest vertex v, a first member: one per count vector
    on a connected set of first members through v, times the blocks holding
    v with those counts (`Twins.blocks`: one, the support, if G is twin-free),
    the rest memoised in `table` on its code."""
    acc = table.get(remaining)
    if acc is not None:
        return acc
    twins = twins or Twins(graph)
    acc = [None] * (remaining.bit_count() + 1)
    lowest = (remaining & -remaining).bit_length() - 1
    supports = connected_subset_masks(graph, remaining & twins.firsts, lowest)
    for block, (rest, count) in twins.blocks(supports, remaining, lowest).items():
        w = weight(block)
        if not w:
            continue
        if count != 1:
            w = w * count
        for k, value in enumerate(table.get(rest) or _block_sums(graph, weight, rest, table, twins), 1):
            if value is not None:
                acc[k] = w * value if acc[k] is None else acc[k] + w * value
    table[remaining] = acc
    return acc


def _product(graph: Graph, outer: GraphicFunction, weight: Callable[[int], object], mask: int, table: dict, twins=None):
    """(outer * inner)(G|_mask), the sum over partitions I of the tube `mask`
    of outer(G|_mask / I) * prod_{B in I} weight(B), where (weight, table) is
    the inner factor's tube table at G.  An outer factor of the vertex count
    is graded by block count over `_block_sums`, on codes.  Any other takes one
    walk that peels the block holding the lowest vertex and carries the inner
    product and the rows of G|_mask / I (`_joined`); a block of zero or None
    weight prunes all below it, and outer is taken once per labelled quotient."""
    if outer.size_rule is not None:
        graded = _block_sums(graph, weight, mask, table, twins)
        return sum((outer.size_rule(k) * value for k, value in enumerate(graded) if value is not None), 0)
    sums, first, reach = {}, {}, {}  # rows of G|_mask / I -> inner sum, first I; block -> neighbourhood

    def walk(remaining: int, blocks: tuple, rows: tuple, term):
        for block in connected_subset_masks(graph, remaining, (remaining & -remaining).bit_length() - 1):
            w = weight(block)
            if not w:
                continue
            near = reach.get(block) or reach.setdefault(block, _neighbourhood(graph, block))
            row = rows + (_joined(near, blocks),)
            if block != remaining:
                walk(remaining & ~block, blocks + (block,), row, term * w)
            elif row in sums:
                sums[row] = sums[row] + term * w
            else:
                sums[row], first[row] = term * w, blocks + (block,)

    walk(mask, (), (), 1)
    return sum((outer._value(quotient(graph, first[row])) * value for row, value in sums.items()), 0)


def convolve(f: GraphicFunction, g: GraphicFunction) -> GraphicFunction:
    """Schmitt product f * g, over the tube table of g at G."""

    def evaluate(graph: Graph):
        weight, table = g.tube_table(graph)
        return _product(graph, f, weight, graph.full_mask(), table)

    return GraphicFunction(f"({f.name}*{g.name})", evaluate)


def star_inverse(f: GraphicFunction) -> GraphicFunction:
    """Two-sided inverse g of f under *; requires f(P_1) = 1.

    Solved on every tube code T of G (see `Twins`), smallest first: (f * g)(T)
    = 0 once T has two vertices, and in its sum the single block T, weighted
    by the unknown g(T), is the only term not yet known, so g(T) is minus the
    rest.  The tube table of g at G maps a tube mask to g on its code (on a
    twin-free graph, the mask) and the `_block_sums` table over it reads the
    codes' values as they are.  The last table is kept, by labelled graph.
    """
    if f(path_graph(1)) != 1:
        raise ValueError("star inverse needs f(P_1) = 1")

    def solve(graph: Graph) -> tuple[Callable[[int], object], dict]:
        kept = inverse._kept.get((graph.n, graph.adj_mask))
        if kept is not None:
            return kept
        inverse._kept.clear()  # dropped before the next table is built, not after
        twins = Twins(graph)
        values: dict[int, object] = {1 << v: 1 for v in range(graph.n) if twins.firsts >> v & 1}
        table: dict[int, list] = {0: [1]}
        codes = twins.blocks(tube_masks(graph, twins.firsts), graph.full_mask())
        weight = lambda tube: values.get(twins.canonical(tube))
        inner = values.get if f.size_rule is not None else weight
        for tube in sorted((t for t in codes if t not in values), key=int.bit_count):
            values[tube] = -_product(graph, f, inner, tube, table, twins)
            if tube in table:  # block sums at T, taken while g(T) was unknown
                table[tube][1] = values[tube]
        inverse._kept[graph.n, graph.adj_mask] = weight, table
        return weight, table

    inverse = GraphicFunction(f"starinv({f.name})", lambda graph: solve(graph)[0](graph.full_mask()))
    inverse.tube_table = solve
    return inverse


# -- named graphic functions -------------------------------------------------------


def unit_gf() -> GraphicFunction:
    """eps: 1 on the one-vertex graph, 0 elsewhere."""
    return GraphicFunction.of_size("eps", lambda n: 1 if n == 1 else 0)


def one_gf() -> GraphicFunction:
    return GraphicFunction.of_size("1", lambda n: 1)


def one_param_gf(value) -> GraphicFunction:
    """1_x: graph on n vertices maps to x**(n-1)."""
    return GraphicFunction.of_size(f"1_({value})", lambda n: _coerce_power(value, n - 1))


def _coerce_power(value, exponent: int):
    if isinstance(value, (QPoly, int)):
        return value**exponent
    return _exact(Fraction(value) ** exponent)


def one_q_gf() -> GraphicFunction:
    """1_q, the weight-graded dimension of the one-dimensional contractad."""
    return one_param_gf(QPoly.q())


def one_q_odd_gf() -> GraphicFunction:
    """sqrt(q)^(n-1) on graphs with an odd number of vertices, else 0."""

    def rule(n: int):
        if n % 2 == 0:
            return QPoly.zero()
        return QPoly.q((n - 1) // 2)

    return GraphicFunction.of_size("1_q^odd", rule)


# The named functions below are built once per process, so their memos are
# shared by every caller; `contractads.clear_caches()` drops them.


@functools.cache
def mobius_gf() -> GraphicFunction:
    """mu, the *-inverse of the constant function 1."""
    return star_inverse(one_gf())


@functools.cache
def chromatic_gf() -> GraphicFunction:
    """The chromatic polynomial as q * (1_q * mu), read off mu's table at G;
    checked against the frontier sweep `chromatic_polynomial` on every
    evaluation."""
    base = convolve(one_q_gf(), mobius_gf())

    def evaluate(g: Graph):
        value = QPoly.q() * base._value(g)
        if value != chromatic_polynomial(g):
            raise AssertionError(f"contractad chromatic disagrees with the frontier sweep on {g!r}")
        return value

    return GraphicFunction("X(q)", evaluate)


@functools.cache
def gerst_hilbert_gf() -> GraphicFunction:
    """Homology Hilbert series of the little-disks contractad, in the
    convention where the value equals q^n * chi_G(1/q).

    Gerst = Com o Lie gives 1 * (1_q . mu); as 1_q . - is a monoid automorphism,
    that is (1_q * mu)(G) reversed in degree n - 1, or chi_G = q * (1_q * mu)
    reversed in degree n.  It is read off `chromatic_gf`, which asserts the
    chromatic identity on every evaluation.  The total dimension is the value
    at q = -1.
    """
    chrom = chromatic_gf()
    return GraphicFunction("gerst", lambda g: chrom._value(g).reversed_q(g.n))


def gerst_total_dim(g: Graph) -> int:
    """Total dimension of the little-disks homology: the Hilbert value at the
    point where every homological degree counts +1, i.e. q -> -1."""
    value = gerst_hilbert_gf()(g).substitute(-1)
    if value.denominator != 1 or value < 0:
        raise AssertionError(f"total dimension must be a non-negative integer, got {value}")
    return int(value)


def _complex_block_factor(size: int) -> QPoly:
    """(q - q^(size-1)) / (q - 1), tabulated as an explicit polynomial."""
    if size == 1:
        return QPoly.one()
    if size == 2:
        return QPoly.zero()
    # -q * (1 + q + ... + q^(size-3))
    return QPoly({2 * (k + 1): -1 for k in range(size - 2)})


@functools.cache
def wonderful_complex_gf() -> GraphicFunction:
    """Poincare polynomial sum_i dim H^{2i} q^i of the complex wonderful
    compactification.  Its convolution equation

        sum over partitions I of value(G/I) * prod_{B in I} phi(|B|) = 1,
        phi(n) = (q - q^{n-1})/(q-1),

    reads value * phi = 1 with phi(P_1) = 1, so value = 1 * starinv(phi).
    Every value is asserted palindromic of degree n - 2 (Poincare duality).
    """
    base = convolve(one_gf(), star_inverse(GraphicFunction.of_size("phi", _complex_block_factor)))

    def evaluate(g: Graph):
        value = _coeff(base._value(g))
        deg = g.n - 2
        for k in range(0, deg + 1):
            if value.coeff_q(k) != value.coeff_q(deg - k):
                raise AssertionError(f"Poincare palindromicity fails on {g!r}: {value}")
        return value

    return GraphicFunction("wonderful_C", evaluate)


@functools.cache
def wonderful_real_gf() -> GraphicFunction:
    """sum_i (-q)^i dim H_i of the real locus.  Its odd-block equation

        sum over odd partitions I of value(G/I) * sqrt(q)^(n - |I|) = 1

    reads value * 1_q^odd = 1 (the weight is prod_B sqrt(q)^(|B| - 1)), so
    value = 1 * starinv(1_q^odd).  Only integer powers of q occur, as blocks
    all odd force n = |I| mod 2.
    """
    base = convolve(one_gf(), star_inverse(one_q_odd_gf()))
    return GraphicFunction("wonderful_R", lambda g: _coeff(base._value(g)))


@functools.cache
def hyper_weighted_gf() -> GraphicFunction:
    """Weight-graded Hilbert series of the hypercommutative contractad:
    q * wonderful_complex + (1 - q) * eps."""
    wc = wonderful_complex_gf()

    def evaluate(g: Graph):
        value = QPoly.q() * wc._value(g)
        if g.n == 1:
            value = value + (QPoly.one() - QPoly.q())
        return value

    return GraphicFunction("hyper", evaluate)


@functools.cache
def grav_weighted_gf() -> GraphicFunction:
    """Weight-graded Hilbert series (at -q) of the gravity contractad:
    q/(q-1) * gerst - 1/(q-1) * eps, with the division exact by construction."""
    gerst = gerst_hilbert_gf()
    qmin1 = QPoly.q() - QPoly.one()

    def evaluate(g: Graph):
        numerator = QPoly.q() * gerst._value(g)
        if g.n == 1:
            numerator = numerator - QPoly.one()
        return numerator.divexact(qmin1)

    return GraphicFunction("grav", evaluate)


def chromatic_symfun_tree_gf(nvars: int | None = None) -> GraphicFunction:
    """Stanley's chromatic symmetric function on trees, as 1 * (1_{-1} . p).

    p sends a graph on n vertices to the power sum p_n.  The product formula
    is an identity of graphic functions only on trees, so non-tree input is
    rejected.  Values are symmetric functions in max(nvars, n) variables.
    """
    from .symfunc import SymFunc

    def evaluate(g: Graph):
        if g.m != g.n - 1:
            raise ValueError("the chromatic symmetric function formula is valid on trees only")
        D = max(nvars or 0, g.n)
        signed_p = GraphicFunction.of_size(
            "(1_-1 . p)", lambda n: SymFunc.power_sum(n, D).scale(Fraction((-1) ** (n - 1)))
        )
        return convolve(one_gf(), signed_p)(g)

    return GraphicFunction("X_sym", evaluate)
