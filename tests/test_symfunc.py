import functools
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from contractads.graphic_functions import chromatic_symfun_tree_gf
from contractads.graphs import connected_graphs_upto
from contractads.qpoly import QPoly
from contractads.symfunc import (
    SymFunc,
    monomial_product,
    partition_factorial,
    partitions_of,
    partitions_upto,
)


def expand_to_exponents(f: SymFunc) -> dict:
    """Expand the m-basis representation to a raw exponent-vector polynomial."""
    out = {}
    for lam, c in f.terms.items():
        padded = tuple(lam) + (0,) * (f.nvars - len(lam))
        for arr in set(permutations(padded)):
            out[arr] = out.get(arr, QPoly.zero()) + c
    return {k: v for k, v in out.items() if not v.is_zero()}


def raw_multiply(a: dict, b: dict, nvars: int) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, QPoly.zero()) + c1 * c2
    return {k: v for k, v in out.items() if not v.is_zero()}


partition_strategy = st.lists(st.integers(min_value=1, max_value=3), max_size=3).map(tuple)


@settings(max_examples=60, deadline=None)
@given(partition_strategy, partition_strategy)
def test_monomial_product_against_raw_expansion(lam, mu):
    nvars = 4
    a = SymFunc.monomial(lam, nvars)
    b = SymFunc.monomial(mu, nvars)
    got = expand_to_exponents(a * b)
    expected = raw_multiply(expand_to_exponents(a), expand_to_exponents(b), nvars)
    assert got == expected


@functools.cache
def padded_arrangements(lam, nvars):
    return sorted(set(permutations(lam + (0,) * (nvars - len(lam)))))


def padded_monomial_product(lam, mu, nvars):
    """m_lambda * m_mu by the expansion over all nvars slots, the reference
    for the shorter expansion of `monomial_product`."""
    if max(len(lam), len(mu)) > nvars:
        return {}
    counts = {}
    for a in padded_arrangements(lam, nvars):
        for b in padded_arrangements(mu, nvars):
            vec = tuple(x + y for x, y in zip(a, b))
            counts[vec] = counts.get(vec, 0) + 1
    out = {}
    for vec, c in counts.items():
        srt = tuple(sorted((x for x in vec if x), reverse=True))
        if vec == srt + (0,) * (nvars - len(srt)):
            out[srt] = c
    return out


@pytest.mark.parametrize("nvars", [3, 8])
def test_monomial_product_matches_padded_expansion(nvars):
    parts = partitions_upto(8)
    for lam in parts:
        for mu in parts:
            if sum(lam) + sum(mu) <= 8 and lam <= mu:
                # same coordinates in the same order
                assert list(monomial_product(lam, mu, nvars).items()) == list(
                    padded_monomial_product(lam, mu, nvars).items()
                ), (lam, mu)


def test_vanishing_when_too_many_parts():
    # m_(1,1,1) needs three variables
    assert SymFunc.monomial((1, 1, 1), 2).is_zero()


def test_power_sums():
    p2 = SymFunc.power_sum(2, 3)
    assert p2.m_coefficient((2,)) == QPoly.one()
    # p_1^2 = m_2 + 2 m_{1,1}
    sq = SymFunc.power_sum(1, 3) * SymFunc.power_sum(1, 3)
    assert sq.m_coefficient((2,)) == QPoly.one()
    assert sq.m_coefficient((1, 1)) == QPoly.const(2)


def test_p_to_m_is_dominance_triangular():
    for d in range(1, 6):
        for mu in partitions_of(d):
            expansion = SymFunc.power_sum_product(mu, 6).terms
            for lam in expansion:
                # every lambda with a nonzero coefficient dominates mu
                partial_mu = [sum(mu[: i + 1]) for i in range(len(mu))]
                partial_lam = [sum(lam[: i + 1]) for i in range(len(lam))]
                for i in range(len(partial_mu)):
                    lam_part = partial_lam[i] if i < len(partial_lam) else partial_lam[-1]
                    assert lam_part >= partial_mu[i]


def test_p_m_roundtrip():
    nvars = 6
    for d in range(1, 7):
        for mu in partitions_of(d):
            f = SymFunc.power_sum_product(mu, nvars)
            coords = f.to_p_basis()
            assert coords == {mu: QPoly.one()}


def test_to_p_basis_of_combination():
    nvars = 5
    f = SymFunc.power_sum_product((2, 1), nvars).scale(Fraction(3, 2)) - SymFunc.power_sum_product(
        (1, 1, 1), nvars
    )
    coords = f.to_p_basis()
    assert coords == {(2, 1): QPoly.const(Fraction(3, 2)), (1, 1, 1): QPoly.const(-1)}


def test_partitions_helpers():
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(partitions_upto(6)) == 1 + 1 + 2 + 3 + 5 + 7 + 11
    assert partition_factorial((3, 2)) == 12


def test_symmetry_spot_check():
    # a product of monomials stays symmetric: expansion invariant under swapping slots
    f = SymFunc.monomial((2, 1), 3) * SymFunc.monomial((1,), 3)
    raw = expand_to_exponents(f)
    for e, c in raw.items():
        for arr in set(permutations(e)):
            assert raw.get(arr) == c


# -- the sparse core against the arithmetic it replaced ------------------------


class ReferenceSymFunc:
    """The arithmetic SymFunc had before it joined the sparse core, with its
    per-degree triangular to_p_basis, kept only as the oracle of the tests
    below."""

    def __init__(self, nvars, terms=None):
        if nvars < 1:
            raise ValueError("need at least one variable")
        t = {}
        for lam, c in (terms or {}).items():
            lam = tuple(sorted((p for p in lam if p), reverse=True))
            if len(lam) > nvars:
                continue  # m_lambda vanishes in fewer variables
            coeff = c if isinstance(c, QPoly) else QPoly.const(c)
            if not coeff.is_zero():
                t[lam] = coeff
        self.nvars, self.terms = nvars, t

    def _lift(self, other):
        if isinstance(other, (int, Fraction, QPoly)):
            return ReferenceSymFunc(self.nvars, {(): other})
        return other

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")

    def __eq__(self, other):
        other = self._lift(other)
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        other = self._lift(other)
        self._check(other)
        t = dict(self.terms)
        for lam, c in other.terms.items():
            s = t.get(lam, QPoly.zero()) + c
            if s.is_zero():
                t.pop(lam, None)
            else:
                t[lam] = s
        return ReferenceSymFunc(self.nvars, t)

    __radd__ = __add__

    def __neg__(self):
        return ReferenceSymFunc(self.nvars, {l: -c for l, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._lift(other))

    def scale(self, value):
        c = value if isinstance(value, QPoly) else QPoly.const(value)
        return ReferenceSymFunc(self.nvars, {l: c * v for l, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QPoly)):
            return self.scale(other)
        self._check(other)
        acc = {}
        for lam, a in self.terms.items():
            for mu, b in other.terms.items():
                for nu, c in monomial_product(lam, mu, self.nvars).items():
                    s = acc.get(nu, QPoly.zero()) + a * b * c
                    if s.is_zero():
                        acc.pop(nu, None)
                    else:
                        acc[nu] = s
        return ReferenceSymFunc(self.nvars, acc)

    __rmul__ = __mul__

    def _power_sum_product(self, lam):
        out = ReferenceSymFunc(self.nvars, {(): 1})
        for p in lam:
            out = out * ReferenceSymFunc(self.nvars, {(p,): 1})
        return out

    def to_p_basis(self):
        deg = max((sum(lam) for lam in self.terms), default=0)
        if deg > self.nvars:
            raise ValueError("p-coordinates need at least `degree` variables to be faithful")
        out = {}
        rest = dict(self.terms)
        for d in range(deg, 0, -1):
            lams = [l for l in partitions_of(d) if len(l) <= self.nvars]
            p_rows = {lam: self._power_sum_product(lam).terms for lam in lams}
            todo = {l: rest.get(l, QPoly.zero()) for l in lams}
            for lam in sorted(lams):
                cur = todo[lam]
                if cur.is_zero():
                    continue
                c = out[lam] = cur.divexact(p_rows[lam][lam])
                for nu, v in p_rows[lam].items():
                    todo[nu] = todo[nu] - c * v
            for lam in lams:
                assert todo[lam].is_zero(), "p-basis conversion left a remainder"
                rest.pop(lam, None)
        const = rest.pop((), None)
        if const is not None:
            out[()] = const
        assert not rest, "p-basis conversion missed terms"
        return out


def random_qpoly(rng):
    if rng.random() < 0.3:
        return QPoly.zero()
    return QPoly({2 * rng.randrange(4): Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2)})


def random_pair(rng, nvars, max_degree):
    """The same random symmetric function as a SymFunc and as a
    ReferenceSymFunc; some keys come unsorted or with more than nvars parts."""
    terms = {}
    for _ in range(rng.randint(0, 5)):
        lam = list(rng.choice(partitions_upto(max_degree)))
        rng.shuffle(lam)
        terms[tuple(lam)] = random_qpoly(rng)
    return SymFunc(nvars, terms), ReferenceSymFunc(nvars, terms)


def assert_same(got, expected):
    assert type(got) is SymFunc
    assert got.nvars == expected.nvars
    assert all(type(c) is QPoly for c in got.terms.values())
    assert got.terms == expected.terms
    assert str(got) == str(SymFunc(expected.nvars, expected.terms))


@pytest.mark.parametrize("seed", range(10))
def test_symfunc_matches_the_reference_arithmetic(seed):
    rng = random.Random(f"symfunc:{seed}")
    for nvars in range(1, 6):
        (a, ra), (b, rb) = random_pair(rng, nvars, 4), random_pair(rng, nvars, 4)
        assert_same(a, ra)
        assert_same(a + b, ra + rb)
        assert_same(a - b, ra - rb)
        assert_same(-a, -ra)
        assert_same(a * b, ra * rb)
        assert_same(b * a, rb * ra)
        assert_same(a * a, ra * ra)
        for value in (0, 3, Fraction(-2, 3), QPoly.zero(), random_qpoly(rng) + QPoly.q()):
            assert_same(a.scale(value), ra.scale(value))
            assert_same(a * value, ra * value)
            assert_same(value * a, value * ra)
            assert_same(a + value, ra + value)
            assert_same(value + a, value + ra)
            assert_same(a - value, ra - value)
            assert (a == value) == (ra == value) and (value == a) == (value == ra)
            constant = SymFunc(nvars, {(): value})
            assert (constant == value) and (value == constant)
        # == and hash agree with the reference on equal and unequal pairs
        assert (a == b) == (ra == rb)
        same = a + b - b
        assert same == a and hash(same) == hash(a)
        assert len({a, same, b}) == len({ra, ra + rb - rb, rb})


@pytest.mark.parametrize("seed", range(6))
def test_to_p_basis_matches_the_triangular_reference(seed):
    rng = random.Random(f"symfunc:p:{seed}")
    for nvars in range(1, 6):
        for max_degree in (nvars, nvars + 1):
            a, ra = random_pair(rng, nvars, max_degree)
            try:
                expected = ra.to_p_basis()
            except ValueError:
                with pytest.raises(ValueError):
                    a.to_p_basis()
                continue
            coords = a.to_p_basis()
            assert coords == expected
            # the coordinates rebuild the function
            total = SymFunc.zero(nvars)
            for lam, c in coords.items():
                total = total + SymFunc.power_sum_product(lam, nvars).scale(c)
            assert total == a


def test_mixed_variable_counts_raise():
    rng = random.Random("symfunc:nvars")
    for nvars in range(1, 5):
        a, _ = random_pair(rng, nvars, 3)
        b = SymFunc(nvars + 1, a.terms)
        assert a != b and b != a
        assert ReferenceSymFunc(nvars, a.terms) != ReferenceSymFunc(nvars + 1, a.terms)
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
            with pytest.raises(ValueError):
                op(a, b)
            with pytest.raises(ValueError):
                op(b, a)


def test_distinct_tree_values_hash_apart():
    # the 25 tree classes on <= 7 vertices have 25 distinct X_sym values;
    # equal SymFuncs share every term, so the hash reads them all
    xsym = chromatic_symfun_tree_gf()
    values = {xsym(g) for g in connected_graphs_upto(7) if g.m == g.n - 1}
    assert len(values) == 25
    assert len({hash(v) for v in values}) == 25
