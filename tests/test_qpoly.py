import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from contractads import graphic_functions as gf
from contractads.family_series import FAMILIES, closed_form
from contractads.qpoly import ExactDivisionError, QPoly, binomial_param
from contractads.young import young_closed_form


def qp(d):
    return QPoly({k: Fraction(v) for k, v in d.items()})


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
even_keys = st.integers(min_value=0, max_value=4).map(lambda k: 2 * k)
qpolys = st.dictionaries(even_keys, small_fractions, max_size=5).map(QPoly)


def test_construction_drops_zeros():
    p = qp({0: 1, 2: 0, 4: 3})
    assert p.items() == [(0, Fraction(1)), (4, Fraction(3))]


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        QPoly({-2: 1})


def test_display():
    q = QPoly.q()
    assert str(QPoly.one() + 5 * q + q**2) == "1 + 5*q + q^2"
    assert str(QPoly.zero()) == "0"


@given(qpolys, qpolys, qpolys)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(qpolys)
def test_additive_inverse(a):
    assert a - a == QPoly.zero()
    assert a + QPoly.zero() == a
    assert a * QPoly.one() == a


def test_odd_exponent_rejected():
    # keys count q^(1/2) units; an odd one is not a polynomial in q
    for key in (1, 3):
        with pytest.raises(ValueError):
            QPoly({key: 1})
    assert (QPoly.q() ** 2 + 1).substitute(3) == Fraction(10)


def test_divexact_block_factor():
    # (q - q^(g-1)) / (q - 1) is an exact polynomial for every g >= 1
    q = QPoly.q()
    for g in range(1, 10):
        quotient = (q - q ** (g - 1)).divexact(q - 1)
        assert quotient * (q - 1) == q - q ** (g - 1)


def test_divexact_rejects_remainder():
    q = QPoly.q()
    with pytest.raises(ExactDivisionError):
        (q + 1).divexact(q - 1)


@given(qpolys, qpolys)
def test_divexact_roundtrip(a, b):
    if b.is_zero():
        return
    assert (a * b).divexact(b) == a


def test_reversed_q():
    q = QPoly.q()
    chi = q**3 - 3 * q**2 + 2 * q  # chromatic polynomial of a triangle
    assert chi.reversed_q(3) == 1 - 3 * q + 2 * q**2


def test_binomial_param():
    q = QPoly.q()
    assert binomial_param(q, 0) == QPoly.one()
    assert binomial_param(q, 2) == (q * q - q) * Fraction(1, 2)
    assert binomial_param(Fraction(1, 2), 2) == QPoly.const(Fraction(-1, 8))


def test_scale_q():
    q = QPoly.q()
    p = q**2 + 2 * q
    assert p.scale_q(3) == 9 * q**2 + 6 * q


def test_divexact_by_a_non_unit_leading_coefficient():
    q = QPoly.q()
    quotient = (3 * q + 3).divexact(2 * q + 2)
    assert quotient.items() == [(0, Fraction(3, 2))]
    assert type(quotient.constant_term()) is Fraction
    assert_normal(quotient)


def test_an_int_scalar_normalises_each_product():
    half = QPoly({0: Fraction(1, 2)})
    for product in (half * 2, 2 * half):
        assert product.items() == [(0, 1)]
        assert type(product.constant_term()) is int


# -- the coefficient invariant --------------------------------------------------


def _coefficients(value):
    """Every stored scalar of a QPoly, a scalar, or a series or symmetric
    function over QPoly."""
    if isinstance(value, QPoly):
        return [c for _, c in value.items()]
    if hasattr(value, "terms"):
        return [c for poly in value.terms.values() for c in _coefficients(poly)]
    return [value]


def assert_normal(value):
    """An int when integral, else a Fraction: never a float, never a
    Fraction with denominator 1."""
    for c in _coefficients(value):
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (c, type(c))


def test_every_stored_coefficient_is_normal(graphs_upto_6):
    mu = gf.mobius_gf()
    named = [
        mu,
        gf.chromatic_gf(),
        gf.gerst_hilbert_gf(),
        gf.wonderful_complex_gf(),
        gf.wonderful_real_gf(),
        gf.hyper_weighted_gf(),
        gf.grav_weighted_gf(),
        gf.unit_gf(),
        gf.one_gf(),
        gf.one_param_gf(2),
        gf.one_param_gf(Fraction(1, 2)),
        gf.one_q_gf(),
        gf.one_q_odd_gf(),
        gf.convolve(gf.one_q_gf() * mu, gf.one_q_gf()),
        gf.convolve(gf.hyper_weighted_gf(), gf.grav_weighted_gf()),
        gf.star_inverse(gf.one_q_gf()),
        gf.convolve(gf.one_param_gf(Fraction(1, 2)), mu),
    ]
    xsym = gf.chromatic_symfun_tree_gf()
    assert len(graphs_upto_6) == 143
    for g in graphs_upto_6:
        for fn in named:
            assert_normal(fn(g))
        if g.m == g.n - 1:
            assert_normal(xsym(g))
    for target in ("complex", "real"):
        for family in FAMILIES:
            assert_normal(closed_form(target, family, 8))
    for target in ("chromatic", "modular_complex_G", "modular_real"):
        assert_normal(young_closed_form(target, 6))


# -- differential test against the all-Fraction ring -------------------------------


class FractionQPoly:
    """The ring before integer coefficients, kept as the reference: every
    coefficient a Fraction, every sum and product normalised by Fraction."""

    def __init__(self, coeffs=None):
        self._c = {}
        for k, v in (coeffs or {}).items():
            f = Fraction(v)
            if f:
                self._c[k] = f

    @staticmethod
    def _coerce(other):
        return other if isinstance(other, FractionQPoly) else FractionQPoly({0: other})

    def items(self):
        return sorted(self._c.items())

    def __add__(self, other):
        c = dict(self._c)
        for k, v in self._coerce(other)._c.items():
            s = c.get(k, Fraction(0)) + v
            if s:
                c[k] = s
            else:
                c.pop(k, None)
        return FractionQPoly(c)

    def __neg__(self):
        return FractionQPoly({k: -v for k, v in self._c.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        c = {}
        for k1, v1 in self._c.items():
            for k2, v2 in self._coerce(other)._c.items():
                c[k1 + k2] = c.get(k1 + k2, Fraction(0)) + v1 * v2
        return FractionQPoly(c)

    __rmul__ = __mul__

    def __pow__(self, n):
        result = FractionQPoly({0: 1})
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        return self._c == self._coerce(other)._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def substitute(self, value):
        v = Fraction(value)
        return sum((c * v ** (k // 2) for k, c in self._c.items()), Fraction(0))

    def scale_q(self, factor):
        f = Fraction(factor)
        return FractionQPoly({k: c * f ** (k // 2) for k, c in self._c.items()})

    def reversed_q(self, degree):
        if any(2 * degree < k for k in self._c):
            raise ValueError("degree too small")
        return FractionQPoly({2 * degree - k: c for k, c in self._c.items()})

    def divexact(self, divisor):
        d = self._coerce(divisor)
        if not d._c:
            raise ZeroDivisionError("division by zero polynomial")
        rem, dd = dict(self._c), max(d._c)
        quot = {}
        while rem:
            rd = max(rem)
            if rd < dd:
                raise ExactDivisionError("remainder")
            qk, qc = rd - dd, rem[rd] / d._c[dd]
            quot[qk] = qc
            for k, v in d._c.items():
                s = rem.get(k + qk, Fraction(0)) - qc * v
                if s:
                    rem[k + qk] = s
                else:
                    rem.pop(k + qk, None)
        return FractionQPoly(quot)


def ref_binomial_param(alpha, k):
    a = alpha if isinstance(alpha, FractionQPoly) else FractionQPoly({0: alpha})
    result = FractionQPoly({0: 1})
    for i in range(k):
        result = result * (a - i)
    return result * Fraction(1, math.factorial(k))


def _random_pair(rng):
    """The same polynomial in both rings: int, integral-Fraction and
    fractional coefficients."""
    coeffs = {}
    for _ in range(rng.randint(0, 4)):
        key = 2 * rng.randrange(0, 5)
        kind = rng.randrange(3)
        if kind == 0:
            coeffs[key] = rng.randint(-5, 5)
        elif kind == 1:
            coeffs[key] = Fraction(2 * rng.randint(-3, 3), 2)
        else:
            coeffs[key] = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
    return QPoly(coeffs), FractionQPoly(coeffs)


def _random_scalar(rng):
    return rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 4))])


def _outcome(op):
    """The result of op(), or the type of the error it raised."""
    try:
        return op()
    except (ArithmeticError, AssertionError, ValueError) as exc:
        return type(exc)


def _agree(op, ref):
    got, want = _outcome(op), _outcome(ref)
    if isinstance(want, type):
        assert got is want
        return
    assert_normal(got)
    if isinstance(want, FractionQPoly):
        assert got.items() == want.items()
        assert hash(got) == hash(want)
    else:
        assert got == want


def test_matches_the_all_fraction_ring():
    rng = random.Random(20261019)
    for _ in range(400):
        (a, ra), (b, rb) = _random_pair(rng), _random_pair(rng)
        s, k = _random_scalar(rng), rng.randrange(0, 4)
        assert (a == b) == (ra == rb)
        for op, ref in [
            (lambda: a + b, lambda: ra + rb),
            (lambda: a - b, lambda: ra - rb),
            (lambda: a * b, lambda: ra * rb),
            (lambda: a + s, lambda: ra + s),
            (lambda: a * s, lambda: ra * s),
            (lambda: a**k, lambda: ra**k),
            (lambda: (a * b).divexact(b), lambda: (ra * rb).divexact(rb)),
            (lambda: a.divexact(b), lambda: ra.divexact(rb)),
            (lambda: a.substitute(s), lambda: ra.substitute(s)),
            (lambda: a.scale_q(s), lambda: ra.scale_q(s)),
            (lambda: a.reversed_q(k), lambda: ra.reversed_q(k)),
            (lambda: binomial_param(a, k), lambda: ref_binomial_param(ra, k)),
            (lambda: binomial_param(s, k), lambda: ref_binomial_param(s, k)),
        ]:
            _agree(op, ref)
        for n in (0, 1, -2, 3):
            _agree(lambda: a * n, lambda: ra * n)
            _agree(lambda: n * a, lambda: n * ra)


# -- one common denominator: differential cases ------------------------------------


def _pair(coeffs):
    return QPoly(coeffs), FractionQPoly(coeffs)


def test_mixed_denominators_match_the_all_fraction_ring():
    F = Fraction
    cases = [
        ({0: F(1, 6)}, {0: F(1, 10)}),  # 1/6 + 1/10 = 4/15 over the lcm 30
        ({0: F(1, 4)}, {0: F(1, 4)}),  # 1/4 - 1/4 = 0
        ({0: F(-1, 3), 2: F(5, 6)}, {2: F(3, 4), 4: -2}),
        ({2: F(-7, 2)}, {0: F(-2, 3), 2: F(1, 9)}),
        ({0: F(2, 3), 2: F(4, 3)}, {0: F(3, 2)}),  # the product's 6 cancels to 1
        ({0: F(1, 2), 2: F(1, 2)}, {0: -2, 2: 2}),  # q^2 - 1
        ({0: 5, 4: -3}, {0: F(-5, 12), 2: F(7, 12)}),
    ]
    for x, y in cases:
        (a, ra), (b, rb) = _pair(x), _pair(y)
        for op, ref in [
            (lambda: a + b, lambda: ra + rb),
            (lambda: a - b, lambda: ra - rb),
            (lambda: b - a, lambda: rb - ra),
            (lambda: a * b, lambda: ra * rb),
            (lambda: -a, lambda: -ra),
            (lambda: a**3, lambda: ra**3),
            (lambda: (a * b).divexact(a), lambda: (ra * rb).divexact(ra)),
            (lambda: (a * b).divexact(b), lambda: (ra * rb).divexact(rb)),
            (lambda: a.divexact(b), lambda: ra.divexact(rb)),
            (lambda: a.substitute(Fraction(-3, 2)), lambda: ra.substitute(Fraction(-3, 2))),
            (lambda: a.scale_q(Fraction(2, 3)), lambda: ra.scale_q(Fraction(2, 3))),
            (lambda: a.reversed_q(2), lambda: ra.reversed_q(2)),
        ]:
            _agree(op, ref)
        # an int scale by a multiple of each denominator, by a negative and by 0
        for n in (12, 30, -36, 7, -1, 0):
            _agree(lambda: a * n, lambda: ra * n)
            _agree(lambda: n * b, lambda: n * rb)


def test_divexact_with_fractional_quotients():
    F = Fraction
    q = QPoly.q()
    for x, y in [
        ({0: 1, 2: 1}, {0: 2, 2: 2}),  # 1/2
        ({0: -1, 4: 1}, {0: 3, 2: 3}),  # (q - 1) / 3
        ({0: F(1, 3), 2: F(1, 2)}, {0: F(1, 2), 2: F(3, 4)}),  # 2/3
        ({0: -1, 4: 1}, {0: 2, 2: -2}),  # a negative leading coefficient: -(q + 1) / 2
        ({0: 1, 6: 1}, {0: F(1, 5), 2: F(1, 5)}),  # 5 (q^2 - q + 1)
        ({0: 1, 4: 1}, {0: 2, 2: 2}),  # q^2 + 1 has a remainder
        ({0: F(1, 7), 2: 3, 4: F(-2, 9)}, {0: F(5, 2), 2: 4, 4: F(-3, 8), 6: 6}),  # lower degree
    ]:
        (a, ra), (b, rb) = _pair(x), _pair(y)
        _agree(lambda: a.divexact(b), lambda: ra.divexact(rb))
        _agree(lambda: (a * b).divexact(b), lambda: (ra * rb).divexact(rb))
    assert (q**2 - 1).divexact(2 * q + 2) == QPoly({0: F(-1, 2), 2: F(1, 2)})


def test_arithmetic_and_the_constructor_give_equal_equal_hashing_polynomials():
    F = Fraction
    built = [
        (QPoly({0: F(1, 6)}) + QPoly({0: F(1, 10)}), QPoly({0: F(4, 15)})),
        (QPoly({0: F(1, 4)}) - QPoly({0: F(1, 4)}), QPoly()),
        (QPoly({0: F(2, 3), 2: F(4, 3)}) * F(3, 2), QPoly({0: 1, 2: 2})),
        (QPoly({2: F(1, 6), 0: F(5, 6)}) * 12, QPoly({0: 10, 2: 2})),
        (QPoly({0: F(1, 3)}) * QPoly({2: F(-3, 5), 4: F(9, 10)}), QPoly({2: F(-1, 5), 4: F(3, 10)})),
        ((QPoly.q() * 3 - 3).divexact(QPoly({0: -2, 2: 2})), QPoly.const(F(3, 2))),
    ]
    for got, want in built:
        assert got == want and hash(got) == hash(want), (got, want)
    assert built[1][0] == 0 and built[0][0] != QPoly({0: F(8, 30)}) + QPoly({0: F(1, 30)})
    assert QPoly({0: F(4, 15)}) == F(4, 15) and hash(QPoly({0: F(1, 2)})) == hash(frozenset({(0, F(1, 2))}))


def test_an_integral_result_reports_int_coefficients():
    F = Fraction
    for p in (
        QPoly({0: F(1, 3), 2: F(1, 2)}) + QPoly({0: F(2, 3), 2: F(5, 2)}),
        QPoly({0: F(1, 2), 4: F(-3, 4)}) * 4,
        QPoly({0: F(1, 2), 2: F(1, 2)}) * QPoly({0: -2, 2: 2}),
        QPoly({0: F(5, 2), 2: F(5, 2)}).divexact(F(5, 6)),
    ):
        assert all(type(c) is int for _, c in p.items()), p
        assert type(p.constant_term()) is int and type(p.substitute(2)) is int
    assert (QPoly({0: F(1, 2), 4: F(-3, 4)}) * 4).items() == [(0, 2), (4, -3)]
