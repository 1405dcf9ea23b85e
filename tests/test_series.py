import random
from fractions import Fraction
from math import comb

import pytest

import contractads.series as series_module
from contractads.family_series import complete_complex_inverse
from contractads.graphic_functions import one_gf
from contractads.qpoly import QPoly
from contractads.series import (
    PowerSeries,
    exp_series,
    log1p_series,
    pow_param_series,
    scaled_arcsinh_series,
    series_compose,
    series_reverse,
    series_transcendental,
)
from contractads.young import (
    BiSeries,
    two_color_specialize,
    young_closed_form,
    young_of_graphic,
    young_reverse,
)


def poly_series(order, coeffs):
    return PowerSeries.from_terms("t", order, dict(enumerate(coeffs)))


def brute_substitute(f_coeffs, g_coeffs, order):
    """Independent oracle: polynomial substitution without truncation tricks."""
    out = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * order  # g^0
    for k, fk in enumerate(f_coeffs):
        if k > order:
            break
        for i, c in enumerate(power):
            if i <= order and c:
                out[i] += fk * c
        nxt = [Fraction(0)] * (order + 1)
        for i, a in enumerate(power):
            if not a:
                continue
            for j, b in enumerate(g_coeffs):
                if i + j <= order:
                    nxt[i + j] += a * b
        power = nxt
    return out


def test_compose_against_brute_force():
    order = 6
    f = [Fraction(0), Fraction(1), Fraction(1)]  # t + t^2
    g = [Fraction(0), Fraction(1), Fraction(1)]
    expected = brute_substitute(f, g, order)
    assert expected[:5] == [Fraction(0), Fraction(1), Fraction(2), Fraction(2), Fraction(1)]
    got = series_compose(poly_series(order, f), poly_series(order, g))
    assert [c.constant_term() for c in got.coeffs] == expected


def test_compose_identity_cases():
    order = 7
    t = PowerSeries.identity("t", order)
    g = poly_series(order, [0, 1, 3, 0, 2])
    assert series_compose(t, g) == g
    # f = t/(1-t), g = t/(1+t) are inverse to each other
    f = PowerSeries.from_terms("t", order, {n: 1 for n in range(1, order + 1)})
    ginv = PowerSeries.from_terms("t", order, {n: Fraction((-1) ** (n - 1)) for n in range(1, order + 1)})
    assert series_compose(f, ginv) == t
    assert series_compose(ginv, f) == t


def test_compose_rejects_constant_term():
    order = 4
    f = PowerSeries.identity("t", order)
    g = PowerSeries.constant("t", order, 1)
    with pytest.raises(ValueError):
        series_compose(f, g)


def test_reverse_catalan():
    order = 6
    f = poly_series(order, [0, 1, -1])  # t - t^2
    g = series_reverse(f)
    catalan = [0, 1, 1, 2, 5, 14, 42]
    assert [c.constant_term() for c in g.coeffs] == [Fraction(c) for c in catalan]


def test_reverse_of_log_is_exp():
    order = 8
    t = PowerSeries.identity("t", order)
    log = log1p_series(t)
    expm1 = exp_series(t) - PowerSeries.constant("t", order, 1)
    assert series_reverse(log) == expm1


def test_reverse_trivial():
    t = PowerSeries.identity("t", 5)
    assert series_reverse(t) == t


def test_reverse_requires_unit_linear_term():
    with pytest.raises(ValueError):
        series_reverse(poly_series(4, [0, 2]))


def fixed_point_reverse(f):
    """The reversion series_reverse ran before Newton iteration: `bound`
    rounds of g <- z - (f - z) o g, each exact one degree further.  Kept only
    as the oracle of the test below."""
    z = f.variable()
    higher = f - z
    g = z
    for _ in range(f.bound):
        g = z - series_compose(higher, g)
    return g


def _reversion_cases():
    """(name, series, the library's reversion of it) for PowerSeries,
    YoungSeries and BiSeries."""
    for n in range(1, 14):  # bounds that are not powers of two included
        yield f"K inverse {n}", complete_complex_inverse(n), series_reverse
    yield "t - t^2", poly_series(9, [0, 1, -1]), series_reverse
    yield "log1p(t)", log1p_series(PowerSeries.identity("t", 10)), series_reverse
    for d in range(1, 7):
        yield f"modular G {d}", young_closed_form("modular_complex_G", d), young_reverse
        yield f"F_Y(1) {d}", young_of_graphic(one_gf(), d), young_reverse
    for d in range(1, 8):
        G = two_color_specialize(young_closed_form("modular_complex_G", d))
        yield f"two-colour G {d}", G, BiSeries.reverse_z


def test_newton_reversion_matches_the_fixed_point_loop():
    # the outputs must be equal term for term, at the same bound
    for name, f, reverse in _reversion_cases():
        got, expected = reverse(f), fixed_point_reverse(f)
        assert type(got) is type(expected), name
        assert (got.bound, got.terms) == (expected.bound, expected.terms), name


def test_reversion_composes_logarithmically_often(monkeypatch):
    # five Newton rounds (bounds 2, 4, 8, 16, 24) and the two-sided check;
    # the fixed-point loop made 24 + 2
    calls = []

    def counting_compose(f, g):
        calls.append(g.bound)
        return series_compose(f, g)

    monkeypatch.setattr(series_module, "series_compose", counting_compose)
    g = series_reverse(poly_series(24, [0, 1, -1]))
    catalan = [0] + [comb(2 * n, n) // (n + 1) for n in range(24)]
    assert [c.constant_term() for c in g.coeffs] == catalan
    assert len(calls) <= 7, calls


def test_exp_log_inverse():
    order = 7
    f = poly_series(order, [0, 1, 0, 2, -1])
    assert exp_series(log1p_series(f)) == poly_series(order, [1, 1, 0, 2, -1])


def test_pow_param_with_parametric_exponent():
    order = 3
    q = QPoly.q()
    t = PowerSeries.identity("t", order)
    s = pow_param_series(t, q)
    assert s.coefficient(0) == QPoly.one()
    assert s.coefficient(1) == q
    assert s.coefficient(2) == (q * q - q) * Fraction(1, 2)
    assert s.coefficient(3) == (q * (q - 1) * (q - 2)) * Fraction(1, 6)


def test_pow_param_inverse_pair():
    order = 6
    q = QPoly.q()
    f = poly_series(order, [0, 1, 2])
    product = pow_param_series(f, q) * pow_param_series(f, -1 * q)
    assert product == PowerSeries.constant("t", order, 1)


def test_exp_of_zero():
    z = PowerSeries.zeros("t", 5)
    assert exp_series(z) == PowerSeries.constant("t", 5, 1)


def test_scaled_arcsinh_expansion():
    order = 6
    t = PowerSeries.identity("t", order)
    s = scaled_arcsinh_series(t)
    q = QPoly.q()
    assert s.coefficient(1) == QPoly.one()
    assert s.coefficient(3) == q * Fraction(-1, 6)
    assert s.coefficient(5) == (q * q) * Fraction(3, 40)
    assert s.coefficient(2).is_zero() and s.coefficient(4).is_zero()


def test_transcendental_dispatcher():
    t = PowerSeries.identity("t", 4)
    assert series_transcendental("exp", t) == exp_series(t)
    with pytest.raises(ValueError):
        series_transcendental("sin", t)
    with pytest.raises(ValueError):
        series_transcendental("pow_param", t)


def test_order_mixing_takes_minimum():
    a = poly_series(6, [0, 1])
    b = poly_series(3, [1, 1])
    assert (a * b).order == 3
    assert (a + b).order == 3


def test_invert_unit():
    order = 5
    one_minus_t = PowerSeries.from_terms("t", order, {0: 1, 1: -1})
    geo = one_minus_t.invert_unit()
    assert all(geo.coefficient(n) == QPoly.one() for n in range(order + 1))


def test_equal_series_hash_equal():
    # == compares up to the smaller order, so the hash must not see the order
    a, b = PowerSeries.identity("t", 3), PowerSeries.identity("t", 5)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


# -- the sparse core against the dense arithmetic it replaced ------------------


class DenseSeries:
    """The dense tuple arithmetic PowerSeries had before it joined the sparse
    core, kept only as the oracle of the tests below."""

    def __init__(self, var, order, coeffs):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        self.var, self.order, self.coeffs = var, order, tuple(coeffs)
        assert len(self.coeffs) == order + 1

    def _check_var(self, other):
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var} vs {other.var}")

    def coefficient(self, n):
        if n > self.order:
            raise IndexError(n)
        return self.coeffs[n]

    def truncate(self, order):
        return self if order >= self.order else DenseSeries(self.var, order, self.coeffs[: order + 1])

    def __add__(self, other):
        self._check_var(other)
        n = min(self.order, other.order)
        return DenseSeries(self.var, n, [self.coeffs[i] + other.coeffs[i] for i in range(n + 1)])

    def __neg__(self):
        return DenseSeries(self.var, self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_var(other)
        n = min(self.order, other.order)
        out = [QPoly.zero()] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            for j in range(n + 1 - i):
                out[i + j] = out[i + j] + a * other.coeffs[j]
        return DenseSeries(self.var, n, out)

    def scale(self, value):
        c = value if isinstance(value, QPoly) else QPoly.const(value)
        return DenseSeries(self.var, self.order, [c * a for a in self.coeffs])

    def divexact(self, divisor):
        return DenseSeries(self.var, self.order, [a.divexact(divisor) for a in self.coeffs])

    def shift_down(self):
        if not self.coeffs[0].is_zero():
            raise ValueError("nonzero constant term")
        return DenseSeries(self.var, self.order - 1, self.coeffs[1:])

    def invert_unit(self):
        inv0 = Fraction(1) / self.coeffs[0].as_fraction()
        out = [QPoly.const(inv0)]
        for m in range(1, self.order + 1):
            s = QPoly.zero()
            for k in range(1, m + 1):
                s = s + self.coeffs[k] * out[m - k]
            out.append((-s) * inv0)
        return DenseSeries(self.var, self.order, out)


def random_qpoly(rng):
    if rng.random() < 0.35:
        return QPoly.zero()
    return QPoly({2 * rng.randrange(5): Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)})


def random_unit(rng):
    return QPoly.const(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)))


def random_pair(rng, order, constant=None, var="t"):
    """The same random series as a PowerSeries and as a DenseSeries, with the
    given constant term if one is given."""
    coeffs = [random_qpoly(rng) for _ in range(order + 1)]
    if constant is not None:
        coeffs[0] = constant
    return PowerSeries(var, order, coeffs), DenseSeries(var, order, coeffs)


def assert_same(sparse, dense):
    assert type(sparse) is PowerSeries
    assert (sparse.var, sparse.order) == (dense.var, dense.order)
    assert type(sparse.coeffs) is tuple and all(type(c) is QPoly for c in sparse.coeffs)
    assert sparse.coeffs == dense.coeffs
    for n in range(dense.order + 2):
        if n > dense.order:
            with pytest.raises(IndexError):
                sparse.coefficient(n)
        else:
            assert sparse.coefficient(n) == dense.coefficient(n)


@pytest.mark.parametrize("seed", range(12))
def test_sparse_power_series_matches_the_dense_arithmetic(seed):
    rng = random.Random(f"series:{seed}")
    for order in range(9):
        # equal and mixed orders
        (a, da), (b, db) = random_pair(rng, order), random_pair(rng, rng.randint(0, 8))
        assert_same(a, da)
        assert_same(a + b, da + db)
        assert_same(a - b, da - db)
        assert_same(-a, -da)
        assert_same(a * b, da * db)
        assert_same(b * a, db * da)
        assert_same(a * a, da * da)
        for value in (QPoly.zero(), Fraction(-2, 3), random_qpoly(rng) + QPoly.q()):
            assert_same(a.scale(value), da.scale(value))
        for k in range(order + 2):
            assert_same(a.truncate(k), da.truncate(k))
        divisor = QPoly.q() - QPoly.const(rng.randint(1, 3))
        assert_same(a.scale(divisor).divexact(divisor), da.scale(divisor).divexact(divisor))
        assert_same(a.divexact(Fraction(3, 7)), da.divexact(Fraction(3, 7)))
        u, du = random_pair(rng, order, random_unit(rng))
        assert_same(u.invert_unit(), du.invert_unit())
        c, dc = random_pair(rng, order, QPoly.zero())
        if order:
            assert_same(c.shift_down(), dc.shift_down())
        for bad in (u, c) if order == 0 else (u,):
            with pytest.raises(ValueError):
                bad.shift_down()


def test_sparse_power_series_equality_ignores_the_order():
    rng = random.Random("series:equality")
    for order in range(9):
        a, _ = random_pair(rng, order)
        for k in range(order + 1):
            low = a.truncate(k)
            assert low == a and a == low
            assert hash(low) == hash(a)
        other = a + PowerSeries.from_terms("t", order, {order: 1})
        assert other != a
        if order:
            assert other.truncate(order - 1) == a


def test_variable_mismatch():
    rng = random.Random("series:variables")
    for order in range(4):
        t, _ = random_pair(rng, order, random_unit(rng), var="t")
        z = PowerSeries("z", order, t.coeffs)
        assert t != z and z != t
        with pytest.raises(ValueError):
            t + z
        with pytest.raises(ValueError):
            t * z
        with pytest.raises(ValueError):
            z - t
