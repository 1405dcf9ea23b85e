from fractions import Fraction

import pytest

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
