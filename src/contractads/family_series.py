"""One-parameter generating series over the path / cycle / complete / star
families, their composition rules, and the closed forms for the wonderful
compactification Hilbert series.

Normalisations:

    F_P(f)(t)  = sum_{n>=1} f(P_n)  t^n
    F_C(f)(t)  = sum_{n>=1} f(C_n)  t^n / n
    F_K(f)(t)  = sum_{n>=1} f(K_n)  t^n / n!
    F_St(f)(t) = sum_{n>=0} f(St_n) t^n / n!

C_n is a graph only for n >= 3; the series convention takes C_1 := P_1 and
C_2 := P_2, which is what makes the cycle composition rule and the closed
forms come out right (it matches F_C(mu) = t + t/(1+t) - log(1+t)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .qpoly import QPoly
from .series import (
    PowerSeries,
    _coeff,
    exp_series,
    log1p_series,
    pow_param_series,
    power_combination,
    scaled_arcsinh_series,
    series_compose,
    series_reverse,
)
from .graphs import Graph, complete_graph, cycle_graph, path_graph, star_graph
from .graphic_functions import GraphicFunction, convolve

FAMILIES = ("P", "C", "K", "St")

_FAMILY_ALIASES = {
    "p": "P", "path": "P",
    "c": "C", "cycle": "C",
    "k": "K", "complete": "K",
    "st": "St", "star": "St",
}


def _family_tag(family: str) -> str:
    tag = _FAMILY_ALIASES.get(family.lower(), family)
    if tag not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return tag


def _family_member(tag: str, n: int) -> Graph:
    if tag == "P":
        return path_graph(n)
    if tag == "C":
        # series convention for the sub-cycle indices
        return path_graph(n) if n <= 2 else cycle_graph(n)
    if tag == "K":
        return complete_graph(n)
    return star_graph(n)


def _weight(tag: str, n: int) -> Fraction:
    if tag == "P":
        return Fraction(1)
    if tag == "C":
        return Fraction(1, n)
    return Fraction(1, factorial(n))


@dataclass(frozen=True)
class FamilySeries:
    family: str
    series: PowerSeries

    def coefficient(self, n: int) -> QPoly:
        return self.series.coefficient(n)

    def member_value(self, n: int) -> QPoly:
        """Recover f(X_n) from the normalised coefficient."""
        return self.series.coefficient(n) * (Fraction(1) / _weight(self.family, n))


def family_series(f: GraphicFunction, family: str, order: int) -> FamilySeries:
    """Exact generating series of f over the family, truncated at t^order."""
    if order < 1:
        raise ValueError("order must be >= 1")
    tag = _family_tag(family)
    terms: dict[int, QPoly] = {}
    start = 0 if tag == "St" else 1
    for n in range(start, order + 1):
        terms[n] = _coeff(f(_family_member(tag, n))) * _weight(tag, n)
    return FamilySeries(tag, PowerSeries.from_terms("t", order, terms))


@dataclass(frozen=True)
class CompositionReport:
    family: str
    lhs: PowerSeries
    rhs: PowerSeries

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


def check_family_composition(
    f: GraphicFunction, g: GraphicFunction, family: str, order: int
) -> CompositionReport:
    """Both sides of the family composition rule for f * g, for diffing.

    (i)   F_P(f*g)  = F_P(f) o F_P(g)
    (ii)  F_K(f*g)  = F_K(f) o F_K(g)
    (iii) F_C(f*g)  = F_C(f) o F_P(g) - f(P_1) F_P(g) + f(P_1) F_C(g)
    (iv)  F_St(f*g) = F_St(f) . F_St(g)    [needs g(P_1) = 1]
    """
    tag = _family_tag(family)
    lhs = family_series(convolve(f, g), tag, order).series
    if tag in ("P", "K"):
        rhs = series_compose(family_series(f, tag, order).series, family_series(g, tag, order).series)
    elif tag == "C":
        fp1 = f(path_graph(1))
        fg = family_series(g, "P", order).series
        rhs = (
            series_compose(family_series(f, "C", order).series, fg)
            - fg.scale(fp1)
            + family_series(g, "C", order).series.scale(fp1)
        )
    else:
        if g(path_graph(1)) != 1:
            raise ValueError("the star rule needs a connected g (g(P_1) = 1)")
        rhs = family_series(f, "St", order).series * family_series(g, "St", order).series
    return CompositionReport(tag, lhs, rhs)


# -- closed forms ---------------------------------------------------------------


def _t(order: int) -> PowerSeries:
    return PowerSeries.identity("t", order)


def closed_form(target: str, family: str, order: int) -> PowerSeries:
    """Closed-form expansion of the wonderful Hilbert series over a family.

    Every expansion is exact in Q[q]; square roots go through the parametric
    binomial series and the q-scaled arcsinh, so no half-integer powers of q
    ever materialise.  The result is normalised like :func:`family_series`
    (complete-family real case: the bare closed form has an extra constant 1,
    dropped here).
    """
    tag = _family_tag(family)
    target = target.lower()
    if target == "complex":
        return _closed_complex(tag, order)
    if target == "real":
        return _closed_real(tag, order)
    raise ValueError(f"unknown target {target!r}")


def _closed_complex(tag: str, order: int) -> PowerSeries:
    q = QPoly.q()
    one = QPoly.one()
    t = _t(order)
    if tag == "P":
        # (1 - (1-q)t - sqrt((1 + (1-q)t)^2 - 4t)) / 2q
        u = t.scale(one - q)
        radicand = u + u + u * u - t.scale(4)  # (1+u)^2 - 4t = 1 + radicand
        root = pow_param_series(radicand, Fraction(1, 2))
        numerator = PowerSeries.constant("t", order, one) - u - root
        return numerator.divexact(q * 2)
    if tag == "St":
        # (q-1)/(q - e^{(q-1)t}) = 1/(1 - E), E = sum_{n>=1} (q-1)^{n-1} t^n/n!
        E = PowerSeries.from_terms(
            "t",
            order,
            {n: (q - one) ** (n - 1) * Fraction(1, factorial(n)) for n in range(1, order + 1)},
        )
        return (PowerSeries.constant("t", order, one) - E).invert_unit()
    if tag == "K":
        # reversion of g(q,t) = [qt - ((t+1)^q - 1)/q] / (q-1)
        return series_reverse(complete_complex_inverse(order))
    # cycles: t - [log(1 - (q-1)F_P) + (q-1) log(1 + F_P)] / (q(q-1))
    fp = _closed_complex("P", order)
    bracket = log1p_series(fp.scale(-(q - one))) + log1p_series(fp).scale(q - one)
    return t - bracket.divexact(q * (q - one))


def complete_complex_inverse(order: int) -> PowerSeries:
    """g(q,t) = (qt - ((t+1)^q - 1)/q) / (q-1); compositional inverse of the
    complete-family complex series."""
    q = QPoly.q()
    one = QPoly.one()
    t = _t(order)
    powq = pow_param_series(t, q)  # (1+t)^q
    inner = (powq - PowerSeries.constant("t", order, one)).divexact(q)
    return (t.scale(q) - inner).divexact(q - one)


def real_path_core(order: int) -> PowerSeries:
    """L_q(t) = (sqrt(1 + 4qt^2) - 1) / (2qt), the building block of the real
    path and cycle closed forms."""
    q = QPoly.q()
    t = _t(order + 1)
    radicand = (t * t).scale(q * 4)
    root = pow_param_series(radicand, Fraction(1, 2))
    numerator = root - PowerSeries.constant("t", order + 1, QPoly.one())
    return numerator.shift_down().divexact(q * 2)


def _closed_real(tag: str, order: int) -> PowerSeries:
    q = QPoly.q()
    one = QPoly.one()
    t = _t(order)
    if tag == "P":
        # L / (1 - L)
        L = real_path_core(order)
        geom = PowerSeries.from_terms("t", order, {n: one for n in range(1, order + 1)})
        return series_compose(geom, L)
    if tag == "St":
        # e^t / cosh(sqrt(q) t); cosh(sqrt(q) t) = sum_k q^k t^(2k)/(2k)!
        cosh_q = PowerSeries.from_terms(
            "t",
            order,
            {2 * k: QPoly.q(k) * Fraction(1, factorial(2 * k)) for k in range(order // 2 + 1)},
        )
        return exp_series(t) * cosh_q.invert_unit()
    if tag == "K":
        # (sqrt(q) t + sqrt(qt^2+1))^(1/sqrt(q)) - 1 = exp(scaled_arcsinh(t)) - 1
        return exp_series(scaled_arcsinh_series(t)) - PowerSeries.constant("t", order, one)
    # cycles: t - log(1 - L) - sum_k q^k L^(2k+1)/(2k+1)
    L = real_path_core(order)
    odd = {2 * k + 1: L.const(QPoly.q(k) * Fraction(1, 2 * k + 1)) for k in range((order + 1) // 2)}
    return t - log1p_series(-L) - power_combination(L, odd)
