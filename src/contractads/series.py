"""Truncated power series and the one series engine.

A PowerSeries is univariate with QPoly coefficients.  It carries its variable
tag ('t' or 'z') and truncation order N; the coefficient array always has
length N+1.  Binary operations take the minimum of the two orders, so
precision loss is explicit and monotone.

The series engine below (composition, reversion, powers and the exp / log1p
/ pow_param / scaled-arcsinh expansions) is written once, for PowerSeries,
YoungSeries and BiSeries (:mod:`.young`) alike.  Besides +, -, * and
scale(scalar), each provides its truncation `bound` (a total degree),
truncate(bound), constant_term(), const(value) and variable() (the series
value and z of the same shape and bound), and z_slices(): {n: the z-free
series multiplying z^n}, for a PowerSeries the constant series c_n.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Sequence

from .qpoly import QPoly, Scalar, binomial_param


def _coeff(value) -> QPoly:
    if isinstance(value, QPoly):
        return value
    return QPoly.const(value)


class PowerSeries:
    __slots__ = ("var", "order", "coeffs")

    def __init__(self, var: str, order: int, coeffs: Sequence[QPoly | Scalar]):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        cs = [_coeff(c) for c in coeffs]
        if len(cs) != order + 1:
            raise ValueError(f"need exactly {order + 1} coefficients, got {len(cs)}")
        self.var = var
        self.order = order
        self.coeffs = tuple(cs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, var: str, order: int) -> "PowerSeries":
        return cls.from_terms(var, order, {})

    @classmethod
    def constant(cls, var: str, order: int, value) -> "PowerSeries":
        return cls.from_terms(var, order, {0: value})

    @classmethod
    def identity(cls, var: str, order: int) -> "PowerSeries":
        """The series t (or z)."""
        return cls.from_terms(var, order, {1: 1})

    @classmethod
    def from_terms(cls, var: str, order: int, terms: dict[int, QPoly | Scalar]) -> "PowerSeries":
        coeffs = [QPoly.zero()] * (order + 1)
        for n, c in terms.items():
            if 0 <= n <= order:
                coeffs[n] = _coeff(c)
        return cls(var, order, coeffs)

    # -- inspection --------------------------------------------------------

    def coefficient(self, n: int) -> QPoly:
        if n > self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> "PowerSeries":
        if order >= self.order:
            return self
        return PowerSeries(self.var, order, self.coeffs[: order + 1])

    # -- series-engine interface -------------------------------------------

    @property
    def bound(self) -> int:
        return self.order

    def const(self, value) -> "PowerSeries":
        return PowerSeries.constant(self.var, self.order, value)

    def variable(self) -> "PowerSeries":
        return PowerSeries.identity(self.var, self.order)

    def constant_term(self) -> QPoly:
        return self.coeffs[0]

    def z_slices(self) -> dict[int, "PowerSeries"]:
        return {n: self.const(c) for n, c in enumerate(self.coeffs) if not c.is_zero()}

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return self.var == other.var and self.coeffs[: n + 1] == other.coeffs[: n + 1]

    def __hash__(self):
        # == compares up to the smaller order, so hash only what every order
        # (>= 0) keeps: the constant term
        return hash((self.var, self.coeffs[0]))

    def _check_var(self, other: "PowerSeries"):
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var} vs {other.var}")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        self._check_var(other)
        n = min(self.order, other.order)
        return PowerSeries(self.var, n, [self.coeffs[i] + other.coeffs[i] for i in range(n + 1)])

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        return self + (-other)

    def __neg__(self) -> "PowerSeries":
        return PowerSeries(self.var, self.order, [-c for c in self.coeffs])

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        self._check_var(other)
        n = min(self.order, other.order)
        out = [QPoly.zero()] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a.is_zero():
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return PowerSeries(self.var, n, out)

    def scale(self, value) -> "PowerSeries":
        c = _coeff(value)
        return PowerSeries(self.var, self.order, [c * a for a in self.coeffs])

    def divexact_scalar(self, divisor) -> "PowerSeries":
        d = _coeff(divisor)
        return PowerSeries(self.var, self.order, [a.divexact(d) for a in self.coeffs])

    def shift_down(self) -> "PowerSeries":
        """Divide by the variable; requires zero constant term."""
        if not self.coeffs[0].is_zero():
            raise ValueError("cannot divide by the variable: nonzero constant term")
        return PowerSeries(self.var, self.order - 1, self.coeffs[1:])

    def invert_unit(self) -> "PowerSeries":
        """Multiplicative inverse; constant term must be a nonzero rational."""
        a0 = self.coeffs[0].as_fraction()
        if a0 == 0:
            raise ValueError("series has no inverse: zero constant term")
        inv0 = Fraction(1) / a0
        out = [QPoly.zero()] * (self.order + 1)
        out[0] = QPoly.const(inv0)
        for m in range(1, self.order + 1):
            s = QPoly.zero()
            for k in range(1, m + 1):
                if not self.coeffs[k].is_zero():
                    s = s + self.coeffs[k] * out[m - k]
            out[m] = (-s) * inv0
        return PowerSeries(self.var, self.order, out)

    def __str__(self) -> str:
        parts = []
        for n, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            mono = "1" if n == 0 else (self.var if n == 1 else f"{self.var}^{n}")
            parts.append(f"({c})*{mono}" if n else f"({c})")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O({self.var}^{self.order + 1})"

    __repr__ = __str__


# -- the series engine (interface in the module docstring) --------------------


def series_powers(f, kmax: int) -> list:
    """[1, f, f^2, ..., f^kmax]."""
    out = [f.const(1)]
    for _ in range(kmax):
        out.append(out[-1] * f)
    return out


def power_combination(g, slices: dict, what: str = "a power combination"):
    """sum_n slices[n] * g^n for z-free series slices[n].  g must have zero
    constant term, so that the powers beyond the truncation bound vanish."""
    if not g.constant_term().is_zero():
        raise ValueError(f"{what} needs zero constant term")
    acc = g.const(0)
    powers = series_powers(g, max(slices, default=0))
    for n, s in slices.items():
        acc = acc + s * powers[n]
    return acc


def series_compose(f, g):
    """f with g substituted for z, truncated at the smaller bound; g must have
    zero constant term."""
    d = min(f.bound, g.bound)
    slices = {n: s for n, s in f.z_slices().items() if n <= d}
    return power_combination(g.truncate(d), slices, "the inner series of a composition")


def series_reverse(f):
    """Compositional inverse in z of f = z + (degree >= 2); verified on both
    sides."""
    z = f.variable()
    if f.bound < 1 or f.truncate(1) != z.truncate(1):
        raise ValueError("reversion requires the degree-1 part to be exactly z; normalise first")
    higher = f - z
    g = z
    for _ in range(f.bound):
        g = z - series_compose(higher, g)
    if series_compose(f, g) != z or series_compose(g, f) != z:
        raise AssertionError("internal reversion check failed")
    return g


# -- transcendental expansions ------------------------------------------------


def exp_series(f):
    """exp(f) for f with zero constant term."""
    coefficients = {k: f.const(Fraction(1, factorial(k))) for k in range(f.bound + 1)}
    return power_combination(f, coefficients, "exp")


def log1p_series(f):
    """log(1 + f) for f with zero constant term."""
    coefficients = {k: f.const(Fraction((-1) ** (k - 1), k)) for k in range(1, f.bound + 1)}
    return power_combination(f, coefficients, "log1p")


def pow_param_series(f, alpha):
    """(1 + f)**alpha via the parametric binomial series; alpha may be a QPoly."""
    coefficients = {k: f.const(binomial_param(alpha, k)) for k in range(f.bound + 1)}
    return power_combination(f, coefficients, "pow_param")


def arcsinh_coefficient(k: int) -> Fraction:
    """Taylor coefficient of x^(2k+1) in arcsinh(x)."""
    return Fraction((-1) ** k * factorial(2 * k), 4**k * factorial(k) ** 2 * (2 * k + 1))


def scaled_arcsinh_series(f):
    """(1/sqrt(q)) * arcsinh(sqrt(q) * f) as sum_k c_k q^k f^(2k+1).

    Only even powers of sqrt(q) appear, so coefficients stay in Q[q].
    """
    coefficients = {
        2 * k + 1: f.const(QPoly.q(k) * arcsinh_coefficient(k)) for k in range((f.bound + 1) // 2)
    }
    return power_combination(f, coefficients, "scaled_arcsinh")


def series_transcendental(kind: str, f, alpha=None):
    """Dispatcher over {exp, log1p, pow_param, scaled_arcsinh}."""
    if kind == "exp":
        return exp_series(f)
    if kind == "log1p":
        return log1p_series(f)
    if kind == "pow_param":
        if alpha is None:
            raise ValueError("pow_param needs an exponent")
        return pow_param_series(f, alpha)
    if kind == "scaled_arcsinh":
        return scaled_arcsinh_series(f)
    raise ValueError(f"unknown transcendental kind {kind!r}")
