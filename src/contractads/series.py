"""Truncated series: one sparse core, and the one series engine.

Every truncated series of the library is a `_SparseSeries`: a dict from
monomial keys to nonzero QPoly coefficients, truncated at a total degree
`degree`.  The core normalises terms and defines +, -, negation, scale,
exact scalar division (divexact), == and hash, truncation and the one
truncated product loop; a subclass supplies only its key arithmetic.  Four
rings use it: PowerSeries below (keys (n,), one variable 't' or 'z'),
YoungSeries (keys (n, lambda), Lambda_Q[[z]]) and BiSeries (keys (i, j),
series in (t, z)) in :mod:`.young`, and SymFunc (keys lambda, truncated by
length) in :mod:`.symfunc`.  Binary operations truncate at the smaller
degree, so precision loss is explicit and monotone.

The series engine below (composition, reversion by Newton iteration, and the
exp / log1p / pow_param / scaled-arcsinh expansions) is written once against
the core: besides +, -, * and scale(scalar) it uses the truncation `bound`
(the total degree), truncate(bound) and lift(bound) (to a smaller or larger
bound), constant_term(), const(value) and variable() (the series value and z
of the same shape and bound), and z_slices(): {n: the z-free series
multiplying z^n}, for a PowerSeries the constant series c_n.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import factorial
from operator import add
from typing import Mapping, Sequence

from .qpoly import QPoly, Scalar, binomial_param


def _coeff(value) -> QPoly:
    if isinstance(value, QPoly):
        return value
    return QPoly.const(value)


class _SparseSeries:
    """Dict from monomial keys to nonzero QPoly coefficients, truncated at
    total degree `degree` (at least `_MIN_DEGREE`).

    Subclasses supply the key arithmetic: `_ONE` and `_Z` are the keys of 1
    and z, and `_split_z` splits a key into the power of z and the z-free
    rest.  By default a key is an exponent vector: `_key` keeps it as given,
    `_weight` (its total degree) is its sum and `_product` adds two keys.
    Each subclass binds `__mul__ = _SparseSeries._mul` in its own body, where
    per-class instrumentation (`bench/tracer.py`) looks it up.
    """

    __slots__ = ("degree", "terms")
    _MIN_DEGREE = 1
    _weight = staticmethod(sum)

    def __init__(self, degree: int, terms: Mapping[tuple, QPoly | Scalar] | None = None):
        if degree < self._MIN_DEGREE:
            raise ValueError(f"degree bound must be >= {self._MIN_DEGREE}")
        self.degree = degree
        self.terms = self._normal(degree, terms or {})

    @classmethod
    def _normal(cls, degree: int, terms: Mapping) -> dict:
        """Normalised keys within the bound, each with its nonzero coefficient."""
        t: dict[tuple, QPoly] = {}
        for key, c in terms.items():
            key, coeff = cls._key(*key), _coeff(c)
            if cls._weight(key) <= degree and not coeff.is_zero():
                t[key] = coeff
        return t

    def _make(self, degree: int, terms: dict):
        """A series of the same ring as self on terms that are already
        normalised, within the bound and nonzero."""
        out = object.__new__(type(self))
        out.degree, out.terms = degree, terms
        return out

    @staticmethod
    def _key(*key) -> tuple:
        return key

    def _product(self, k1: tuple, k2: tuple, d: int):
        """The monomials of k1 * k2 within degree d, each with its integer
        coefficient."""
        key = tuple(map(add, k1, k2))
        return ((key, 1),) if self._weight(key) <= d else ()

    def _ring(self):
        """What two series must share besides their class: nothing here;
        PowerSeries adds its variable, SymFunc its variable count."""
        return None

    def _check(self, other):
        if self._ring() != other._ring():
            raise ValueError(f"variable mismatch: {self._ring()} vs {other._ring()}")

    @classmethod
    def constant(cls, degree: int, value):
        return cls(degree, {cls._ONE: value})

    @classmethod
    def z(cls, degree: int):
        return cls(degree, {cls._Z: QPoly.one()})

    # -- inspection -----------------------------------------------------------

    def coefficient(self, *key) -> QPoly:
        return self.terms.get(self._key(*key), QPoly.zero())

    def _upto(self, degree: int) -> dict:
        return {k: c for k, c in self.terms.items() if self._weight(k) <= degree}

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        d = min(self.degree, other.degree)
        return self._ring() == other._ring() and self._upto(d) == other._upto(d)

    def __hash__(self):
        # == compares up to the smaller degree, so hash only what every degree
        # keeps: the terms of total degree <= _MIN_DEGREE
        return hash(frozenset(self._upto(self._MIN_DEGREE).items()))

    # -- series-engine interface ------------------------------------------------

    @property
    def bound(self) -> int:
        return self.degree

    def const(self, value):
        return self._make(self.degree, self._normal(self.degree, {self._ONE: value}))

    def variable(self):
        return self._make(self.degree, self._normal(self.degree, {self._Z: 1}))

    def constant_term(self) -> QPoly:
        return self.terms.get(self._ONE, QPoly.zero())

    def truncate(self, degree: int):
        return self if degree >= self.degree else self._make(degree, self._upto(degree))

    def lift(self, degree: int):
        """The same terms at a bound of at least self's, the new terms zero."""
        return self._make(max(degree, self.degree), self.terms)

    def z_slices(self) -> dict:
        slices: dict[int, dict] = {}
        for key, c in self.terms.items():
            n, rest = self._split_z(key)
            slices.setdefault(n, {})[rest] = c
        return {n: self._make(self.degree, t) for n, t in slices.items()}

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        d = min(self.degree, other.degree)
        t = self._upto(d)
        for k, c in other._upto(d).items():
            s = t.get(k, QPoly.zero()) + c
            if s.is_zero():
                t.pop(k, None)
            else:
                t[k] = s
        return self._make(d, t)

    def __neg__(self):
        return self._make(self.degree, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def _room(self, key: tuple, d: int) -> int:
        """The most weight a term may have beside `key` in a product within degree d."""
        return d - self._weight(key)

    def _mul(self, other):
        """The truncated product, summed over the monomials `_product` gives
        for each pair of terms.  The right terms are sorted by weight, and
        each left key stops at the first right key past its `_room`."""
        self._check(other)
        d = min(self.degree, other.degree)
        right = sorted(other._upto(d).items(), key=lambda item: self._weight(item[0]))
        weights = [self._weight(k2) for k2, _ in right]
        acc: dict[tuple, QPoly] = {}
        for k1, a in self._upto(d).items():
            for k2, b in right[: bisect_right(weights, self._room(k1, d))]:
                monomials = self._product(k1, k2, d)
                if not monomials:
                    continue
                ab = a * b
                for key, c in monomials:
                    term = ab if c == 1 else ab * c
                    if key in acc:
                        term = acc[key] + term
                        if term.is_zero():
                            del acc[key]
                            continue
                    acc[key] = term
        return self._make(d, acc)

    def scale(self, value):
        c = _coeff(value)
        # Q[q] has no zero divisors, so only c = 0 empties a term
        return self._make(self.degree, {k: c * v for k, v in self.terms.items()} if c else {})

    def divexact(self, divisor):
        """Divide every coefficient exactly by a scalar or QPoly."""
        d = _coeff(divisor)
        return self._make(self.degree, {k: v.divexact(d) for k, v in self.terms.items()})


class PowerSeries(_SparseSeries):
    """Series in one variable `var` ('t' or 'z') with QPoly coefficients,
    truncated at order N >= 0 (its degree); the term of var^n has key (n,)."""

    __slots__ = ("var",)
    _MIN_DEGREE = 0
    _ONE = (0,)
    _Z = (1,)

    def __init__(self, var: str, order: int, coeffs: Sequence[QPoly | Scalar]):
        self.var = var
        super().__init__(order, {(n,): c for n, c in enumerate(coeffs)})
        if len(coeffs) != order + 1:
            raise ValueError(f"need exactly {order + 1} coefficients, got {len(coeffs)}")

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

    z = identity  # the core's z(degree) has no variable

    @classmethod
    def from_terms(cls, var: str, order: int, terms: dict[int, QPoly | Scalar]) -> "PowerSeries":
        return cls(var, order, [terms.get(n, 0) for n in range(order + 1)])

    def _make(self, degree: int, terms: dict) -> "PowerSeries":
        out = super()._make(degree, terms)
        out.var = self.var
        return out

    def _ring(self) -> str:
        return self.var

    @staticmethod
    def _split_z(key: tuple[int]) -> tuple[int, tuple[int]]:
        return key[0], (0,)

    __mul__ = _SparseSeries._mul

    # -- inspection --------------------------------------------------------

    @property
    def order(self) -> int:
        return self.degree

    @property
    def coeffs(self) -> tuple[QPoly, ...]:
        zero = QPoly.zero()
        return tuple(self.terms.get((n,), zero) for n in range(self.degree + 1))

    def coefficient(self, n: int) -> QPoly:
        if n > self.degree:
            raise IndexError(f"coefficient {n} beyond truncation order {self.degree}")
        return super().coefficient(n)

    # -- what only one variable allows ----------------------------------------

    def shift_down(self) -> "PowerSeries":
        """Divide by the variable; requires zero constant term."""
        if self._ONE in self.terms:
            raise ValueError("cannot divide by the variable: nonzero constant term")
        return PowerSeries.from_terms(
            self.var, self.degree - 1, {n - 1: c for (n,), c in self.terms.items()}
        )

    def invert_unit(self) -> "PowerSeries":
        """Multiplicative inverse; constant term must be a nonzero rational."""
        a0 = self.constant_term().as_fraction()
        if a0 == 0:
            raise ValueError("series has no inverse: zero constant term")
        inv0 = Fraction(1) / a0
        higher = sorted((n, c) for (n,), c in self.terms.items() if n)
        out = [QPoly.const(inv0)]
        for m in range(1, self.degree + 1):
            s = QPoly.zero()
            for k, c in higher:
                if k > m:
                    break
                s = s + c * out[m - k]
            out.append((-s) * inv0)
        return PowerSeries(self.var, self.degree, out)

    def __str__(self) -> str:
        parts = []
        for (n,), c in sorted(self.terms.items()):
            mono = "1" if n == 0 else (self.var if n == 1 else f"{self.var}^{n}")
            parts.append(f"({c})*{mono}" if n else f"({c})")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O({self.var}^{self.degree + 1})"

    __repr__ = __str__


# -- the series engine (interface in the module docstring) --------------------


def power_combination(g, slices: dict, what: str = "a power combination"):
    """sum_n slices[n] * g^n for z-free series slices[n].  g must have zero
    constant term, so that the powers beyond the truncation bound vanish."""
    if not g.constant_term().is_zero():
        raise ValueError(f"{what} needs zero constant term")
    powers = [g.const(1)]
    for _ in range(max(slices, default=0)):
        powers.append(powers[-1] * g)
    return sum((s * powers[n] for n, s in slices.items()), g.const(0))


def series_compose(f, g):
    """f with g substituted for z, truncated at the smaller bound; g must have
    zero constant term."""
    d = min(f.bound, g.bound)
    slices = {n: s for n, s in f.z_slices().items() if n <= d}
    return power_combination(g.truncate(d), slices, "the inner series of a composition")


def series_reverse(f):
    """Compositional inverse in z of f = z + (degree >= 2), verified on both
    sides.  Newton iteration from g = z: g <- g - (f o g - z) g' takes g exact
    through degree p to exact through 2p, as g' equals 1/f'(g) below degree
    p (f'(g) g' = 1 at the inverse) and f o g - z starts at degree p + 1."""
    z = f.variable()
    if f.bound < 1 or f.truncate(1) != z.truncate(1):
        raise ValueError("reversion requires the degree-1 part to be exactly z; normalise first")
    g = z.truncate(1)
    while g.bound < f.bound:
        zp = z.truncate(2 * g.bound)
        g = g.lift(zp.bound)
        dg = power_combination(zp, {n - 1: s.scale(n) for n, s in g.z_slices().items() if n})
        g = g - (series_compose(f, g) - zp) * dg
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
