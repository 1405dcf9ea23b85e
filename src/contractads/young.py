"""Young generating series: symmetric-function valued series in z.

For a graphic function f,

    F_Y(f)(z) = sum_{l(lambda)>=2} f(K_lambda) m_lambda / lambda!
              + sum_{n>=1, lambda} f(K_{(1^n) u lambda}) m_lambda/lambda! z^n/n!

collects the values of f on all connected complete multipartite graphs.  The
series lives in Lambda_Q[[z]] truncated by total degree (z-degree plus
symmetric-function degree), which is the unique filtration making
substitution into the z slot well defined.

Composition in z turns the Schmitt product into functional composition when
the right factor is connected; for a right factor g with g(P_1) = c != 1 the
coloured-operad semantics also rescale the symmetric variables, which is what
:meth:`YoungSeries.scale_x` provides.

YoungSeries and its two-colour specialisation BiSeries share one sparse core
and differ only in their key arithmetic.  Composition, reversion and the
transcendental expansions are the single series engine of :mod:`.series`;
the young_* names below are bindings of it.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Mapping

from .qpoly import QPoly
from .symfunc import (
    Partition,
    monomial_product,
    normalize_partition,
    partition_factorial,
    partitions_of,
)
from .graphs import multipartite_graph
from .graphic_functions import GraphicFunction
from .series import (
    _coeff,
    exp_series,
    log1p_series,
    pow_param_series,
    scaled_arcsinh_series,
    series_compose,
    series_reverse,
)

Key = tuple[int, Partition]


class _SparseSeries:
    """Dict from monomial keys to nonzero QPoly coefficients, truncated at
    total degree `degree`.

    Subclasses supply the key arithmetic: `_key` normalises a key (plain
    tuples by default), `_weight` is its total degree, `_split_z` splits it
    into the power of z and the z-free rest, `_ONE` and `_Z` are the keys of
    1 and z, and `__mul__` multiplies.
    """

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: Mapping[tuple, QPoly | int | Fraction] | None = None):
        if degree < 1:
            raise ValueError("degree bound must be >= 1")
        t: dict[tuple, QPoly] = {}
        for key, c in (terms or {}).items():
            key, coeff = self._key(*key), _coeff(c)
            if self._weight(key) <= degree and not coeff.is_zero():
                t[key] = coeff
        self.degree = degree
        self.terms = t

    @classmethod
    def _make(cls, degree: int, terms: dict):
        """Wrap terms that are already normalised, within the bound and nonzero."""
        out = cls.__new__(cls)
        out.degree, out.terms = degree, terms
        return out

    @staticmethod
    def _key(*key) -> tuple:
        return key

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
        return self._upto(d) == other._upto(d)

    def __hash__(self):
        # == compares up to the smaller degree, so hash only what every degree
        # (>= 1) keeps: the terms of total degree <= 1
        return hash(frozenset(self._upto(1).items()))

    # -- series-engine interface ------------------------------------------------

    @property
    def bound(self) -> int:
        return self.degree

    def const(self, value):
        return self.constant(self.degree, value)

    def variable(self):
        return self.z(self.degree)

    def constant_term(self) -> QPoly:
        return self.terms.get(self._ONE, QPoly.zero())

    def truncate(self, degree: int):
        return self if degree >= self.degree else self._make(degree, self._upto(degree))

    def z_slices(self) -> dict:
        slices: dict[int, dict] = {}
        for key, c in self.terms.items():
            n, rest = self._split_z(key)
            slices.setdefault(n, {})[rest] = c
        return {n: self._make(self.degree, t) for n, t in slices.items()}

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
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

    def scale(self, value):
        c = _coeff(value)
        # Q[q^(1/2)] has no zero divisors, so only c = 0 empties a term
        return self._make(self.degree, {k: c * v for k, v in self.terms.items()} if c else {})


class YoungSeries(_SparseSeries):
    """Element of Lambda_Q[[z]] truncated at total degree `degree`.

    Terms map (n, lambda) to the raw coefficient of z^n m_lambda; the
    factorial normalisations live in the accessors.
    """

    __slots__ = ()
    _ONE: Key = (0, ())
    _Z: Key = (1, ())

    @staticmethod
    def _key(n: int, lam) -> Key:
        if n < 0:
            raise ValueError("negative z-exponent")
        return (n, normalize_partition(lam))

    @staticmethod
    def _weight(key: Key) -> int:
        return key[0] + sum(key[1])

    @staticmethod
    def _split_z(key: Key) -> tuple[int, Key]:
        return key[0], (0, key[1])

    def graphic_value(self, n: int, lam) -> QPoly:
        """Recover f(K_{(1^n) u lambda}) from the stored coefficient."""
        lam = normalize_partition(lam)
        return self.coefficient(n, lam) * (factorial(n) * partition_factorial(lam))

    def divexact(self, divisor) -> "YoungSeries":
        d = _coeff(divisor)
        return YoungSeries(self.degree, {k: v.divexact(d) for k, v in self.terms.items()})

    def scale_x(self, value) -> "YoungSeries":
        """Substitute x_i -> value * x_i: each m_lambda picks up value^|lambda|."""
        c = _coeff(value)
        return YoungSeries(
            self.degree, {(n, lam): (c ** sum(lam)) * v for (n, lam), v in self.terms.items()}
        )

    def __mul__(self, other: "YoungSeries") -> "YoungSeries":
        d = min(self.degree, other.degree)
        acc: dict[Key, QPoly] = {}
        for (n1, lam), a in self.terms.items():
            base1 = n1 + sum(lam)
            if base1 > d:
                continue
            for (n2, mu), b in other.terms.items():
                if base1 + n2 + sum(mu) > d:
                    continue
                ab = a * b
                n = n1 + n2
                for nu, c in monomial_product(lam, mu, d).items():
                    if n + sum(nu) > d:
                        continue
                    key = (n, nu)
                    s = acc.get(key, QPoly.zero()) + ab * c
                    if s.is_zero():
                        acc.pop(key, None)
                    else:
                        acc[key] = s
        return self._make(d, acc)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (n, lam) in sorted(self.terms, key=lambda k: (k[0] + sum(k[1]), k[0], k[1])):
            c = self.terms[(n, lam)]
            mono = []
            if n:
                mono.append("z" if n == 1 else f"z^{n}")
            if lam:
                mono.append("m" + str(tuple(lam)).replace(" ", ""))
            parts.append(f"({c})*{'*'.join(mono) if mono else '1'}")
        return " + ".join(parts)

    __repr__ = __str__


# -- assembly from a graphic function ------------------------------------------


def young_of_graphic(f: GraphicFunction, degree: int) -> YoungSeries:
    """Assemble F_Y(f) by evaluating f on the connected complete multipartite
    graphs with at most `degree` vertices."""
    terms: dict[Key, QPoly] = {}
    for n in range(0, degree + 1):
        for total in range(0, degree - n + 1):
            for lam in partitions_of(total):
                if n == 0 and len(lam) < 2:
                    continue  # K_(m) is disconnected, K_() is empty
                parts = tuple(sorted(lam + (1,) * n, reverse=True))
                weight = Fraction(1, factorial(n) * partition_factorial(lam))
                terms[(n, lam)] = _coeff(f(multipartite_graph(parts))) * weight
    return YoungSeries(degree, terms)


# -- composition, reversion and transcendentals: the engine of .series ------------

young_compose = series_compose
young_reverse = series_reverse
young_exp = exp_series
young_log1p = log1p_series


# -- closed forms -----------------------------------------------------------------


def power_sum_exp_tail(degree: int) -> YoungSeries:
    """sum_{n>=1} p_n / n! up to the degree bound."""
    return YoungSeries(
        degree, {(0, (n,)): Fraction(1, factorial(n)) for n in range(1, degree + 1)}
    )


def sinh_tail(degree: int) -> YoungSeries:
    """SINH_q = sum_{n>=0} p_{2n+1} q^n / (2n+1)!."""
    return YoungSeries(
        degree,
        {
            (0, (2 * k + 1,)): QPoly.q(k) * Fraction(1, factorial(2 * k + 1))
            for k in range(0, (degree - 1) // 2 + 1)
        },
    )


def young_closed_form(target: str, degree: int) -> YoungSeries:
    """Closed forms over complete multipartite graphs.

    chromatic:          (1 + z + sum p_n/n!)^q - 1 - sum p_n q^n/n!
    modular_complex_G:  q/(q-1) z - 1/(q(q-1)) [same bracket]; the
                        compositional inverse in z of F_Y of the complex
                        wonderful series
    modular_real:       exp((1/sqrt q) arcsinh(sqrt q (z + SINH_q)))
                        - 1 - sum p_n/n!
    """
    target = target.lower()
    q = QPoly.q()
    if target == "chromatic":
        tail = power_sum_exp_tail(degree)
        base = pow_param_series(YoungSeries.z(degree) + tail, q)
        return base - YoungSeries.constant(degree, 1) - tail.scale_x(q)
    if target == "modular_complex_g":
        chrom = young_closed_form("chromatic", degree)
        numerator = YoungSeries.z(degree).scale(q * q) - chrom
        return numerator.divexact(q * (q - QPoly.one()))
    if target == "modular_real":
        f = YoungSeries.z(degree) + sinh_tail(degree)
        return (
            exp_series(scaled_arcsinh_series(f))
            - YoungSeries.constant(degree, 1)
            - power_sum_exp_tail(degree)
        )
    raise ValueError(f"unknown target {target!r}")


# -- two-colour specialisation -----------------------------------------------------


class BiSeries(_SparseSeries):
    """Series in (t, z) truncated by total degree; values QPoly.

    This is the x_1 = t, x_2 = x_3 = ... = 0 specialisation target: only
    m_(m) = p_m survive, as t^m.  Keys are (t-exponent, z-exponent).
    """

    __slots__ = ()
    _ONE = (0, 0)
    _Z = (0, 1)

    @staticmethod
    def _weight(key: tuple[int, int]) -> int:
        return key[0] + key[1]

    @staticmethod
    def _split_z(key: tuple[int, int]) -> tuple[int, tuple[int, int]]:
        return key[1], (key[0], 0)

    def __mul__(self, other: "BiSeries") -> "BiSeries":
        d = min(self.degree, other.degree)
        acc: dict[tuple[int, int], QPoly] = {}
        for (i1, j1), a in self.terms.items():
            for (i2, j2), b in other.terms.items():
                i, j = i1 + i2, j1 + j2
                if i + j > d:
                    continue
                s = acc.get((i, j), QPoly.zero()) + a * b
                if s.is_zero():
                    acc.pop((i, j), None)
                else:
                    acc[(i, j)] = s
        return self._make(d, acc)

    compose_z = series_compose  # substitute the argument for z
    reverse_z = series_reverse  # compositional inverse in z


def two_color_specialize(f: YoungSeries) -> BiSeries:
    """x_1 = t, all other variables 0: m_lambda -> t^|lambda| for l(lambda) <= 1."""
    terms: dict[tuple[int, int], QPoly] = {}
    for (n, lam), c in f.terms.items():
        if len(lam) <= 1:
            m = lam[0] if lam else 0
            terms[(m, n)] = c
    return BiSeries(f.degree, terms)
