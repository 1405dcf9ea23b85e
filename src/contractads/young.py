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

YoungSeries and its two-colour specialisation BiSeries are rings of the one
sparse core of :mod:`.series` and supply only their key arithmetic.
Composition, reversion and the transcendental expansions are the single
series engine there; the young_* names below are bindings of it.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

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
    _SparseSeries,
    _coeff,
    exp_series,
    log1p_series,
    pow_param_series,
    scaled_arcsinh_series,
    series_compose,
    series_reverse,
)

Key = tuple[int, Partition]


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

    @staticmethod
    def _product(k1: Key, k2: Key, d: int) -> list[tuple[Key, int]]:
        (n1, lam), (n2, mu) = k1, k2
        n = n1 + n2
        if n + sum(lam) + sum(mu) > d:
            return []
        # the product is homogeneous: every nu has |nu| = |lam| + |mu|
        return [((n, nu), c) for nu, c in monomial_product(lam, mu, d).items()]

    __mul__ = _SparseSeries._mul

    def graphic_value(self, n: int, lam) -> QPoly:
        """Recover f(K_{(1^n) u lambda}) from the stored coefficient."""
        lam = normalize_partition(lam)
        return self.coefficient(n, lam) * (factorial(n) * partition_factorial(lam))

    def scale_x(self, value) -> "YoungSeries":
        """Substitute x_i -> value * x_i: each m_lambda picks up value^|lambda|."""
        c = _coeff(value)
        return YoungSeries(
            self.degree, {(n, lam): (c ** sum(lam)) * v for (n, lam), v in self.terms.items()}
        )

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
    def _split_z(key: tuple[int, int]) -> tuple[int, tuple[int, int]]:
        return key[1], (key[0], 0)

    __mul__ = _SparseSeries._mul
    reverse_z = series_reverse  # compositional inverse in z


def two_color_specialize(f: YoungSeries) -> BiSeries:
    """x_1 = t, all other variables 0: m_lambda -> t^|lambda| for l(lambda) <= 1."""
    terms: dict[tuple[int, int], QPoly] = {}
    for (n, lam), c in f.terms.items():
        if len(lam) <= 1:
            m = lam[0] if lam else 0
            terms[(m, n)] = c
    return BiSeries(f.degree, terms)
