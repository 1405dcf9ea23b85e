"""Truncated symmetric functions with QPoly coefficients.

A SymFunc is an honest symmetric polynomial in a fixed number of variables
D, stored sparsely on the monomial basis: the key lambda (a partition with
l(lambda) <= D) stands for m_lambda = Sym(x^lambda).  It is a ring of the
sparse core of :mod:`.series`, truncated by length rather than degree.
Products are computed through the distinct-rearrangement expansion of
m_lambda * m_mu, with the integer structure constants memoised per variable
count.  Working with at least as many variables as the degree bound keeps
every m_lambda coordinate faithful.

The power sums p_n = m_(n) are first-class; conversion to the p basis peels
off one p_lambda at a time along the triangular p-to-m transition.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from fractions import Fraction
from typing import Iterable

from .qpoly import QPoly
from .series import _SparseSeries

Partition = tuple[int, ...]


def normalize_partition(parts: Iterable[int]) -> Partition:
    lam = tuple(sorted((int(p) for p in parts if p), reverse=True))
    if any(p < 0 for p in lam):
        raise ValueError("partition parts must be positive")
    return lam


def partitions_of(n: int, max_part: int | None = None) -> list[Partition]:
    """All partitions of n, largest part first."""
    if n == 0:
        return [()]
    cap = n if max_part is None else min(max_part, n)
    out = []
    for first in range(cap, 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return out


def partitions_upto(n: int) -> list[Partition]:
    out: list[Partition] = []
    for d in range(n + 1):
        out.extend(partitions_of(d))
    return out


def partition_factorial(lam: Partition) -> int:
    return math.prod(map(math.factorial, lam))


def _arrangement_codes(lam: Partition, slots: int, base: int) -> list[int]:
    """Every distinct arrangement of lam's parts and slots - len(lam) zeros,
    read as the digits of a number in `base` with slot 0 leading, in
    increasing order (the lexicographic order of the arrangements)."""
    left = Counter(lam)
    left[0] += slots - len(lam)
    values = sorted(left)
    codes: list[int] = []

    def place(code: int, free: int):
        if not free:
            codes.append(code)
            return
        for v in values:
            if left[v]:
                left[v] -= 1
                place(code * base + v, free - 1)
                left[v] += 1

    place(0, slots)
    return codes


def monomial_product(lam: Partition, mu: Partition, nvars: int) -> dict[Partition, int]:
    """m_lambda * m_mu in nvars variables, as integer m-coordinates."""
    if lam > mu:
        lam, mu = mu, lam
    return _monomial_product(lam, mu, nvars)


@functools.cache
def _monomial_product(lam: Partition, mu: Partition, nvars: int) -> dict[Partition, int]:
    if max(len(lam), len(mu)) > nvars:
        return {}
    # no m_nu of the product has more than len(lam) + len(mu) parts, and the
    # coefficient of m_nu is the same in any number of variables >= len(nu)
    slots = min(nvars, len(lam) + len(mu))
    # no slot of a sum of two arrangements exceeds 2 * max part: digits never carry
    base = 2 * max(lam + mu, default=0) + 1
    right = _arrangement_codes(mu, slots, base)
    counts = Counter(a + b for a in _arrangement_codes(lam, slots, base) for b in right)
    # the product is symmetric, so the sorted arrangement (zeros last)
    # carries the m-coordinate
    out: dict[Partition, int] = {}
    for code, c in counts.items():
        last_first = []
        for _ in range(slots):
            code, digit = divmod(code, base)
            last_first.append(digit)
        if all(x <= y for x, y in zip(last_first, last_first[1:])):
            out[tuple(x for x in reversed(last_first) if x)] = c
    return out


class SymFunc(_SparseSeries):
    """Symmetric polynomial in `nvars` variables on the monomial basis.

    A ring of the sparse core of :mod:`.series`: the key lambda stands for
    m_lambda, and Lambda is truncated by length, since the m_lambda with more
    than nvars parts vanish and span an ideal.  The core's bound is the
    variable count, which two operands must share; an int, Fraction or QPoly
    operand is the constant symmetric function.  There is no z, so the
    series engine does not apply, and `truncate(k)` sets the variables
    above the k-th to zero.
    """

    __slots__ = ()
    _ONE: Partition = ()
    _weight = staticmethod(len)
    _room = staticmethod(lambda lam, nvars: nvars)  # lengths do not add under m_lam * m_mu

    @staticmethod
    def _key(*parts: int) -> Partition:
        return normalize_partition(parts)

    @staticmethod
    def _product(lam: Partition, mu: Partition, nvars: int):
        return monomial_product(lam, mu, nvars).items()

    def _ring(self) -> int:
        return self.degree

    @property
    def nvars(self) -> int:
        return self.degree

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "SymFunc":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "SymFunc":
        return cls(nvars, {(): QPoly.one()})

    @classmethod
    def monomial(cls, lam: Iterable[int], nvars: int) -> "SymFunc":
        return cls(nvars, {normalize_partition(lam): QPoly.one()})

    @classmethod
    def power_sum(cls, n: int, nvars: int) -> "SymFunc":
        """p_n = sum x_i^n = m_(n)."""
        if n < 1:
            raise ValueError("power sums start at p_1")
        return cls(nvars, {(n,): QPoly.one()})

    @classmethod
    def power_sum_product(cls, lam: Iterable[int], nvars: int) -> "SymFunc":
        out = cls.one(nvars)
        for p in normalize_partition(lam):
            out = out * cls.power_sum(p, nvars)
        return out

    # -- inspection --------------------------------------------------------

    def m_coefficient(self, lam: Iterable[int]) -> QPoly:
        return self.coefficient(*lam)

    def is_zero(self) -> bool:
        return not self.terms

    # -- arithmetic with scalars as constants ----------------------------------

    def _lift(self, other):
        return self.const(other) if isinstance(other, (int, Fraction, QPoly)) else other

    def __add__(self, other):
        return super().__add__(self._lift(other))

    __radd__ = __add__

    def __eq__(self, other):
        return super().__eq__(self._lift(other))

    def __hash__(self):
        # == needs equal variable counts, so equal values share every term
        return hash((self.nvars, frozenset(self.terms.items())))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QPoly)):
            return self.scale(other)
        return self._mul(other)

    __rmul__ = __mul__

    # -- basis conversion -----------------------------------------------------

    def to_p_basis(self) -> dict[Partition, QPoly]:
        """Coordinates on the p_lambda basis (requires nvars >= degree).

        p_lambda has leading term m_lambda, and its other m_nu have |nu| =
        |lambda| and nu lexicographically above lambda (Macdonald I (6.9)).
        So the least remaining m_lambda, in (|lambda|, lex) order, is always
        the leading term of the next p_lambda to peel off.
        """
        if any(sum(lam) > self.nvars for lam in self.terms):
            raise ValueError("p-coordinates need at least `degree` variables to be faithful")
        out: dict[Partition, QPoly] = {}
        rest = self
        while rest.terms:
            lam = min(rest.terms, key=lambda l: (sum(l), l))
            p = SymFunc.power_sum_product(lam, self.nvars)
            out[lam] = c = rest.terms[lam].divexact(p.terms[lam])
            rest = rest - p.scale(c)
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for lam in sorted(self.terms, key=lambda l: (sum(l), l)):
            c = self.terms[lam]
            name = "1" if not lam else "m" + str(tuple(lam)).replace(" ", "")
            parts.append(f"({c})*{name}")
        return " + ".join(parts)

    __repr__ = __str__
