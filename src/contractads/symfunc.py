"""Truncated symmetric functions with QPoly coefficients.

A SymFunc is an honest symmetric polynomial in a fixed number of variables
D, stored sparsely on the monomial basis: the key lambda (a partition with
l(lambda) <= D) stands for m_lambda = Sym(x^lambda).  Products are computed
through the distinct-rearrangement expansion of m_lambda * m_mu, with the
integer structure constants memoised per variable count.  Working with at
least as many variables as the degree bound keeps every m_lambda coordinate
faithful.

The power sums p_n = m_(n) are first-class; conversion between the p and m
bases goes through the lower-triangular transition matrix.
"""

from __future__ import annotations

import functools
from collections import Counter
from fractions import Fraction
from typing import Iterable, Mapping

from .qpoly import QPoly

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
    f = 1
    for p in lam:
        for i in range(2, p + 1):
            f *= i
    return f


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


class SymFunc:
    """Symmetric polynomial in `nvars` variables on the monomial basis."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Partition, QPoly | int | Fraction] | None = None):
        if nvars < 1:
            raise ValueError("need at least one variable")
        t: dict[Partition, QPoly] = {}
        if terms:
            for lam, c in terms.items():
                lam = normalize_partition(lam)
                if len(lam) > nvars:
                    continue  # m_lambda vanishes in fewer variables
                coeff = c if isinstance(c, QPoly) else QPoly.const(c)
                if not coeff.is_zero():
                    t[lam] = coeff
        self.nvars = nvars
        self.terms = t

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
        return self.terms.get(normalize_partition(lam), QPoly.zero())

    def degree(self) -> int:
        return max((sum(lam) for lam in self.terms), default=0)

    def truncate(self, max_degree: int) -> "SymFunc":
        return SymFunc(self.nvars, {l: c for l, c in self.terms.items() if sum(l) <= max_degree})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QPoly)):
            other = SymFunc(self.nvars, {(): other})
        if not isinstance(other, SymFunc):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset((l, c) for l, c in self.terms.items())))

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "SymFunc"):
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, QPoly)):
            other = SymFunc(self.nvars, {(): other})
        self._check(other)
        t = dict(self.terms)
        for lam, c in other.terms.items():
            s = t.get(lam, QPoly.zero()) + c
            if s.is_zero():
                t.pop(lam, None)
            else:
                t[lam] = s
        out = SymFunc.__new__(SymFunc)
        out.nvars, out.terms = self.nvars, t
        return out

    __radd__ = __add__

    def __neg__(self):
        out = SymFunc.__new__(SymFunc)
        out.nvars = self.nvars
        out.terms = {l: -c for l, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, QPoly)):
            other = SymFunc(self.nvars, {(): other})
        return self + (-other)

    def scale(self, value) -> "SymFunc":
        c = value if isinstance(value, QPoly) else QPoly.const(value)
        return SymFunc(self.nvars, {l: c * v for l, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QPoly)):
            return self.scale(other)
        self._check(other)
        acc: dict[Partition, QPoly] = {}
        for lam, a in self.terms.items():
            for mu, b in other.terms.items():
                ab = a * b
                for nu, c in monomial_product(lam, mu, self.nvars).items():
                    s = acc.get(nu, QPoly.zero()) + ab * c
                    if s.is_zero():
                        acc.pop(nu, None)
                    else:
                        acc[nu] = s
        out = SymFunc.__new__(SymFunc)
        out.nvars, out.terms = self.nvars, acc
        return out

    __rmul__ = __mul__

    # -- basis conversion -----------------------------------------------------

    def to_p_basis(self) -> dict[Partition, QPoly]:
        """Coordinates on the p_lambda basis (requires nvars >= degree)."""
        deg = self.degree()
        if deg > self.nvars:
            raise ValueError("p-coordinates need at least `degree` variables to be faithful")
        out: dict[Partition, QPoly] = {}
        rest = {l: c for l, c in self.terms.items()}
        for d in range(deg, 0, -1):
            # peel degree-d part using the triangular p-to-m transition
            lams = [l for l in partitions_of(d) if len(l) <= self.nvars]
            p_rows = {lam: SymFunc.power_sum_product(lam, self.nvars).terms for lam in lams}
            # solve in reverse lexicographic order: p_lambda has leading m_lambda
            todo = {l: rest.get(l, QPoly.zero()) for l in lams}
            coeffs: dict[Partition, QPoly] = {}
            for lam in sorted(lams):
                cur = todo[lam]
                if cur.is_zero():
                    continue
                lead = p_rows[lam][lam]
                c = cur.divexact(lead)
                coeffs[lam] = c
                for nu, v in p_rows[lam].items():
                    todo[nu] = todo[nu] - c * v
            for lam, c in coeffs.items():
                out[lam] = c
            for lam in lams:
                if not todo[lam].is_zero():
                    raise AssertionError("p-basis conversion left a remainder")
                rest.pop(lam, None)
        const = rest.pop((), None)
        if const is not None and not const.is_zero():
            out[()] = const
        if rest:
            raise AssertionError("p-basis conversion missed terms")
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
