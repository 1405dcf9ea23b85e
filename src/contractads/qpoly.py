"""Exact polynomials in q with rational coefficients.

Exponents are stored as even counts of q^(1/2) units, so a term at key k
means c * q^(k/2); the keys of :meth:`QPoly.items` and of the CLI's JSON are
that wire format.  The constructor rejects an odd key, and sums, products,
exact quotients and the q-substitutions never make one from even keys, so
every QPoly lies in Q[q].

A stored coefficient is an `int` when it is integral and otherwise a
`Fraction` in lowest terms: never a Fraction with denominator 1, never a
float.  The values the library certifies are integer polynomials, so their
products and sums run on ints and pay for no gcd.  No floating point is used
anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Union

Scalar = Union[int, Fraction]


class ExactDivisionError(ArithmeticError):
    """Raised when a division that must be exact leaves a remainder."""


def _exact(value) -> Scalar:
    """value as a stored coefficient: an int when integral, else a Fraction."""
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class QPoly:
    """Sparse polynomial in q over Q, keyed by even counts of q^(1/2) units,
    zero coefficients never stored; each coefficient is an int when
    integral, else a Fraction."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, Scalar] | None = None):
        c: dict[int, Scalar] = {}
        if coeffs:
            for k, v in coeffs.items():
                if not isinstance(k, int) or k < 0 or k % 2:
                    raise ValueError(
                        f"exponent must be an even non-negative count of q^(1/2) units, got {k!r}"
                    )
                f = _exact(v)
                if f:
                    c[k] = f
        self._c = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "QPoly":
        return cls()

    @classmethod
    def one(cls) -> "QPoly":
        return cls({0: 1})

    @classmethod
    def const(cls, value: Scalar) -> "QPoly":
        return cls({0: value})

    @classmethod
    def q(cls, power: int = 1) -> "QPoly":
        """q**power (integer power)."""
        return cls({2 * power: 1})

    # -- inspection --------------------------------------------------------

    def items(self):
        return sorted(self._c.items())

    def coeff_q(self, power: int) -> Scalar:
        """Coefficient of q**power."""
        return self._c.get(2 * power, 0)

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def degree_halves(self) -> int:
        """Largest stored exponent in q^(1/2) units; -1 for the zero polynomial."""
        return max(self._c) if self._c else -1

    def constant_term(self) -> Scalar:
        return self._c.get(0, 0)

    def as_fraction(self) -> Scalar:
        """The value of a constant polynomial."""
        if self._c and (len(self._c) > 1 or 0 not in self._c):
            raise ValueError(f"not a constant polynomial: {self}")
        return self.constant_term()

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(other) -> "QPoly | None":
        if isinstance(other, QPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return QPoly.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        c = dict(self._c)
        for k, v in o._c.items():
            s = c.get(k, 0) + v
            if s:
                c[k] = s if type(s) is int else _exact(s)
            else:
                c.pop(k, None)
        out = QPoly.__new__(QPoly)
        out._c = c
        return out

    __radd__ = __add__

    def __neg__(self):
        out = QPoly.__new__(QPoly)
        out._c = {k: -v for k, v in self._c.items()}
        return out

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if type(other) is int:
            # an int scales each coefficient; a nonzero one leaves none zero
            out = QPoly.__new__(QPoly)
            out._c = {
                k: v * other if type(v) is int else _exact(v * other) for k, v in self._c.items() if other
            }
            return out
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        c: dict[int, Scalar] = {}
        for k1, v1 in self._c.items():
            for k2, v2 in o._c.items():
                k = k1 + k2
                s = c.get(k, 0) + v1 * v2
                if s:
                    c[k] = s
                else:
                    c.pop(k, None)
        for k, v in c.items():
            if type(v) is not int:
                c[k] = _exact(v)
        out = QPoly.__new__(QPoly)
        out._c = c
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        result = QPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._c == o._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    # -- specialisation and division ---------------------------------------

    def substitute(self, value: Scalar) -> Scalar:
        """Evaluate at q = value."""
        v = _exact(value)
        return _exact(sum(c * v ** (k // 2) for k, c in self._c.items()))

    def scale_q(self, factor: Scalar) -> "QPoly":
        """Substitute q -> factor * q."""
        f = _exact(factor)
        return QPoly({k: c * f ** (k // 2) for k, c in self._c.items()})

    def reversed_q(self, degree: int) -> "QPoly":
        """q**degree * p(1/q) for p of q-degree <= degree."""
        out: dict[int, Scalar] = {}
        for k, c in self._c.items():
            nk = 2 * degree - k
            if nk < 0:
                raise ValueError(f"degree {degree} too small to reverse {self}")
            out[nk] = c
        return QPoly(out)

    def divexact(self, divisor: "QPoly | Scalar") -> "QPoly":
        """Exact division; raises ExactDivisionError on a nonzero remainder."""
        d = self._coerce(divisor)
        if d is None:
            raise TypeError("divisor must be a QPoly or rational")
        if d.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = dict(self._c)
        dd = d.degree_halves()
        lead = d._c[dd]
        quot: dict[int, Scalar] = {}
        while rem:
            rd = max(rem)
            if rd < dd:
                raise ExactDivisionError(f"({self}) is not divisible by ({d})")
            qk = rd - dd
            qc = _exact(Fraction(rem[rd], lead))  # int / int would be a float
            quot[qk] = qc
            for k, v in d._c.items():
                nk = k + qk
                s = rem.get(nk, 0) - qc * v
                if s:
                    rem[nk] = s
                else:
                    rem.pop(nk, None)
        return QPoly(quot)

    # -- display -----------------------------------------------------------

    @staticmethod
    def _fmt_exp(halves: int) -> str:
        if halves == 0:
            return ""
        if halves == 2:
            return "q"
        return f"q^{halves // 2}"

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for k, c in self.items():
            mono = self._fmt_exp(k)
            if not mono:
                term = str(c)
            elif c == 1:
                term = mono
            elif c == -1:
                term = f"-{mono}"
            else:
                term = f"{c}*{mono}"
            parts.append(term)
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"QPoly({dict(self.items())!r})"


def binomial_param(alpha: "QPoly | Scalar", k: int) -> QPoly:
    """Generalised binomial coefficient alpha*(alpha-1)*...*(alpha-k+1)/k!."""
    a = alpha if isinstance(alpha, QPoly) else QPoly.const(alpha)
    result = QPoly.one()
    for i in range(k):
        result = result * (a - i)
    return result * Fraction(1, math.factorial(k))
