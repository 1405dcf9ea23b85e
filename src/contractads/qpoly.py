"""Exact polynomials in q with rational coefficients.

Exponents are stored as even counts of q^(1/2) units, so a term at key k
means c * q^(k/2); the keys of :meth:`QPoly.items` and of the CLI's JSON are
that wire format.  The constructor rejects an odd key, and sums, products,
exact quotients and the q-substitutions never make one from even keys, so
every QPoly lies in Q[q].

A QPoly holds int numerators over one common denominator d >= 1 in lowest
terms (d = 1 for zero): sums work over the lcm of the denominators, products
over d1 * d2, and a result with d != 1 is reduced by one gcd.  Every reader
returns a coefficient as an `int` when it is integral, else a `Fraction` in
lowest terms.  No floating point is used anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Union

Scalar = Union[int, Fraction]


class ExactDivisionError(ArithmeticError):
    """Raised when a division that must be exact leaves a remainder."""


def _exact(value) -> Scalar:
    """value as an exact scalar: an int when integral, else a Fraction."""
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class QPoly:
    """Sparse polynomial in q over Q, keyed by even counts of q^(1/2) units:
    nonzero integer numerators `_c` over one denominator `_d`, in lowest
    terms; zero coefficients are never stored."""

    __slots__ = ("_c", "_d")

    def __init__(self, coeffs: Mapping[int, Scalar] | None = None):
        c, d = {}, 1
        if coeffs:
            for k, v in coeffs.items():
                if not isinstance(k, int) or k < 0 or k % 2:
                    raise ValueError(
                        f"exponent must be an even non-negative count of q^(1/2) units, got {k!r}"
                    )
                f = _exact(v)
                if f:
                    c[k] = f
                    if type(f) is not int:
                        d = math.lcm(d, f.denominator)
        if d != 1:  # the lcm of denominators in lowest terms leaves no common factor
            c = {k: f.numerator * (d // f.denominator) for k, f in c.items()}
        self._c, self._d = c, d

    @staticmethod
    def _reduced(c: dict[int, int], d: int) -> "QPoly":
        """The QPoly c / d for an int d >= 1, in lowest terms."""
        if d != 1:
            g = math.gcd(d, *c.values())
            if g != 1:
                c = {k: v // g for k, v in c.items()}
                d //= g
        out = QPoly.__new__(QPoly)
        out._c, out._d = c, d
        return out

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

    def _value(self, numerator: int) -> Scalar:
        return numerator if self._d == 1 else _exact(Fraction(numerator, self._d))

    def items(self):
        return sorted((k, self._value(v)) for k, v in self._c.items())

    def coeff_q(self, power: int) -> Scalar:
        """Coefficient of q**power."""
        return self._value(self._c.get(2 * power, 0))

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def degree_halves(self) -> int:
        """Largest stored exponent in q^(1/2) units; -1 for the zero polynomial."""
        return max(self._c) if self._c else -1

    def constant_term(self) -> Scalar:
        return self.coeff_q(0)

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
            return QPoly._reduced({0: other.numerator} if other else {}, other.denominator)
        return None

    def __add__(self, other):
        o = other if type(other) is QPoly else self._coerce(other)
        if o is None:
            return NotImplemented
        d, oc = self._d, o._c
        if d == o._d:
            c = dict(self._c)
        else:  # both over the lcm of the two denominators
            g = math.gcd(d, o._d)
            m, om = o._d // g, d // g
            c, oc, d = {k: v * m for k, v in self._c.items()}, {k: v * om for k, v in oc.items()}, d * m
        for k, v in oc.items():
            s = c.get(k, 0) + v
            if s:
                c[k] = s
            else:
                c.pop(k, None)
        if d != 1:
            return QPoly._reduced(c, d)
        out = QPoly.__new__(QPoly)
        out._c, out._d = c, 1
        return out

    __radd__ = __add__

    def __neg__(self):
        out = QPoly.__new__(QPoly)
        out._c, out._d = {k: -v for k, v in self._c.items()}, self._d
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
            # (n / g) * c / (d / g) for g = gcd(d, n) is in lowest terms
            g = 1 if self._d == 1 else math.gcd(self._d, other)
            m = other // g
            out = QPoly.__new__(QPoly)
            out._c, out._d = {k: v * m for k, v in self._c.items()} if m else {}, self._d // g
            return out
        o = other if type(other) is QPoly else self._coerce(other)
        if o is None:
            return NotImplemented
        c: dict[int, int] = {}
        for k1, v1 in self._c.items():
            for k2, v2 in o._c.items():
                k = k1 + k2
                s = c.get(k, 0) + v1 * v2
                if s:
                    c[k] = s
                else:
                    c.pop(k, None)
        d = self._d * o._d
        if d != 1:
            return QPoly._reduced(c, d)
        out = QPoly.__new__(QPoly)
        out._c, out._d = c, 1
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
        o = other if type(other) is QPoly else self._coerce(other)
        if o is None:
            return NotImplemented
        return self._d == o._d and self._c == o._c

    def __hash__(self):
        return hash(frozenset(self.items()))

    # -- specialisation and division ---------------------------------------

    def substitute(self, value: Scalar) -> Scalar:
        """Evaluate at q = value."""
        v = _exact(value)
        return _exact(Fraction(sum(c * v ** (k // 2) for k, c in self._c.items()), self._d))

    def scale_q(self, factor: Scalar) -> "QPoly":
        """Substitute q -> factor * q."""
        f = _exact(factor)
        return QPoly({k: c * f ** (k // 2) for k, c in self.items()})

    def reversed_q(self, degree: int) -> "QPoly":
        """q**degree * p(1/q) for p of q-degree <= degree."""
        out: dict[int, int] = {}
        for k, c in self._c.items():
            nk = 2 * degree - k
            if nk < 0:
                raise ValueError(f"degree {degree} too small to reverse {self}")
            out[nk] = c
        return QPoly._reduced(out, self._d)

    def divexact(self, divisor: "QPoly | Scalar") -> "QPoly":
        """Exact division; raises ExactDivisionError on a nonzero remainder."""
        d = self._coerce(divisor)
        if d is None:
            raise TypeError("divisor must be a QPoly or rational")
        if d.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        dd = d.degree_halves()
        lead = d._c[dd]
        # pseudo-division: |lead|^(m+1) * A = Q * B + R has integer Q and R
        # for A of q-degree m + dd/2, so every step divides exactly by lead
        scale = abs(lead) ** max(0, (self.degree_halves() - dd) // 2 + 1)
        rem = {k: v * scale for k, v in self._c.items()}
        quot: dict[int, int] = {}
        while rem:
            rd = max(rem)
            if rd < dd:
                raise ExactDivisionError(f"({self}) is not divisible by ({d})")
            qk = rd - dd
            qc = quot[qk] = rem[rd] // lead
            for k, v in d._c.items():
                nk = k + qk
                s = rem.get(nk, 0) - qc * v
                if s:
                    rem[nk] = s
                else:
                    rem.pop(nk, None)
        # (A / a) / (B / b) = Q * b / (a * |lead|^(m+1))
        return QPoly._reduced({k: v * d._d for k, v in quot.items()}, self._d * scale)

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
