"""Exact formal q-series with rational exponents, and the Goettsche series.

A QSeries stores finitely many exact rational coefficients c_k at exponents
k/denom together with a truncation bound trunc: every exponent strictly below
trunc is complete (absent means zero there); at or beyond trunc nothing is
claimed, and asking for such a coefficient raises an error instead of
silently returning 0.

Truncation propagates pessimistically through arithmetic.  For a product the
bound is min(a.trunc + b.min_exponent, b.trunc + a.min_exponent): a summand at
exponent e = e_a + e_b below that bound forces one factor's exponent below its
own truncation, where its coefficients are known.

The Goettsche series of a K3 surface,

    sum_n chi(Hilb^n) q^n = prod_{m>=1} (1 - q^m)^(-24),

is computed from its logarithmic derivative: q d/dq log of the product is
24 sum_k sigma(k) q^k, with sigma the divisor sum, so the coefficients c(n)
obey n c(n) = 24 sum_{k=1}^n sigma(k) c(n - k).  Each c(n) is an exact
integer from the ones before it, so the cached table grows one index at a
time.  The test suite checks it against an independent 24-colored-partition
dynamic program.
chi(Hilb^n) = 0 for n < 0 by convention; the virtual Euler characteristic
formula relies on this.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm
from operator import mul
from typing import NamedTuple

from .errors import InputError
from .lattice import _as_int


@dataclass(frozen=True)
class QSeries:
    """Finite exact q-expansion sum_k c_k q^(k/denom), complete below trunc."""

    denom: int
    coeffs: tuple[tuple[int, Fraction], ...]
    trunc: Fraction

    def __post_init__(self):
        if self.denom < 1:
            raise InputError("denominator must be positive")
        for k, c in self.coeffs:
            if Fraction(k, self.denom) >= self.trunc:
                raise InputError("coefficient stored at or beyond truncation")

    @classmethod
    def from_terms(cls, terms, trunc) -> "QSeries":
        """Build from a mapping {exponent: coefficient}; exponents rational."""
        trunc = Fraction(trunc)
        cleaned = {}
        for e, c in terms.items():
            e = Fraction(e)
            c = Fraction(c)
            if c == 0:
                continue
            if e >= trunc:
                raise InputError("coefficient at or beyond the truncation bound")
            cleaned[e] = cleaned.get(e, Fraction(0)) + c
        denom = 1
        for e in cleaned:
            denom = lcm(denom, e.denominator)
        keys = {int(e * denom): c for e, c in cleaned.items() if c != 0}
        if keys:
            g = gcd(denom, *(abs(k) for k in keys))
            if g > 1:
                denom //= g
                keys = {k // g: c for k, c in keys.items()}
        return cls(denom, tuple(sorted(keys.items())), trunc)

    @property
    def min_exponent(self) -> Fraction:
        """Lowest stored exponent; the truncation bound for the zero series."""
        if not self.coeffs:
            return self.trunc
        return Fraction(self.coeffs[0][0], self.denom)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def items(self):
        """Sorted (exponent, coefficient) pairs, exponents as Fractions."""
        return [(Fraction(k, self.denom), c) for k, c in self.coeffs]

    def coeff(self, e) -> Fraction:
        """Coefficient at exponent e; error if e is at or beyond trunc."""
        e = Fraction(e)
        if e >= self.trunc:
            raise InputError(
                f"coefficient at exponent {e} requested beyond truncation {self.trunc}")
        k = e * self.denom
        if k.denominator != 1:
            return Fraction(0)
        return self._index.get(int(k), Fraction(0))

    @cached_property
    def _index(self) -> dict:
        """coeffs as a dict, built on the first lookup; the series is immutable."""
        return dict(self.coeffs)

    def __add__(self, other):
        return qs_add(self, other)

    def __mul__(self, other):
        if isinstance(other, QSeries):
            return qs_mul(self, other)
        return qs_scale(self, other)

    __rmul__ = __mul__


def qs_add(a: QSeries, b: QSeries) -> QSeries:
    trunc = min(a.trunc, b.trunc)
    terms: dict[Fraction, Fraction] = {}
    for e, c in a.items() + b.items():
        if e < trunc:
            terms[e] = terms.get(e, Fraction(0)) + c
    return QSeries.from_terms(terms, trunc)


def qs_scale(a: QSeries, scalar) -> QSeries:
    scalar = Fraction(scalar)
    return QSeries.from_terms({e: scalar * c for e, c in a.items()}, a.trunc)


def qs_mul(a: QSeries, b: QSeries) -> QSeries:
    trunc = min(a.trunc + b.min_exponent, b.trunc + a.min_exponent)
    terms: dict[Fraction, Fraction] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            if e < trunc:
                terms[e] = terms.get(e, Fraction(0)) + ca * cb
    return QSeries.from_terms(terms, trunc)


def qs_substitute_power(s: QSeries, m: int) -> QSeries:
    """Substitute q -> q^m (m >= 1); exponents and truncation scale exactly."""
    if not isinstance(m, int) or m < 1:
        raise InputError("substitution power must be a positive integer")
    return QSeries.from_terms({e * m: c for e, c in s.items()}, s.trunc * m)


class QSeriesValue(NamedTuple):
    value: complex
    tail: float


def qs_evaluate(s: QSeries, tau: complex) -> QSeriesValue:
    """Evaluate at q = exp(2*pi*i*tau), Im tau > 0, with a tail estimate.

    The tail estimate extrapolates the omitted terms geometrically from the
    observed growth of the retained coefficients (a heuristic, adequate for
    eta-quotient-type series well inside the upper half plane); math.inf is
    reported when the extrapolation does not contract.
    """
    tau = complex(tau)
    if tau.imag <= 0:
        raise InputError("tau must lie in the upper half plane")
    q = cmath.exp(2j * cmath.pi * tau)
    entries = s.items()
    try:
        terms = [c * q ** float(e) for e, c in entries]
    except (OverflowError, ZeroDivisionError):     # q under- or overflows at this tau
        raise InputError("q-series terms are not representable at this tau") from None
    value = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    qa = abs(q)
    if not entries:
        return QSeriesValue(value, 0.0)
    # Growth per unit exponent, read off the top half of the expansion.
    growth = 1.0
    median = entries[len(entries) // 2][0]
    for (e1, c1), (e2, c2) in zip(entries, entries[1:]):
        if e1 >= median and float(c1) != 0.0:
            step = float(e2 - e1)
            growth = max(growth, (abs(float(c2)) / abs(float(c1))) ** (1.0 / step))
    x = growth * qa
    if x >= 1.0:
        return QSeriesValue(value, math.inf)
    e_last, c_last = entries[-1]
    base = abs(float(c_last)) * qa ** float(e_last)
    tail = base * x ** float(s.trunc - e_last) / (1.0 - x)
    return QSeriesValue(value, tail)


_hilb_euler: list[int] = [1]
_divisor_sums: list[int] = [0]


def _divisor_sum(k: int) -> int:
    """sigma(k): the sum of the positive divisors of k >= 1."""
    root = isqrt(k)
    total = sum(d + k // d for d in range(1, root + 1) if k % d == 0)
    return total - root if root * root == k else total


def hilb_euler(n: int) -> int:
    """Euler characteristic of the Hilbert scheme of n points on a K3.

    Coefficient of q^n in prod_{m>=1} (1 - q^m)^(-24); 0 for n < 0.
    """
    n = _as_int(n)
    if n < 0:
        return 0
    c = _hilb_euler
    if n >= len(c):
        sigma = _divisor_sums
        while len(sigma) <= n:
            sigma.append(_divisor_sum(len(sigma)))
        for m in range(len(c), n + 1):
            # m c(m) = 24 sum_{k=1}^m sigma(k) c(m-k); reversed(c) runs c(m-1), ..., c(0)
            c.append(24 * sum(map(mul, sigma[1:m + 1], reversed(c))) // m)
    return c[n]


def gottsche_series(order: int) -> QSeries:
    """sum_{n=0}^{order-1} chi(Hilb^n) q^n, truncated below q^order."""
    order = _as_int(order)
    if order < 1:
        raise InputError("order must be at least 1")
    return QSeries.from_terms({n: hilb_euler(n) for n in range(order)}, order)


def z1_zero(order: int) -> QSeries:
    """q^(-1) * Goettsche series: sum_{n>=0} chi(Hilb^n) q^(n-1), complete below q^order."""
    order = _as_int(order)
    if order < 0:
        raise InputError("order must be nonnegative")
    return QSeries.from_terms(
        {n - 1: hilb_euler(n) for n in range(order + 1)}, order)
