"""Formal q-series with rational exponents, and the Goettsche series.

A QSeries stores finitely many coefficients c_k at exponents k/denom, keyed
by the integer index k over one denominator, together with a truncation
bound trunc: every exponent strictly below trunc is complete (absent means
zero there); at or beyond trunc nothing is claimed, and asking for such a
coefficient raises an error instead of silently returning 0.  The type is generic in its
coefficient ring: mpmath mpc on the literal Hecke path, else exact, and every producer,
constructor and operation stores an exact value as an int when it is integral, else as a
Fraction (_canonical).  coeff answers an absent exponent with 0 (an mpc zero on a literal series).

Producers and arithmetic work on the indices alone, rescaling operands to the
lcm of their denominators and comparing against the integer index
ceil(trunc * denom).  The trusted constructor QSeries._of drops zeros and
reduces by gcd(denom, k, ...); the public constructor and from_terms are the
checked boundary, and the constructor accepts only that canonical form, with
each coefficient an int, a finite mpc or what reads as a Fraction; from_terms takes only a
mapping.  + with another type is a TypeError, and so is a foreign operand of qs_add, qs_mul,
qs_scale, qs_substitute_power or qs_evaluate.

Truncation propagates pessimistically through arithmetic.  For a product the
bound is min(a.trunc + b.min_exponent, b.trunc + a.min_exponent): a summand at
exponent e = e_a + e_b below that bound forces one factor's exponent below its
own truncation, where its coefficients are known.

qs_evaluate sums the stored terms at a point of the upper half plane and claims
nothing past trunc: a bound on the omitted terms needs what the series is, so the
Goettsche-type sums bound theirs in k3tk.theta.  It reads a float view of the terms, built
on the first evaluation and kept on the series, so one evaluated at many tau converts once,
and returns a QSeriesValue, a Value record, so the module imports no typing.

The Goettsche series sum_n chi(Hilb^n) q^n = prod_{m>=1} (1 - q^m)^(-24) of a K3
surface stores the ints of the table in k3tk.moduli as they are (Miller's recurrence
and its work cap are described there); hilb_euler is the validated reader of that
table, 0 for n < 0.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import attrgetter

from .errors import InputError
from .lattice import Value, _as_int, _as_number, _at_least, _expect, _new, _set
from .moduli import _hilb_table


def _upper(tau) -> complex:
    """tau as a complex number: InputError unless a finite point with Im tau > 0."""
    tau = _as_number(tau, complex)
    if not tau.imag > 0:
        raise InputError("tau must lie in the upper half plane")
    return tau


class QSeries(Value):
    """Finite q-expansion sum_k c_k q^(k/denom), complete below trunc.

    The constructor accepts only the canonical form: ascending integer indices
    below trunc * denom, gcd(denom, k, ...) = 1, trunc stored as a Fraction.
    Zero coefficients may stay, as terms that were visited and cancelled.
    """

    __slots__ = ("denom", "coeffs", "trunc", "__dict__")     # __dict__ for _floats

    def __init__(self, denom: int, coeffs, trunc):
        denom = _at_least(denom, 1, "denominator")
        trunc = _as_number(trunc, Fraction)
        try:
            coeffs = tuple((_as_int(k), _coefficient(c)) for k, c in coeffs)
        except (TypeError, ValueError) as exc:
            raise InputError(f"malformed q-series: {exc}") from None
        keys = [k for k, _ in coeffs]
        if any(k1 >= k2 for k1, k2 in zip(keys, keys[1:])):
            raise InputError("q-series indices must be strictly ascending")
        if gcd(denom, *keys) > 1:
            raise InputError("q-series denominator is not reduced")
        if keys and keys[-1] >= trunc * denom:
            raise InputError("coefficient stored at or beyond truncation")
        _set(self, "denom", denom)
        _set(self, "coeffs", coeffs)
        _set(self, "trunc", trunc)

    @classmethod
    def _trusted(cls, denom: int, coeffs: tuple, trunc: Fraction) -> "QSeries":
        """The series of the canonical (denom, coeffs, trunc), which the caller guarantees."""
        s = _new(cls)
        _set(s, "denom", denom)
        _set(s, "coeffs", coeffs)
        _set(s, "trunc", trunc)
        return s

    @classmethod
    def _of(cls, denom: int, terms: dict, trunc: Fraction) -> "QSeries":
        """Trusted constructor from {k: c} at exponents k/denom, each below trunc.

        Drops zero coefficients, reduces by gcd(denom, k, ...) and sorts; the
        caller guarantees the rest, so nothing is re-validated.
        """
        terms = {k: c for k, c in terms.items() if c}
        g = gcd(denom, *terms)
        if g > 1:
            denom //= g
            terms = {k // g: c for k, c in terms.items()}
        return cls._trusted(denom, tuple(sorted(terms.items())), trunc)

    @classmethod
    def from_terms(cls, terms, trunc) -> "QSeries":
        """Build from a mapping {exponent: coefficient}; exponents rational."""
        trunc = _as_number(trunc, Fraction)
        if not hasattr(terms, "items"):
            raise InputError(f"expected a mapping {{exponent: coefficient}}, got {terms!r}")
        cleaned = {}
        for e, c in terms.items():
            e = _as_number(e, Fraction)
            c = _as_number(c, Fraction)
            if c == 0:
                continue
            if e >= trunc:
                raise InputError("coefficient at or beyond the truncation bound")
            cleaned[e] = cleaned.get(e, Fraction(0)) + c
        denom = lcm(*(e.denominator for e in cleaned))
        return cls._of(denom, {int(e * denom): _canonical(c) for e, c in cleaned.items()}, trunc)

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

    def coeff(self, e):
        """Coefficient at exponent e, 0 if absent (module docstring); error at or beyond trunc."""
        e = _as_number(e, Fraction)
        if e >= self.trunc:
            raise InputError(
                f"coefficient at exponent {e} requested beyond truncation {self.trunc}")
        zero = next((type(c)() for _, c in self.coeffs[:1] if hasattr(c, "_mpc_")), 0)
        k = e * self.denom
        if k.denominator != 1:
            return zero
        i = bisect_left(self.coeffs, (k.numerator,))     # (k,) never compares a coefficient
        return self.coeffs[i][1] if i < len(self.coeffs) and self.coeffs[i][0] == k else zero

    @cached_property
    def _floats(self) -> list:
        """(k / denom, complex(c)) per stored term, built on the first evaluation."""
        d = self.denom
        return [(k / d, complex(c)) for k, c in self.coeffs]

    def __add__(self, other):
        return qs_add(self, other) if isinstance(other, QSeries) else NotImplemented

    def __mul__(self, other):
        if isinstance(other, QSeries):
            return qs_mul(self, other)
        return qs_scale(self, other)

    __rmul__ = __mul__


def _coefficient(c):
    """A constructor coefficient: an int, or a finite mpmath complex (the literal Hecke path's,
    which pickling rebuilds through the constructor), as given; anything else as a Fraction."""
    if hasattr(c, "_mpc_"):
        _as_number(c, complex)      # InputError unless finite
        return c
    return c if type(c) is int else _canonical(_as_number(c, Fraction))


def _canonical(x):
    """An exact value as the producers store it: the int when integral, else as it is."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def _common(a: QSeries, b: QSeries, trunc: Fraction) -> tuple[int, int, int, int]:
    """(d, d / a.denom, d / b.denom, top): d = lcm of the denominators, and
    index k over d lies below trunc exactly when k < top."""
    d = lcm(a.denom, b.denom)
    return d, d // a.denom, d // b.denom, math.ceil(trunc * d)


def qs_add(a: QSeries, b: QSeries) -> QSeries:
    _expect(QSeries, a, b)
    trunc = min(a.trunc, b.trunc)
    d, ma, mb, top = _common(a, b, trunc)
    terms = {}
    for s, m in ((a, ma), (b, mb)):
        for k, c in s.coeffs:
            k *= m
            if k < top:
                terms[k] = terms[k] + c if k in terms else c
    return QSeries._of(d, {k: _canonical(c) for k, c in terms.items()}, trunc)


def qs_scale(a: QSeries, scalar) -> QSeries:
    _expect(QSeries, a)
    scalar = _as_number(scalar, Fraction)
    return QSeries._of(a.denom, {k: _canonical(scalar * c) for k, c in a.coeffs}, a.trunc)


def qs_mul(a: QSeries, b: QSeries) -> QSeries:
    _expect(QSeries, a, b)
    trunc = min(a.trunc + b.min_exponent, b.trunc + a.min_exponent)
    d, ma, mb, top = _common(a, b, trunc)
    bk = [(k * mb, c) for k, c in b.coeffs]
    terms = {}
    for ka, ca in a.coeffs:
        ka *= ma
        for kb, cb in bk:
            k = ka + kb
            if k >= top:        # b's indices ascend
                break
            terms[k] = terms[k] + ca * cb if k in terms else ca * cb
    return QSeries._of(d, {k: _canonical(c) for k, c in terms.items()}, trunc)


def qs_substitute_power(s: QSeries, m: int) -> QSeries:
    """Substitute q -> q^m (m >= 1); exponents and truncation scale exactly."""
    _expect(QSeries, s)
    m = _at_least(m, 1, "substitution power")
    return QSeries._of(s.denom, {k * m: c for k, c in s.coeffs}, s.trunc * m)


class QSeriesValue(Value):
    __slots__ = ("value",)      # complex


def _fsum(terms: list) -> complex:
    """The sum of complex terms, its real and imaginary parts each correctly rounded (fsum)."""
    return complex(math.fsum(map(attrgetter("real"), terms)),
                   math.fsum(map(attrgetter("imag"), terms)))


def qs_evaluate(s: QSeries, tau: complex) -> QSeriesValue:
    """The stored terms' sum at q = exp(2*pi*i*tau), Im tau > 0; nothing past trunc is claimed.

    The terms come from the series' float view, built once and kept on it: every exponent is
    one correctly rounded integer quotient over denom, and every coefficient (int, Fraction or
    mpc) the complex(c) that c * complex computes.  A view that overflows is not kept.
    """
    _expect(QSeries, s)
    tau = _upper(tau)
    try:
        q = cmath.exp(2j * cmath.pi * tau)      # ValueError: an infinite phase
        terms = [c * q ** e for e, c in s._floats]
    except (OverflowError, ValueError, ZeroDivisionError):  # q under- or overflows at this tau
        raise InputError("q-series terms are not representable at this tau") from None
    return QSeriesValue(_fsum(terms))


def hilb_euler(n: int) -> int:
    """Euler characteristic of the Hilbert scheme of n points on a K3; 0 for n < 0."""
    n = _as_int(n)
    return 0 if n < 0 else _hilb_table(n)[n]


def gottsche_series(order: int) -> QSeries:
    """sum_{n=0}^{order-1} chi(Hilb^n) q^n, truncated below q^order."""
    order = _at_least(order, 1, "order")
    return QSeries._of(1, dict(enumerate(_hilb_table(order - 1)[:order])), Fraction(order))


def z1_zero(order: int) -> QSeries:
    """q^(-1) * Goettsche series: sum_{n>=0} chi(Hilb^n) q^(n-1), complete below q^order."""
    order = _at_least(order, 0, "order")
    return QSeries._of(1, dict(enumerate(_hilb_table(order)[:order + 1], -1)), Fraction(order))
