"""Rank-r partition functions of the surface, computed three independent ways.

The virtual Euler characteristic of a Mukai vector v is the divisor sum

    chi_virtual(v) = sum_{v = a w, a >= 1} chi(Hilb^{<w^2>/2 + 1}) / a^2,

with chi(Hilb^m) = 0 for m < 0.  For primitive v it reduces to the honest
Euler characteristic of the moduli space; for non-primitive v the formula is
implemented as stated with no claim that it equals a geometric Euler
characteristic of any compactification.

The fixed-determinant partition function for rank r and c1 = alpha is

    Z_r^alpha(tau) = sum_{rk v = r, c1(v) = alpha} chi_virtual(v) q^{<v^2>/2r},

a q-series with exponent offset (alpha^2)/2r (z_psu_direct).  The same series
arises as a Hecke transform of order r of the rank-1 series q^{-1} G(q):

    Z_r^alpha = (1/r^2) sum_{ad = r, a | alpha, 0 <= b < d}
                d * Z_1^0((a tau + b)/d) * e(-b (xi^2) / 2d),   xi = alpha/a,

where e(t) = exp(2 pi i t) and (xi^2) is the self-intersection.  Summing the
root-of-unity phases over b projects onto one congruence class:

    sum_{b=0}^{d-1} e(b m / d) = d  if d | m,  else 0,

with m = (n - 1) - (xi^2)/2 for the coefficient of q^{a(n-1)/d}.  Applying
the projection analytically gives the exact rational path (z_psu_hecke);
keeping the literal triple sum with floating-point phases gives the numeric
validation path (z_psu_hecke_literal).  The literal path must reproduce the
exact coefficients to 1e-9 and have imaginary parts below 1e-9; it runs in
mpmath with working precision scaled to the largest coefficient, because the
Hilbert-scheme Euler numbers involved overflow double-precision accuracy at
the orders the exact paths reach.

For the record (not verified numerically here): on an actual K3 surface the
rank-r series is expected to satisfy

    Z_r^alpha(-1/tau) = r^(-11) (-i tau)^(-12)
                        sum_beta e(Q(alpha, beta)/r) Z_r^beta(tau),

with beta running over the mod-r classes of the full rank-22 lattice.  The
constants are specific to that lattice, so only the r = 1 specialization
(no beta-sum, weight -12) is checked numerically, in the q-series tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import ConsistencyError, InputError
from .lattice import EvenLattice, MukaiVector, _as_int, _as_ints, content, square
from .qseries import QSeries, hilb_euler

LITERAL_TOL = 1e-9


def chi_virtual(v: MukaiVector, lat: EvenLattice) -> Fraction:
    """Divisor-sum virtual Euler characteristic; denominator divides content^2."""
    if v.r <= 0:
        raise InputError("rank must be positive")
    sq = square(v, lat)
    c = content(v)
    total = Fraction(0)
    for a in range(1, c + 1):
        if c % a:
            continue
        idx = sq // (2 * a * a) + 1          # <(v/a)^2>/2 + 1
        total += Fraction(hilb_euler(idx), a * a)
    return total


def _check_rank_alpha(r: int, alpha, lat: EvenLattice) -> tuple[int, tuple[int, ...]]:
    r = _as_int(r)
    if r < 1:
        raise InputError("rank must be a positive integer")
    alpha = _as_ints(alpha)
    lat.check_vector(alpha)
    return r, alpha


def z_psu_direct(r: int, alpha, order, lat: EvenLattice) -> QSeries:
    """Direct coefficient-by-coefficient sum of Z_r^alpha below q^order.

    Exponents run over [(alpha^2) - 2ra]/2r in [-r, order); -r is the proven
    floor since <v^2> >= -2 content(v)^2 >= -2 r^2 whenever chi_virtual is
    nonzero.
    """
    r, alpha = _check_rank_alpha(r, alpha, lat)
    order = Fraction(order)
    s_alpha = lat.quad(alpha)
    a_max = math.floor(Fraction(s_alpha + 2 * r * r, 2 * r))
    a_min = math.floor((Fraction(s_alpha) - 2 * r * order) / (2 * r)) + 1
    terms: dict[Fraction, Fraction] = {}
    for a in range(a_min, a_max + 1):
        coeff = chi_virtual(MukaiVector(r, alpha, a), lat)
        if coeff:
            terms[Fraction(s_alpha - 2 * r * a, 2 * r)] = coeff
    return QSeries.from_terms(terms, order)


def _hecke_factorizations(r: int, alpha) -> list[tuple[int, int, tuple[int, ...]]]:
    """(a, d, xi = alpha/a) for every factorization a d = r with a | alpha."""
    out = []
    for a in range(1, r + 1):
        if r % a:
            continue
        if any(x % a for x in alpha):
            continue
        out.append((a, r // a, tuple(x // a for x in alpha)))
    return out


def _n_top(a: int, d: int, order: Fraction) -> int:
    """Largest n >= 0 with a (n - 1) / d < order, or -1 if none."""
    bound = 1 + Fraction(d, a) * order     # n < bound
    top = math.floor(bound)
    if top == bound:
        top -= 1
    return top


def z_psu_hecke(r: int, alpha, order, lat: EvenLattice) -> QSeries:
    """Hecke-transform path with the b-sum projection applied analytically."""
    r, alpha = _check_rank_alpha(r, alpha, lat)
    order = Fraction(order)
    terms: dict[Fraction, Fraction] = {}
    for a, d, xi in _hecke_factorizations(r, alpha):
        m0 = (lat.quad(xi) // 2 + 1) % d    # n must be congruent to this mod d
        for n in range(m0, _n_top(a, d, order) + 1, d):
            e = Fraction(a * (n - 1), d)
            terms[e] = terms.get(e, Fraction(0)) + Fraction(d * d * hilb_euler(n), r * r)
    return QSeries.from_terms(terms, order)


@dataclass(frozen=True)
class NumericSeries:
    """q-expansion with arbitrary-precision complex coefficients."""

    denom: int
    coeffs: tuple[tuple[int, object], ...]
    trunc: Fraction

    def items(self):
        return [(Fraction(k, self.denom), c) for k, c in self.coeffs]

    def coeff(self, e):
        e = Fraction(e)
        if e >= self.trunc:
            raise InputError(
                f"coefficient at exponent {e} requested beyond truncation {self.trunc}")
        k = e * self.denom
        if k.denominator != 1:
            return mpmath.mpc(0)
        return dict(self.coeffs).get(int(k), mpmath.mpc(0))


def z_psu_hecke_literal(r: int, alpha, order, lat: EvenLattice) -> NumericSeries:
    """Literal (a, b, d) triple sum with floating-point root-of-unity phases.

    Cross-checked against z_psu_hecke before returning: imaginary parts and
    deviations of real parts from the exact rationals beyond 1e-9 raise
    ConsistencyError (they would signal a formula bug, not noise).
    """
    if r > 12:
        raise InputError("literal Hecke path is limited to rank <= 12")
    r, alpha = _check_rank_alpha(r, alpha, lat)
    order = Fraction(order)
    exact = z_psu_hecke(r, alpha, order, lat)

    factorizations = _hecke_factorizations(r, alpha)
    max_chi = 1
    for a, d, _ in factorizations:
        top = _n_top(a, d, order)
        if top >= 0:
            max_chi = max(max_chi, hilb_euler(top))
    dps = 40 + len(str(max_chi))

    with mpmath.workdps(dps):
        acc: dict[Fraction, mpmath.mpc] = {}
        for a, d, xi in factorizations:
            s_xi = lat.quad(xi)
            for n in range(0, _n_top(a, d, order) + 1):
                chi = hilb_euler(n)
                phase_sum = mpmath.mpc(0)
                for b in range(d):
                    # angle in full turns: b(n-1)/d - b (xi^2)/(2d), reduced mod 1
                    turns = Fraction(b * (2 * (n - 1) - s_xi), 2 * d)
                    turns = Fraction(turns.numerator % turns.denominator,
                                     turns.denominator)
                    phase_sum += mpmath.expjpi(
                        2 * mpmath.mpf(turns.numerator) / turns.denominator)
                e = Fraction(a * (n - 1), d)
                acc[e] = acc.get(e, mpmath.mpc(0)) + d * chi * phase_sum
        rr = mpmath.mpf(r * r)
        acc = {e: c / rr for e, c in acc.items()}

        for e in sorted(set(acc) | {e for e, _ in exact.items()}):
            lit = acc.get(e, mpmath.mpc(0))
            want = exact.coeff(e)
            want_mp = mpmath.mpf(want.numerator) / want.denominator
            if abs(mpmath.im(lit)) >= LITERAL_TOL:
                raise ConsistencyError(
                    f"literal Hecke path: imaginary residue {mpmath.im(lit)} at q^{e}")
            if abs(mpmath.re(lit) - want_mp) >= LITERAL_TOL:
                raise ConsistencyError(
                    f"literal Hecke path: coefficient at q^{e} deviates from exact value")

        denom = 1
        for e in acc:
            denom = math.lcm(denom, e.denominator)
        coeffs = tuple(sorted(((int(e * denom), c) for e, c in acc.items()),
                              key=lambda t: t[0]))
    return NumericSeries(denom, coeffs, order)
