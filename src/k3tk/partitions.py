"""Rank-r partition functions of the surface, computed three independent ways.

The virtual Euler characteristic of a Mukai vector v is the divisor sum

    chi_virtual(v) = sum_{v = a w, a >= 1} chi(Hilb^{<w^2>/2 + 1}) / a^2,

with chi(Hilb^m) = 0 for m < 0.  For primitive v it reduces to the honest
Euler characteristic of the moduli space; for non-primitive v the formula is
implemented as stated with no claim that it equals a geometric Euler
characteristic of any compactification.  It depends on v only through the
integers <v^2> and content(v), and every path reads it from one integer
helper keyed by that pair, k3tk.moduli._chi_scaled.  chi_virtual, like every
exact coefficient here, is an int when integral and a Fraction otherwise (_exact).

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
keeping the literal triple sum with floating-point phases e(b m / d), the d
roots e(j / d) and the d sums over b computed once per factorization, gives
the numeric path (z_psu_hecke_literal), whose bits are those of the per-term
sum (its docstring says where it rounds).  Each path counts its terms first and
refuses more than errors.MAX_WORK.

Every path keys its coefficients by integer index: the direct path by <v^2>
over 2r, the Hecke paths by a^2 (n - 1) over r (a (n - 1)/d = a^2 (n - 1)/r),
and the exact Hecke path sums integer numerators r^2 c_k.  The literal path
runs in mpmath, imported only there, so the exact paths load no
floating-point library.

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
from fractions import Fraction

from .errors import InputError, check_work
from .lattice import EvenLattice, MukaiVector, _as_ints, _as_number, _at_least, _expect, _rank
from .moduli import _chi_scaled, _chi_virtual_scaled, _hilb_table
from .qseries import QSeries


def _exact(num: int, den: int) -> int | Fraction:
    """num / den (den > 0) as an exact value: the int when den divides num, else a Fraction."""
    return Fraction(num, den) if num % den else num // den


def chi_virtual(v: MukaiVector, lat: EvenLattice) -> int | Fraction:
    """Divisor-sum virtual Euler characteristic (_exact); denominator divides content^2."""
    _expect(MukaiVector, v)
    return _exact(*_chi_virtual_scaled(v, lat))


def _check_rank_alpha(r: int, alpha, lat: EvenLattice) -> tuple[int, tuple[int, ...]]:
    r = _at_least(r, 1, "rank")
    alpha = _as_ints(alpha)
    if len(alpha) != _rank(lat):
        lat.check_vector(alpha)
    return r, alpha


def z_psu_direct(r: int, alpha, order, lat: EvenLattice) -> QSeries:
    """Direct coefficient-by-coefficient sum of Z_r^alpha below q^order.

    Exponents run over [(alpha^2) - 2ra]/2r in [-r, order); -r is the proven
    floor since <v^2> >= -2 content(v)^2 >= -2 r^2 whenever chi_virtual is
    nonzero.
    """
    r, alpha = _check_rank_alpha(r, alpha, lat)
    order = _as_number(order, Fraction)
    s_alpha = lat._bilinear(alpha, alpha)
    span = _a_span(r, s_alpha, order)
    g = math.gcd(r, *alpha)
    euler = _hilb_table((s_alpha - 2 * r * span.start) // 2 + 1)
    terms = {}      # keyed by <v^2> = (alpha^2) - 2ra, the exponent times 2r
    for a in span:
        c = math.gcd(g, a)
        if coeff := _chi_scaled(s_alpha - 2 * r * a, c, euler):
            terms[s_alpha - 2 * r * a] = _exact(coeff, c * c)
    return QSeries._of(2 * r, terms, order)


def _a_span(r: int, s_alpha: int, order: Fraction) -> range:
    """The a of z_psu_direct's terms for (alpha^2) = s_alpha, after the work check."""
    a_max = (s_alpha + 2 * r * r) // (2 * r)
    p, q = order.numerator, order.denominator       # a_min = floor((s_alpha - 2r order) / 2r) + 1
    a_min = (s_alpha * q - 2 * r * p) // (2 * r * q) + 1
    check_work(a_max - a_min + 1, "z_psu_direct")
    return range(a_min, a_max + 1)


def _hecke_factorizations(r: int, alpha, order: Fraction):
    """(a, d, xi = alpha/a, top) for every factorization a d = r with a | alpha,
    top the largest n with a (n - 1) / d < order (-1 if none)."""
    check_work(r, "z_psu_hecke")        # the divisor scan tries every a <= r
    out = []
    for a in range(1, r + 1):
        if r % a or any(x % a for x in alpha):
            continue
        d = r // a
        top = -(-d * order.numerator // (a * order.denominator))     # ceil(d order / a)
        out.append((a, d, tuple(x // a for x in alpha), top))
    return out


def z_psu_hecke(r: int, alpha, order, lat: EvenLattice) -> QSeries:
    """Hecke-transform path with the b-sum projection applied analytically: r^2 times
    the coefficient at q^(a^2 (n - 1)/r) sums d^2 chi(Hilb^n) over the n with
    n - 1 = (xi^2)/2 mod d."""
    r, alpha = _check_rank_alpha(r, alpha, lat)
    order = _as_number(order, Fraction)
    factorizations = _hecke_factorizations(r, alpha, order)
    check_work(sum(top + 1 for *_, top in factorizations), "z_psu_hecke")
    # n = (xi^2)/2 + 1 mod d; the table grows once, through the last n read (z_psu_direct's)
    reads = [(a, d, range((lat._bilinear(xi, xi) // 2 + 1) % d, top + 1, d))
             for a, d, xi, top in factorizations]
    euler = _hilb_table(max(ns[-1] if ns else -1 for *_, ns in reads))
    nums: dict[int, int] = {}   # keyed by a^2 (n - 1)
    for a, d, ns in reads:
        for n in ns:
            k = a * a * (n - 1)
            nums[k] = nums.get(k, 0) + d * d * euler[n]
    rr = r * r
    return QSeries._of(r, {k: _exact(v, rr) for k, v in nums.items()}, order)


def z_psu_hecke_literal(r: int, alpha, order, lat: EvenLattice) -> QSeries:
    """Literal (a, b, d) triple sum with floating-point root-of-unity phases.

    The series has mpmath complex coefficients and keeps every exponent the
    triple sum visits, exact cancellations included; its working precision is
    40 digits plus those of the largest chi(Hilb^n) it reads.  On raw libmp
    tuples at that precision, each coefficient is bit-identical to summing
    d chi(Hilb^n) e(b m / d) per term in mpc arithmetic, rounding to nearest,
    and dividing by r^2, as it rounds only where that result does: (1) the roots
    e(0) = 1 and e(1/2) = -1, which mpmath returns exactly, take no call, and a
    sum over b of them alone is d or 0; (2) terms with an exact integer phase add
    per key as ints until a residue term joins the key: every partial sum stays
    below 2^prec, so each mpc addition would have been exact; (3) an int sum that
    r^2 divides is divided with //, exact too, and a zero imaginary part is not
    divided; (4) where |Im| = |Re|, a product or quotient is rounded once and the
    other part takes it or its negative, round-to-nearest being odd.  The path
    runs no check of its own: the tests pin it bit for bit to a per-term
    reference (by a property at r <= 6, on fixed cases at r = 7 to 12) and
    compare it with the exact Hecke path to 1e-9.
    """
    import mpmath
    from mpmath.libmp import (fnone, fone, fzero, from_int, mpc_add, mpf_div, mpf_mul_int,
                              mpf_neg, round_nearest as rnd, to_int)

    r, alpha = _check_rank_alpha(r, alpha, lat)
    if r > 12:
        raise InputError("literal Hecke path is limited to rank <= 12")
    order = _as_number(order, Fraction)
    factorizations = _hecke_factorizations(r, alpha, order)
    check_work(sum(d * (top + 1) for _, d, _, top in factorizations), "z_psu_hecke_literal")
    euler = _hilb_table(top := max(t for *_, t in factorizations))
    dps = 40 + len(str(euler[max(top, 0)]))    # chi(Hilb^n) grows with n from chi(Hilb^0) = 1

    def mpc(x):     # an int term or sum as a raw _mpc_, exactly
        return (from_int(x), fzero) if type(x) is int else x

    def pair(f, z, k):      # (f(Re z, k), f(Im z, k)), f(0, k) = 0 and f(-x, k) = -f(x, k)
        (re, im), x = z, f(z[0], k, prec, rnd)
        return x, (fzero if im == fzero else x if im == re else mpf_neg(x) if im[1:] == re[1:]
                   else f(im, k, prec, rnd))

    with mpmath.workdps(dps):
        prec = mpmath.mp.prec
        acc = {}        # keyed by r e = a^2 (n - 1) for e = a (n - 1) / d; an int or a raw _mpc_
        for a, d, xi, top in factorizations:
            s_xi = lat._bilinear(xi, xi)
            roots = [mpmath.expjpi(mpmath.mpf(2 * j) / d)._mpc_ if 2 * j % d
                     else (fnone if j else fone, fzero) for j in range(d)]
            phase = []      # each sum over b as mpc's + adds it from 0, or d times it as an int
            for m in range(d):
                if not 2 * m % d:       # every e(b m / d) is 1 or -1: the sum is d or 0
                    phase.append(0 if m else d * d)
                    continue
                z = (fzero, fzero)
                for b in range(d):
                    z = mpc_add(z, roots[b * m % d], prec, rnd)
                re, im = z      # a raw mpf is an integer iff exp >= 0: mantissas are odd
                phase.append(to_int(re) * d if im == fzero and re[2] >= 0 else z)
            for n in range(top + 1):
                key = a * a * (n - 1)
                p = phase[(n - 1 - s_xi // 2) % d]
                t = p * euler[n] if type(p) is int else pair(mpf_mul_int, p, d * euler[n])
                s = acc.get(key)    # ints add exactly, below 2^prec, as mpc's + would
                acc[key] = (t if s is None else s + t if type(s) is type(t) is int
                            else mpc_add(mpc(s), mpc(t), prec, rnd))

    rr, f_rr = r * r, from_int(r * r)
    g = math.gcd(r, *acc)       # not QSeries._of: its exact zeros are visited terms
    coeffs = tuple((k // g, mpmath.mp.make_mpc(
        mpc(c // rr) if type(c) is int and c % rr == 0 else pair(mpf_div, mpc(c), f_rr)))
        for k, c in sorted(acc.items()))
    return QSeries._trusted(r // g, coeffs, order)
