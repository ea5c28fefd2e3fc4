"""Independent oracles the tests check the library against.

Each oracle deliberately uses a different algorithm than the production
code: the Goettsche numbers come from a plain dynamic program and from the
divisor-sum recurrence of the logarithmic derivative (the library uses
Jacobi's triple product),
the pairing is a hand-expanded double loop, the sweeps' tuples are listed from
their definitions, an isometry word is applied
generator by generator from each generator's definition (the library binds
each generator to the lattice first), the triangle count comes from testing
every point of the bounding box, where the library uses Pick's theorem (kept
here too, as a second check), and the partition and theta sums visit every
candidate with one exponential per term, instead of tables of weights and
Hecke roots.
Short-vector counts of A2, D4 and E8 come from divisor-sum closed forms, and
the box enumeration that theta used before Fincke-Pohst is kept as the
reference for the points, their order and their terms.  On a definite lattice
the full partition function is an exact q-series, summed over a box of points.
The q-series reference keys every coefficient by its Fraction exponent and
normalises through ref_from_terms after each operation, where the library
works on integer indices over one denominator.  The command line's parser is
rebuilt with argparse from the CLI's own command table.
None of them imports k3tk.
"""

import argparse
import cmath
import functools
import json
import math
from fractions import Fraction
from itertools import permutations, product
from math import gcd, lcm
from typing import NamedTuple

import numpy as np


def colored_partition_counts(order: int, colors: int = 24) -> list[int]:
    """Coefficients of prod_m (1 - q^m)^(-colors) by unbounded-knapsack DP."""
    counts = [1] + [0] * (order - 1)
    for part in range(1, order):
        for _ in range(colors):
            for n in range(part, order):
                counts[n] += counts[n - part]
    return counts


def sigma_recurrence_counts(order: int) -> list[int]:
    """Coefficients of prod_m (1 - q^m)^(-24) below q^order from its logarithmic
    derivative: n c(n) = 24 sum_{k=1}^n sigma(k) c(n - k), sigma the divisor sum."""
    sigma = [0] + [sum(d for d in range(1, k + 1) if k % d == 0) for k in range(1, order)]
    counts = [1]
    for n in range(1, order):
        total = 24 * sum(sigma[k] * counts[n - k] for k in range(1, n + 1))
        assert total % n == 0
        counts.append(total // n)
    return counts


def pairing_brute(x, y, gram) -> int:
    """Hand expansion of (c1.c1') - r a' - a r' from the raw components."""
    xr, xc, xa = x
    yr, yc, ya = y
    s = 0
    for i in range(len(xc)):
        for j in range(len(yc)):
            s += xc[i] * gram[i][j] * yc[j]
    return s - xr * ya - xa * yr


def translate_brute(shift, v, gram):
    """Cup product (1 + N + (N^2)/2 w)(r + c1 + a w), expanded degree by degree."""
    r, c1, a = v
    nn = pairing_brute((0, shift, 0), (0, shift, 0), gram)
    n_dot_c1 = pairing_brute((0, shift, 0), (0, c1, 0), gram)
    return (r,
            tuple(c + r * n for c, n in zip(c1, shift)),
            a + n_dot_c1 + r * (nn // 2))


def apply_word_brute(word_doc, v, gram):
    """A JSON isometry word applied right-to-left, each generator from its definition."""
    for elem in reversed(word_doc):
        r, c1, a = v
        kind = elem["type"]
        if kind == "translate":
            v = translate_brute(tuple(elem["N"]), v, gram)
        elif kind == "reflect":
            u = (elem["u"]["r"], tuple(elem["u"]["c1"]), elem["u"]["a"])
            k = pairing_brute(v, u, gram)
            v = (r + k * u[0], tuple(c + k * x for c, x in zip(c1, u[1])), a + k * u[2])
        elif kind == "nsauto":
            m = elem["M"]
            v = (r, tuple(sum(m[i][j] * c1[j] for j in range(len(c1)))
                          for i in range(len(m))), a)
        elif kind == "negate":
            v = (-r, tuple(-c for c in c1), -a)
        elif kind == "dual":
            v = (r, tuple(-c for c in c1), a)
        else:
            raise ValueError(f"unknown isometry element {kind!r}")
    return v


def pick_interior(p1, p2, p3) -> Fraction:
    """Interior lattice points of a triangle via Pick: I = A - B/2 + 1."""
    (x1, y1), (x2, y2), (x3, y3) = p1, p2, p3
    area2 = abs((x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1))
    boundary = (gcd(abs(x2 - x1), abs(y2 - y1))
                + gcd(abs(x3 - x2), abs(y3 - y2))
                + gcd(abs(x1 - x3), abs(y1 - y3)))
    return Fraction(area2, 2) - Fraction(boundary, 2) + 1


def box_interior(p1, p2, p3) -> int:
    """Interior lattice points of a triangle by testing every point of its box.

    A point is interior when the three edge cross products are nonzero and of
    one sign; a degenerate triangle has none.
    """
    pts = (p1, p2, p3)
    count = 0
    for x in range(min(p[0] for p in pts), max(p[0] for p in pts) + 1):
        for y in range(min(p[1] for p in pts), max(p[1] for p in pts) + 1):
            sides = [(qx - px) * (y - py) - (qy - py) * (x - px)
                     for (px, py), (qx, qy) in ((p1, p2), (p2, p3), (p3, p1))]
            if all(t > 0 for t in sides) or all(t < 0 for t in sides):
                count += 1
    return count


def triangle_tuples_brute(bound: int) -> list:
    """Every (r1, d1, r, d, l) with 1 <= r1 <= bound, |d1| <= bound, r, l >= 1,
    d r1 - r d1 = 1 and l r < r1, from the definition (l r < r1 caps r and l)."""
    return [(r1, d1, r, (1 + r * d1) // r1, l)
            for r1 in range(1, bound + 1) for d1 in range(-bound, bound + 1)
            for r in range(1, r1) if (1 + r * d1) % r1 == 0
            for l in range(1, r1) if l * r < r1]


def farey_tuples_brute(bound: int) -> list:
    """Every (x1, y1, x2, y2, x3, y3) with 1 <= x_i <= bound and 0 <= y3 < x3 meeting
    y1 x3 - x1 y3 = 1 and y1/x1 > y2/x2 > y3/x3; these force 0 < y1 <= x1 and
    0 < y2 < x2, which bound the scan."""
    xs = range(1, bound + 1)
    return [(x1, y1, x2, y2, x3, y3)
            for x1 in xs for x2 in xs for x3 in xs for y3 in range(x3)
            for y1 in range(x1 + 1) if y1 * x3 - x1 * y3 == 1
            for y2 in range(x2) if y1 * x2 > y2 * x1 and y2 * x3 > y3 * x2]


def chi_virtual_brute(v, gram, euler) -> Fraction:
    """Divisor scan written against the raw components and a chi table."""
    r, c1, a = v
    c = gcd(abs(r), abs(a), *(abs(x) for x in c1))
    total = Fraction(0)
    for m in range(1, c + 1):
        if c % m:
            continue
        w = (r // m, tuple(x // m for x in c1), a // m)
        idx = pairing_brute(w, w, gram) // 2 + 1
        if idx >= 0:
            total += Fraction(euler(idx), m * m)
    return total


def definite_box(gram, top) -> int:
    """A b with |xi_i| <= b for every xi with Q(xi) <= top, Q = -G positive definite, from
    Q's least eigenvalue by numpy's eigvalsh: Q(xi) >= lam_min xi_i^2."""
    lam_min = float(np.linalg.eigvalsh(-np.array(gram, dtype=float)).min())
    return math.isqrt(int(top / lam_min)) + 1


def z_full_exact(gram, r, m_top, euler) -> dict:
    """{m: z_r[m]} for -r <= m < m_top: the exact coefficients of the rank-r partition
    function on a negative definite Gram, P_L = id and x = 0.

    The direct term of v = (r, xi, a) has exponent (<v^2> + Q(xi))/2r = -a, so z_r[m] sums
    chi_virtual_brute(r, xi, -m) over the xi with Q(xi) <= 2rm + 2r^2, past which
    <v^2> < -2r^2 makes chi vanish; euler is a table of chi(Hilb^n) through r (m_top - 1) + 1.
    """
    z = {m: Fraction(0) for m in range(-r, m_top)}
    bound = definite_box(gram, 2 * r * (m_top - 1) + 2 * r * r)
    for xi in product(range(-bound, bound + 1), repeat=len(gram)):
        q_xi = -pairing_brute((0, xi, 0), (0, xi, 0), gram)
        for m in range(-((2 * r * r - q_xi) // (2 * r)), m_top):  # ceil((Q - 2r^2) / 2r)
            z[m] += chi_virtual_brute((r, xi, -m), gram, euler.__getitem__)
    return z


def det_brute(m) -> int:
    """Leibniz expansion over all permutations, sign by inversion count."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


def z_full_brute(gram, r, tau, cutoff, radius, euler):
    """(value, terms, sum of the terms' moduli) of the direct rank-r partition sum,
    Q = -G >= identity.

    Visits every xi with |xi_i| <= radius and Q(xi) <= radius^2 (this box
    holds them all when Q(xi) >= sum xi_i^2) and every a with Mukai exponent
    <v^2>/2r <= cutoff, up to where <v^2> < -2r^2 makes chi vanish.  Each
    term is chi_virtual_brute(v) exp(2 pi i tau (Q(xi) + <v^2>) / 2r), the
    splitting being P_L = id, x = 0; euler is a table of chi(Hilb^n).
    """
    cutoff = Fraction(cutoff)
    bound = math.ceil(radius)
    value, terms, size = 0j, 0, 0.0
    for xi in product(range(-bound, bound + 1), repeat=len(gram)):
        q_xi = -pairing_brute((0, xi, 0), (0, xi, 0), gram)
        if q_xi > radius * radius:
            continue
        a = math.ceil(Fraction(-q_xi, 2 * r) - cutoff)
        while True:
            v = (r, xi, a)
            sq = pairing_brute(v, v, gram)
            if sq < -2 * r * r:
                break
            chi = chi_virtual_brute(v, gram, euler.__getitem__)
            if chi:
                term = float(chi) * cmath.exp(2j * cmath.pi * tau * (q_xi + sq) / (2 * r))
                value, terms, size = value + term, terms + 1, size + abs(term)
            a += 1
    return value, terms, size


def a_sum_brute(gram, r, xi, tau, start, euler):
    """sum_a chi_virtual_brute(r, xi, a) |q|^{<v^2>/2r} over every a for start 0, else over the
    a with <v^2>/2 + 1 >= start, from <v^2> = -2r^2 up to the end of the table euler."""
    sq_xi = pairing_brute((0, xi, 0), (0, xi, 0), gram)
    qabs = math.exp(-2 * math.pi * complex(tau).imag)
    total = 0.0
    for a in range((sq_xi - 2 * len(euler)) // (2 * r), sq_xi // (2 * r) + r + 1):
        sq = sq_xi - 2 * r * a          # <v^2>; chi vanishes below -2r^2, at a past this range
        if (not start or sq // 2 + 1 >= start) and sq // 2 + 1 < len(euler):
            total += float(chi_virtual_brute((r, xi, a), gram, euler.__getitem__)) \
                * qabs ** (sq / (2 * r))
    return total


def theta_omitted_brute(gram, alpha, r, tau, x, radius, outer):
    """(sum over radius^2 < Q(c) <= outer^2, sum over Q(c) <= outer^2) of the moduli
    |exp(2 pi i (tau Q(c) / 2r + Q(c, x)))|, c in alpha + r Z^n, Q = -G positive definite:
    the terms of a coset theta sum with P_L = id, whose majorant is Q.

    Every point of the box |c_i| <= outer sqrt((Q^-1)_ii) is tested, which holds the
    ellipsoid Q(c) <= outer^2; Q(c) is the exact integer -(c^2).
    """
    n = len(gram)
    q_inv = np.linalg.inv(-np.array(gram, dtype=float))
    widths = [r * math.ceil(outer * math.sqrt(q_inv[i][i]) / r + 1) for i in range(n)]
    axes = [range(a % r - w, w + 1, r) for a, w in zip(alpha, widths)]
    im_x = [0.0] * n if x is None else [complex(v).imag for v in x]
    omitted = total = 0.0
    for c in product(*axes):
        q = -pairing_brute((0, c, 0), (0, c, 0), gram)
        if q > outer * outer:
            continue
        im_qx = -sum(c[i] * gram[i][j] * im_x[j] for i in range(n) for j in range(n))
        term = math.exp(-2 * math.pi * (complex(tau).imag * q / (2 * r) + im_qx))
        total += term
        if q > radius * radius:
            omitted += term
    return omitted, total


def skew_theta_brute(diag, skew, alpha, r, tau, radius):
    """(value, points) of the coset theta sum of Q = diag(2 d_0, 2 d_1) written
    in the basis b = [[1, skew], [0, 1]], counted in the diagonal coordinates.

    c lies in alpha + r Z^2 exactly when y = b c lies in b alpha + r Z^2, and
    Q(c) = 2 d_0 y_0^2 + 2 d_1 y_1^2, so the points are the y of that coset
    with 2 d_0 y_0^2 + 2 d_1 y_1^2 <= radius^2; each weighs exp(2 pi i tau Q / 2r).
    """
    beta = (alpha[0] + skew * alpha[1], alpha[1])
    bound = math.ceil(radius)
    value, points = 0j, 0
    for y in product(range(-bound, bound + 1), repeat=2):
        if any((yi - bi) % r for yi, bi in zip(y, beta)):
            continue
        q = 2 * diag[0] * y[0] ** 2 + 2 * diag[1] * y[1] ** 2
        if q <= radius * radius:
            value += cmath.exp(2j * cmath.pi * tau * q / (2 * r))
            points += 1
    return value, points


def hecke_literal_reference(r, alpha, gram, order, euler):
    """{exponent: mpc} of the literal (a, b, d) Hecke triple sum for Z_r^alpha.

    Every phase angle b(n - 1)/d - b(xi^2)/2d is reduced mod 1 as a Fraction
    and gets its own mpmath.expjpi, summed over b in order, at the working
    precision the library documents: 40 digits plus those of the largest
    Euler number used.
    """
    import mpmath

    order = Fraction(order)
    facts = []
    for a in range(1, r + 1):
        if r % a == 0 and all(x % a == 0 for x in alpha):
            d = r // a
            top = math.ceil(1 + Fraction(d, a) * order) - 1     # a (n - 1) / d < order
            facts.append((a, d, tuple(x // a for x in alpha), top))
    dps = 40 + len(str(max([1] + [euler[top] for *_, top in facts if top >= 0])))
    acc = {}
    with mpmath.workdps(dps):
        for a, d, xi, top in facts:
            sq = pairing_brute((0, xi, 0), (0, xi, 0), gram)
            for n in range(top + 1):
                phase = mpmath.mpc(0)
                for b in range(d):
                    turns = Fraction(b * (2 * (n - 1) - sq), 2 * d) % 1
                    phase += mpmath.expjpi(2 * mpmath.mpf(turns.numerator) / turns.denominator)
                e = Fraction(a * (n - 1), d)
                acc[e] = acc.get(e, mpmath.mpc(0)) + d * euler[n] * phase
        return {e: c / mpmath.mpf(r * r) for e, c in acc.items()}


class RefSeries(NamedTuple):
    """(denom, ((k, c), ...), trunc) as the Fraction-exponent reference stores it."""

    denom: int
    coeffs: tuple
    trunc: Fraction

    @property
    def min_exponent(self) -> Fraction:
        if not self.coeffs:
            return self.trunc
        return Fraction(self.coeffs[0][0], self.denom)

    def items(self):
        return [(Fraction(k, self.denom), c) for k, c in self.coeffs]


def ref_from_terms(terms, trunc) -> RefSeries:
    """Normalise {exponent: coefficient}: Fraction keys, lcm denominator, gcd reduction."""
    trunc = Fraction(trunc)
    cleaned = {}
    for e, c in terms.items():
        e = Fraction(e)
        c = Fraction(c)
        if c == 0:
            continue
        if e >= trunc:
            raise ValueError("coefficient at or beyond the truncation bound")
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
    return RefSeries(denom, tuple(sorted(keys.items())), trunc)


def ref_add(a: RefSeries, b: RefSeries) -> RefSeries:
    trunc = min(a.trunc, b.trunc)
    terms = {}
    for e, c in a.items() + b.items():
        if e < trunc:
            terms[e] = terms.get(e, Fraction(0)) + c
    return ref_from_terms(terms, trunc)


def ref_scale(a: RefSeries, scalar) -> RefSeries:
    scalar = Fraction(scalar)
    return ref_from_terms({e: scalar * c for e, c in a.items()}, a.trunc)


def ref_mul(a: RefSeries, b: RefSeries) -> RefSeries:
    trunc = min(a.trunc + b.min_exponent, b.trunc + a.min_exponent)
    terms = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            if e < trunc:
                terms[e] = terms.get(e, Fraction(0)) + ca * cb
    return ref_from_terms(terms, trunc)


def ref_substitute_power(s: RefSeries, m: int) -> RefSeries:
    return ref_from_terms({e * m: c for e, c in s.items()}, s.trunc * m)


def ref_evaluate(s: RefSeries, tau: complex) -> complex:
    """The value at q = exp(2 pi i tau), every float exponent float(Fraction)."""
    q = cmath.exp(2j * cmath.pi * complex(tau))
    terms = [c * q ** float(e) for e, c in s.items()]
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def a2_count(n: int) -> int:
    """Vectors of norm 2n in A2 (Gram [[2, -1], [-1, 2]]): 6 (d_{1,3}(n) - d_{2,3}(n))."""
    if n == 0:
        return 1
    return 6 * sum((d % 3 == 1) - (d % 3 == 2) for d in range(1, n + 1) if n % d == 0)


def d4_count(n: int) -> int:
    """Vectors of norm 2n in D4, the even-sum vectors of Z^4: r_4(2n) = 8 sum_{d | 2n, 4 !| d} d."""
    if n == 0:
        return 1
    return 8 * sum(d for d in range(1, 2 * n + 1) if 2 * n % d == 0 and d % 4)


def e8_count(n: int) -> int:
    """Vectors of norm 2n in E8, whose theta series is E4: 240 sigma_3(n)."""
    if n == 0:
        return 1
    return 240 * sum(d ** 3 for d in range(1, n + 1) if n % d == 0)


def _dot(a, b):
    """sum a_k b_k by a plain loop from 0, so the order of addition is the same on every
    interpreter (the builtin sum compensates float rounding from Python 3.12 on)."""
    s = 0
    for x, y in zip(a, b):
        s += x * y
    return s


def _quad(cols, c) -> float:
    """c^T M c for a form M stored as its columns, evaluated as (c^T M) c."""
    return _dot([_dot(c, col) for col in cols], c)


def _e(t: complex, coeff=1) -> complex:
    """coeff e(t) = coeff exp(2 pi i t)."""
    return coeff * cmath.exp(2j * cmath.pi * t)


def majorant_lam_min(split) -> float:
    """The least eigenvalue of a splitting's majorant, by numpy's eigvalsh."""
    return float(np.linalg.eigvalsh(np.array(split._mj)).min())


def box_count(rank, step, lam_min, outer) -> float:
    """Candidates of the box the theta sums enumerated before Fincke-Pohst: every
    axis spans outer / sqrt(lam_min) (+1e-9) either side along its coset."""
    bound = outer / math.sqrt(lam_min) + 1e-9
    return math.prod([2 * bound / step + 1] * rank)


def box_ball(alpha, step, r, tau, split, qx, radius, guard):
    """(c, j, (c^2), term) as theta._ball yields them, from the box of box_count.

    Every candidate of alpha + step Z^n in the box is visited in
    itertools.product order and kept when its majorant norm, in the
    splitting's majorant, is at most (radius + guard)^2; j = 0 inside radius,
    else its guard shell.
    """
    gram, mj = split.lattice.gram, split._mj
    outer = radius + guard
    bound = outer / math.sqrt(majorant_lam_min(split)) + 1e-9
    axes = [range(step * math.ceil((-bound - a) / step) + a,
                  step * math.floor((bound - a) / step) + a + 1, step) for a in alpha]
    for c in product(*axes):
        maj = _quad(mj, c)
        if maj > outer * outer:
            continue
        j = 0 if maj <= radius * radius else \
            max(1, min(math.ceil(math.sqrt(maj) - radius), guard))
        sq = pairing_brute((0, c, 0), (0, c, 0), gram)      # (c^2) as a Mukai pairing
        t = complex(-tau.real * sq, tau.imag * maj) / (2 * r)
        yield c, j, sq, _e(t if qx is None else t + _dot(c, qx))


def definite_parts(gram, pl, pr, c) -> tuple[float, float]:
    """(Q_L(c), Q_R(c)) = (Q(P_L c), Q(P_R c)) with Q = -G: the form on each
    projected vector, by plain loops over the projector rows."""
    def q(p):
        u = [sum(x * ck for x, ck in zip(row, c)) for row in p]
        return -sum(ui * g * uj for ui, row in zip(u, gram) for g, uj in zip(row, u))
    return q(pl), q(pr)


def cli_reference(cli) -> argparse.ArgumentParser:
    """argparse's parser for the command table of the CLI module cli (cli._COMMANDS holds
    add_argument keywords): a usage error is one {"error"} document and exit 2, a token
    that starts like a negative number (cli._NEGATIVE_NUMBER) is a value, an option
    type's cli.InputError is that option's usage error, with its message, and help is
    written as at COLUMNS=80, whatever the terminal's width."""
    class Parser(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, formatter_class=functools.partial(
                argparse.HelpFormatter, width=78), **kwargs)
            self._negative_number_matcher = cli._NEGATIVE_NUMBER

        def error(self, message):
            print(json.dumps({"error": f"{self.prog}: {message}"}), flush=True)
            self.exit(2)

    def typed(kind):
        def convert(text):
            try:
                return kind(text)
            except cli.InputError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None

        convert.__name__ = kind.__name__        # argparse's "invalid <type> value"
        return convert

    parser = Parser(prog="k3tk", description=cli._DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options) in cli._COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for option, keywords in options.items():
            if "type" in keywords:
                keywords = {**keywords, "type": typed(keywords["type"])}
            command.add_argument(option, **keywords)
    return parser
