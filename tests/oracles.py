"""Independent oracles the tests check the library against.

Each oracle deliberately uses a different algorithm than the production
code: the Goettsche numbers come from a plain dynamic program and from the
divisor-sum recurrence of the logarithmic derivative (the library uses
Jacobi's triple product),
the pairing is a hand-expanded double loop, an isometry word is applied
generator by generator from each generator's definition (the library binds
each generator to the lattice first), the triangle count comes from Pick's
theorem or from testing every point of the bounding box, instead of the
column scan, and the partition and theta sums visit every candidate with
one exponential per term, instead of tables of weights and Hecke roots.
Short-vector counts of A2, D4 and E8 come from divisor-sum closed forms, and
the box enumeration that theta used before Fincke-Pohst is kept as the
reference for the points, their order and their terms.
The q-series reference keys every coefficient by its Fraction exponent and
normalises through ref_from_terms after each operation, where the library
works on integer indices over one denominator.
None of them imports k3tk.
"""

import cmath
import math
from fractions import Fraction
from itertools import permutations, product
from math import gcd, lcm
from typing import NamedTuple


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
    """(value, terms) of the direct rank-r partition sum, Q = -G >= identity.

    Visits every xi with |xi_i| <= radius and Q(xi) <= radius^2 (this box
    holds them all when Q(xi) >= sum xi_i^2) and every a with Mukai exponent
    <v^2>/2r <= cutoff, up to where <v^2> < -2r^2 makes chi vanish.  Each
    term is chi_virtual_brute(v) exp(2 pi i tau (Q(xi) + <v^2>) / 2r), the
    splitting being P_L = id, x = 0; euler is a table of chi(Hilb^n).
    """
    cutoff = Fraction(cutoff)
    bound = math.ceil(radius)
    value, terms = 0j, 0
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
                value += float(chi) * cmath.exp(2j * cmath.pi * tau * (q_xi + sq) / (2 * r))
                terms += 1
            a += 1
    return value, terms


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


def ref_evaluate(s: RefSeries, tau: complex) -> tuple[complex, float]:
    """(value, tail) at q = exp(2 pi i tau): every float exponent is float(Fraction),
    and the tail extrapolates the top half's coefficient growth geometrically."""
    tau = complex(tau)
    q = cmath.exp(2j * cmath.pi * tau)
    entries = s.items()
    terms = [c * q ** float(e) for e, c in entries]
    value = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    qa = abs(q)
    if not entries:         # no stored term: nothing bounds the omitted ones
        return value, math.inf
    growth = 1.0
    median = entries[len(entries) // 2][0]
    for (e1, c1), (e2, c2) in zip(entries, entries[1:]):
        if e1 >= median and float(c1) != 0.0:
            step = float(e2 - e1)
            growth = max(growth, (abs(float(c2)) / abs(float(c1))) ** (1.0 / step))
    x = growth * qa
    if x >= 1.0:
        return value, math.inf
    e_last, c_last = entries[-1]
    base = abs(float(c_last)) * qa ** float(e_last)
    tail = base * x ** float(s.trunc - e_last) / (1.0 - x)
    return value, tail


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
    bound = outer / math.sqrt(split._lam_min) + 1e-9
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
