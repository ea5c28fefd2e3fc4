"""Independent computations the benchmark checks k3tk's outputs against.

Nothing here imports k3tk.  Each oracle uses another algorithm than the
program: pairings are hand expansions over raw components, Euler numbers come
from a 24-coloured-partition dynamic program, triangle counts from Pick's
theorem, theta values from products of Jacobi theta functions.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, gcd


class CheckFailure(Exception):
    """An output of the program disagrees with its oracle."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailure(what)


def colored_partition_counts(order: int, colors: int = 24) -> list[int]:
    """Coefficients of prod_m (1 - q^m)^(-colors) below q^order, by knapsack DP."""
    counts = [1] + [0] * (order - 1)
    for part in range(1, order):
        for _ in range(colors):
            for n in range(part, order):
                counts[n] += counts[n - part]
    return counts


def pairing(x, y, gram) -> int:
    """(c1.c1') - r a' - a r' from raw (r, c1, a) triples."""
    xr, xc, xa = x
    yr, yc, ya = y
    s = 0
    for i in range(len(xc)):
        for j in range(len(yc)):
            s += xc[i] * gram[i][j] * yc[j]
    return s - xr * ya - xa * yr


def translate(shift, v, gram):
    """(1 + N + (N^2)/2 w)(r + c1 + a w), expanded degree by degree."""
    r, c1, a = v
    nn = pairing((0, shift, 0), (0, shift, 0), gram)
    n_dot_c1 = pairing((0, shift, 0), (0, c1, 0), gram)
    return (r, tuple(c + r * n for c, n in zip(c1, shift)), a + n_dot_c1 + r * (nn // 2))


def apply_word(word, v, gram):
    """Apply a JSON isometry word right-to-left, generator by generator."""
    for elem in reversed(word):
        kind = elem["type"]
        r, c1, a = v
        if kind == "translate":
            v = translate(tuple(elem["N"]), v, gram)
        elif kind == "reflect":
            u = (elem["u"]["r"], tuple(elem["u"]["c1"]), elem["u"]["a"])
            k = pairing(v, u, gram)
            v = (r + k * u[0], tuple(c + k * x for c, x in zip(c1, u[1])), a + k * u[2])
        elif kind == "nsauto":
            m = elem["M"]
            v = (r, tuple(sum(m[i][j] * c1[j] for j in range(len(c1)))
                          for i in range(len(c1))), a)
        elif kind == "negate":
            v = (-r, tuple(-c for c in c1), -a)
        else:
            v = (r, tuple(-c for c in c1), a)
    return v


def content(v) -> int:
    r, c1, a = v
    return gcd(abs(r), abs(a), *(abs(x) for x in c1))


def chi_virtual(v, gram, euler) -> Fraction:
    """Divisor sum over v = m w of euler[<w^2>/2 + 1] / m^2."""
    r, c1, a = v
    c = content(v)
    total = Fraction(0)
    for m in range(1, c + 1):
        if c % m:
            continue
        w = (r // m, tuple(x // m for x in c1), a // m)
        idx = pairing(w, w, gram) // 2 + 1
        if idx >= 0:
            total += Fraction(euler[idx], m * m)
    return total


def z_series(r: int, alpha, order: int, gram, euler) -> dict:
    """{exponent: coefficient} of Z_r^alpha below q^order, summed vector by vector."""
    s_alpha = pairing((0, alpha, 0), (0, alpha, 0), gram)
    out = {}
    a = floor(Fraction(s_alpha + 2 * r * r, 2 * r))
    while True:
        e = Fraction(s_alpha - 2 * r * a, 2 * r)
        if e >= order:
            return out
        coeff = chi_virtual((r, tuple(alpha), a), gram, euler)
        if coeff:
            out[e] = coeff
        a -= 1


def pick_interior(p1, p2, p3) -> Fraction:
    """Interior lattice points of a triangle by Pick's theorem: A - B/2 + 1."""
    (x1, y1), (x2, y2), (x3, y3) = p1, p2, p3
    area2 = abs((x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1))
    boundary = (gcd(abs(x2 - x1), abs(y2 - y1)) + gcd(abs(x3 - x2), abs(y3 - y2))
                + gcd(abs(x1 - x3), abs(y1 - y3)))
    return Fraction(area2, 2) - Fraction(boundary, 2) + 1


def aux_invariants(l, r, s, a, doc) -> None:
    """Recompute the auxiliary construction's invariants by hand pairing."""
    gram = doc["lattice"]["gram"]
    v1 = (doc["v1"]["r"], tuple(doc["v1"]["c1"]), doc["v1"]["a"])
    vp = (doc["vprime"]["r"], tuple(doc["vprime"]["c1"]), doc["vprime"]["a"])
    w = (doc["w"]["r"], tuple(doc["w"]["c1"]), doc["w"]["a"])
    r1, d1, dprime = doc["r1"], doc["d1"], doc["dprime"]
    require(gram == [[2 * doc["k"]]] and doc["k"] > 0, "aux lattice is Gram [2k], k > 0")
    require(pairing(v1, v1, gram) == -2, "aux <v1^2> = -2")
    require(pairing(v1, vp, gram) == -1, "aux <v1, v'> = -1")
    require(pairing(vp, vp, gram) == 2 * l * (l * s - r * a), "aux <v'^2> = 2l(ls - ra)")
    require(dprime * r1 - d1 * r == 1, "aux d' r1 - d1 r = 1")
    require((a * r1 - 1) % l == 0 and gcd(r1, r) == 1 and r1 - l * r >= 2,
            "aux r1 admissible")
    require((vp[2] - a) % l == 0, "aux a' = a (mod l)")
    require(pairing(w, w, gram) == pairing(vp, vp, gram), "aux reflection keeps the square")
    require(gcd(abs(w[0]), *(abs(x) for x in w[1])) == 1, "aux target top part coprime")


def coset_theta(diag, beta, r: int, tau: complex):
    """sum over c = beta (mod r) of q^{sum_i d_i c_i^2 / r}, q = e(tau), as theta products.

    Each factor is q^{d b^2/r} theta_3(2 pi d b tau, q^{d r}).
    """
    import mpmath     # only the checks of float results need it

    tau = mpmath.mpc(tau)
    q = mpmath.exp(2j * mpmath.pi * tau)
    value = mpmath.mpc(1)
    for d, b in zip(diag, beta):
        value *= q ** (mpmath.mpf(d * b * b) / r) * mpmath.jtheta(3, 2 * mpmath.pi * d * b * tau,
                                                                 q ** (d * r))
    return complex(value)
