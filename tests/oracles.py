"""Independent oracles the tests check the library against.

Each oracle deliberately uses a different algorithm than the production
code: the partition counter is a plain dynamic program (no binomials), the
pairing is a hand-expanded double loop, and the triangle count comes from
Pick's theorem instead of point enumeration.
"""

from fractions import Fraction
from itertools import permutations
from math import gcd


def colored_partition_counts(order: int, colors: int = 24) -> list[int]:
    """Coefficients of prod_m (1 - q^m)^(-colors) by unbounded-knapsack DP."""
    counts = [1] + [0] * (order - 1)
    for part in range(1, order):
        for _ in range(colors):
            for n in range(part, order):
                counts[n] += counts[n - part]
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


def pick_interior(p1, p2, p3) -> Fraction:
    """Interior lattice points of a triangle via Pick: I = A - B/2 + 1."""
    (x1, y1), (x2, y2), (x3, y3) = p1, p2, p3
    area2 = abs((x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1))
    boundary = (gcd(abs(x2 - x1), abs(y2 - y1))
                + gcd(abs(x3 - x2), abs(y3 - y2))
                + gcd(abs(x1 - x3), abs(y1 - y3)))
    return Fraction(area2, 2) - Fraction(boundary, 2) + 1


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
