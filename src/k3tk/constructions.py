"""Auxiliary lattice constructions and two elementary arithmetic facts.

build_auxiliary packages the reduction step that trades an arbitrary
primitive Mukai vector for one with coprime top part on a rank-1 surface
lattice.  Inputs are integers (l, r, s, a), thought of as
v = l(r + xi) + a omega with s = (xi^2)/2 on the original surface.  The
construction picks

  * the smallest r1 with a r1 = 1 (mod l), gcd(r1, r) = 1 and r1 - l r >= 2,
  * d', d1 solving d' r1 - d1 r = 1 (minimal positive d'),
  * q with a r1 + q l = 1,
  * k = r1 (q r + r1 s) - r^2 > 0, the half-square of the new polarization,

and assembles on the rank-1 lattice with Gram [2k]:

  v' = (l r, [l d'], a'),  a' = l((1 + d' r1) d1 s + d'^2 q r1 - r d'^2) + a,
  v1 = (r1, [d1], a1),     a1 = r1(-d'^2 + d1^2 s) + d1^2 r q + 2 d'.

Each call certifies the paper's closed forms: k > 0, <v1^2> = -2,
<v1, v'> = -1, <v'^2> = 2l(ls - ra), and w = (r1 - lr, [-(d1 - l d')], a1 - a'),
the image -dual(v' + <v', v1> v1) of v' under the word (Dual, Negate, Reflect(v1)),
with coprime rank and degree.  The other identities hold by the line computing
them: the r1 scan visits only admissible candidates, d1 and q are exact
quotients, a' = a (mod l) by its formula, and <w^2> = <v'^2> as w is the image
of v' under an isometry; the tests check all.

triangle_interior_count checks d r1 - r d1 = 1 and lr < r1, then counts the
lattice points strictly inside (0,0), (r1 - lr, d1 - ld), (r1, d1) by Pick's
theorem: a valid tuple gives area l/2 and l + 2 boundary points (gcd l on the
edge along (r, d), 1 on the other two by unimodularity), so none.
sweep_triangles scans tuples it generates valid; a brute-force box count is
the test oracle.  farey_gap_holds checks the mediant-style gap x2 >= x1 + x3
for slopes y1/x1 > y2/x2 > y3/x3 with y1 x3 - x1 y3 = 1.

The exceptional bundle realizing v1, and the birational map itself, are
sheaf-level content and out of scope; only the lattice data is built.
"""

from __future__ import annotations

from math import gcd

from .errors import ConsistencyError, InputError, check_work
from .isometry import Dual, IsometryWord, Negate, Reflect
from .lattice import (EvenLattice, MukaiVector, Value, _as_int, _as_ints, _at_least, ell,
                      mukai_pairing, square)


class AuxConstruction(Value):
    # integers, then the rank-1 lattice with Gram [2k] and three Mukai vectors
    __slots__ = ("l", "r", "s", "a", "r1", "d1", "dprime", "q", "k",
                 "lattice", "vprime", "v1", "w")

    def to_json(self) -> dict:
        return {name: value.to_json() if isinstance(value, Value) else value
                for name, value in zip(self._fields, self._values())}


def build_auxiliary(l: int, r: int, s: int, a: int) -> AuxConstruction:
    """Construct the full auxiliary data for inputs (l, r, s, a).

    Requires l, r >= 1, gcd(l, a) = 1 (primitivity of the source vector) and
    2l(ls - ra) >= 0 (nonnegative square).  The smallest admissible r1 is
    taken, so the output is deterministic.
    """
    l, r, s, a = _at_least(l, 1, "l"), _at_least(r, 1, "r"), _as_int(s), _as_int(a)
    if gcd(l, a) != 1:
        raise InputError("gcd(l, a) must be 1")
    if 2 * l * (l * s - r * a) < 0:
        raise InputError("the square 2l(ls - ra) must be nonnegative")

    # Scan the class a * cand = 1 (mod l), which is prime to l.  A prime that
    # divides both l and r thus divides no candidate, and any other prime p of
    # r divides one in every p consecutive candidates, so the scan ends within
    # Jacobsthal's j(r) steps.
    start = l * r + 2
    r1 = start + (pow(a, -1, l) - start) % l
    while gcd(r1, r) != 1:
        r1 += l

    q = (1 - a * r1) // l
    # minimal positive d' with d' r1 = 1 (mod r)
    dprime = pow(r1, -1, r) if r > 1 else 1
    d1 = (dprime * r1 - 1) // r
    k = r1 * (q * r + r1 * s) - r * r
    if k <= 0:
        raise ConsistencyError("polarization square k must be positive")
    lat = EvenLattice(((2 * k,),))

    aprime = l * ((1 + dprime * r1) * d1 * s + dprime * dprime * q * r1
                  - r * dprime * dprime) + a
    a1 = r1 * (-dprime * dprime + d1 * d1 * s) + d1 * d1 * r * q + 2 * dprime
    vprime = MukaiVector(l * r, (l * dprime,), aprime)
    v1 = MukaiVector(r1, (d1,), a1)

    checks = [
        (square(v1, lat) == -2, "<v1^2> = -2"),
        (square(vprime, lat) == 2 * l * (l * s - r * a), "<v'^2> = 2l(ls - ra)"),
        (mukai_pairing(v1, vprime, lat) == -1, "<v1, v'> = -1"),
    ]
    for ok, label in checks:
        if not ok:
            raise ConsistencyError(f"auxiliary construction invariant failed: {label}")

    w = IsometryWord((Dual(), Negate(), Reflect(v1)), lat).apply(vprime, lat)
    if w != MukaiVector(r1 - l * r, (-(d1 - l * dprime),), a1 - aprime):
        raise ConsistencyError("reflected target disagrees with its closed form")
    if ell(w) != 1:
        raise ConsistencyError("reflected target must have coprime rank and degree")
    return AuxConstruction(l, r, s, a, r1, d1, dprime, q, k, lat, vprime, v1, w)


def triangle_interior_count(r1: int, d1: int, r: int, d: int, l: int) -> int:
    """Number of lattice points strictly inside (0,0), (r1-lr, d1-ld), (r1, d1).

    Preconditions: r1, r > 0, l r < r1 and d r1 - r d1 = 1 (unimodularity).
    The count is Pick's, which vanishes on every valid tuple: area l/2 and
    l + 2 boundary points.
    """
    r1, r, d1, d, l = _at_least(r1, 1, "r1"), _at_least(r, 1, "r"), *_as_ints((d1, d, l))
    if l * r >= r1:
        raise InputError("need l r < r1")
    if d * r1 - r * d1 != 1:
        raise InputError("determinant d r1 - r d1 must equal 1")

    return _interior_points((0, 0), (r1 - l * r, d1 - l * d), (r1, d1))


def _interior_points(p1, p2, p3) -> int:
    """Lattice points strictly inside an integer triangle by Pick's theorem, 2A = 2I + B - 2,
    with B = sum of gcd(|dx|, |dy|) over the edges; 0 when it is degenerate."""
    (x1, y1), (x2, y2), (x3, y3) = p1, p2, p3
    area2 = abs((x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1))
    if area2 == 0:
        return 0
    boundary = gcd(x2 - x1, y2 - y1) + gcd(x3 - x2, y3 - y2) + gcd(x1 - x3, y1 - y3)
    return (area2 - boundary) // 2 + 1


class FareyCheck(Value):
    __slots__ = ("holds", "vacuous")

    def __bool__(self) -> bool:
        return self.holds


def farey_gap_holds(x1: int, y1: int, x2: int, y2: int,
                    x3: int, y3: int) -> FareyCheck:
    """Check x2 >= x1 + x3 for y1/x1 > y2/x2 > y3/x3 with y1 x3 - x1 y3 = 1.

    When the preconditions fail the statement is vacuous: the check returns
    holds=True with the vacuous flag set.
    """
    x1, y1, x2, y2, x3, y3 = _as_ints((x1, y1, x2, y2, x3, y3))
    preconditions = (
        x1 > 0 and x2 > 0 and x3 > 0
        and y1 * x3 - x1 * y3 == 1
        and y1 * x2 > y2 * x1
        and y2 * x3 > y3 * x2
    )
    if not preconditions:
        return FareyCheck(True, True)
    return FareyCheck(x2 >= x1 + x3, False)


def sweep_triangles(max_r1: int) -> tuple[int, list]:
    """Exhaust all valid (r1, d1, r, d, l) with r1 <= max_r1, |d1| <= max_r1.

    Returns (number of tuples checked, list of counterexample tuples).
    """
    max_r1 = _at_least(max_r1, 0, "bound")     # 0 is a valid, empty sweep
    check_work((max_r1 - 1) * (2 * max_r1 + 1), "sweep_triangles")     # (r1, d1) pairs
    checked = 0
    bad = []
    for r1 in range(2, max_r1 + 1):    # r1 = 1 admits no l with l r < r1
        for d1 in range(-max_r1, max_r1 + 1):
            if gcd(r1, d1) != 1:
                continue
            # unique r in (0, r1) with d r1 - r d1 = 1 for some integral d
            r = (-pow(d1, -1, r1)) % r1
            d = (1 + r * d1) // r1
            for l in range(1, (r1 - 1) // r + 1):
                checked += 1
                if _interior_points((0, 0), (r1 - l * r, d1 - l * d), (r1, d1)):
                    bad.append((r1, d1, r, d, l))
    return checked, bad


def sweep_farey(max_x: int) -> tuple[int, list]:
    """Exhaust the gap inequality over all tuples with x_i <= max_x.

    The data is invariant under the shear y_i -> y_i + t x_i, so y3 is
    normalized to [0, x3); every valid tuple is a shear of an enumerated one.
    y1 x3 - x1 y3 = 1 asks gcd(x3, y3) = 1 and x1 = -1/y3 (mod x3), so x1 steps
    by x3.  Every enumerated tuple meets the preconditions of farey_gap_holds by
    construction, and the gap x2 >= x1 + x3 does not read y2, so the sweep
    counts each (x1, x2, x3, y3)'s y2 at once and lists them only when it fails.
    Returns (number of tuples checked, list of counterexamples).
    """
    max_x = _at_least(max_x, 0, "bound")
    check_work(max_x * max_x * (max_x + 1) // 2, "sweep_farey")      # (x3, y3, x1) triples
    checked = 0
    bad = []
    for x3 in range(1, max_x + 1):
        for y3 in range(x3):
            if gcd(x3, y3) != 1:
                continue
            for x1 in range(-pow(y3, -1, x3) % x3 or x3, max_x + 1, x3):
                y1 = (1 + x1 * y3) // x3
                for x2 in range(1, max_x + 1):
                    # integers y2 with y3/x3 < y2/x2 < y1/x1; the gap does not read y2
                    lo = y3 * x2 // x3 + 1
                    hi = -((-y1 * x2) // x1) - 1    # floor/ceil tricks, exact
                    if hi >= lo:
                        checked += hi - lo + 1
                        if x2 < x1 + x3:
                            bad += [(x1, y1, x2, y2, x3, y3) for y2 in range(lo, hi + 1)]
    return checked, bad
