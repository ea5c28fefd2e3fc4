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

Exact invariants certified before returning: <v1^2> = -2, <v1, v'> = -1,
<v'^2> = 2l(ls - ra), a' = a (mod l), and k > 0.  The reflected target
w = -dual(v' + <v', v1> v1) = (r1 - lr, [-(d1 - l d')], a1 - a') then has
coprime rank and degree (its top gcd is 1).

triangle_interior_count checks, by an exact column scan, that the triangle
(0,0), (r1 - lr, d1 - ld), (r1, d1) with d r1 - r d1 = 1 and lr < r1 has no
interior lattice point: for each integer x strictly inside the triangle's
x-range, the three edges bound y by integer floor/ceil divisions, and the
integers strictly between those bounds are counted.  A brute-force box count
and Pick's theorem serve as oracles in the tests.  farey_gap_holds
checks the mediant-style gap x2 >= x1 + x3 for slopes y1/x1 > y2/x2 > y3/x3
with y1 x3 - x1 y3 = 1.

The exceptional bundle realizing v1, and the birational map itself, are
sheaf-level content and out of scope; only the lattice data is built.
"""

from __future__ import annotations

from math import gcd, inf

from .errors import ConsistencyError, InputError, check_work
from .isometry import apply_reflect
from .lattice import (EvenLattice, MukaiVector, Value, _as_int, _as_ints, _at_least, dual, ell,
                      mukai_pairing, square)


class AuxConstruction(Value):
    # integers, then the rank-1 lattice with Gram [2k] and three Mukai vectors
    __slots__ = ("l", "r", "s", "a", "r1", "d1", "dprime", "q", "k",
                 "lattice", "vprime", "v1", "w")

    def to_json(self) -> dict:
        return {
            "l": self.l, "r": self.r, "s": self.s, "a": self.a,
            "r1": self.r1, "d1": self.d1, "dprime": self.dprime,
            "q": self.q, "k": self.k,
            "lattice": self.lattice.to_json(),
            "vprime": self.vprime.to_json(),
            "v1": self.v1.to_json(),
            "w": self.w.to_json(),
        }


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
        ((a * r1 - 1) % l == 0, "a r1 = 1 (mod l)"),
        (gcd(r1, r) == 1, "gcd(r1, r) = 1"),
        (r1 - l * r >= 2, "r1 - l r >= 2"),
        (dprime * r1 - d1 * r == 1, "d' r1 - d1 r = 1"),
        (a * r1 + q * l == 1, "a r1 + q l = 1"),
        (square(v1, lat) == -2, "<v1^2> = -2"),
        (square(vprime, lat) == 2 * l * (l * s - r * a), "<v'^2> = 2l(ls - ra)"),
        (mukai_pairing(v1, vprime, lat) == -1, "<v1, v'> = -1"),
        ((aprime - a) % l == 0, "a' = a (mod l)"),
    ]
    for ok, label in checks:
        if not ok:
            raise ConsistencyError(f"auxiliary construction invariant failed: {label}")

    w = _reflected(v1, vprime, lat, l, r, r1, d1, dprime)
    return AuxConstruction(l, r, s, a, r1, d1, dprime, q, k, lat, vprime, v1, w)


def _reflected(v1: MukaiVector, vprime: MukaiVector, lat: EvenLattice,
               l: int, r: int, r1: int, d1: int, dprime: int) -> MukaiVector:
    w = -dual(apply_reflect(v1, vprime, lat))
    expected = MukaiVector(r1 - l * r, (-(d1 - l * dprime),), v1.a - vprime.a)
    if w != expected:
        raise ConsistencyError("reflected target disagrees with its closed form")
    if ell(w) != 1:
        raise ConsistencyError("reflected target must have coprime rank and degree")
    if square(w, lat) != square(vprime, lat):
        raise ConsistencyError("reflection must preserve the square")
    return w


def reflected_target(aux: AuxConstruction) -> MukaiVector:
    """w = -dual(reflection of v' by v1); verified to have coprime top part."""
    return _reflected(aux.v1, aux.vprime, aux.lattice,
                      aux.l, aux.r, aux.r1, aux.d1, aux.dprime)


def triangle_interior_count(r1: int, d1: int, r: int, d: int, l: int) -> int:
    """Number of lattice points strictly inside (0,0), (r1-lr, d1-ld), (r1, d1).

    Preconditions: r1, r > 0, l r < r1 and d r1 - r d1 = 1 (unimodularity);
    the count is expected to vanish for every valid tuple.
    """
    r1, r, d1, d, l = _at_least(r1, 1, "r1"), _at_least(r, 1, "r"), *_as_ints((d1, d, l))
    if l * r >= r1:
        raise InputError("need l r < r1")
    if d * r1 - r * d1 != 1:
        raise InputError("determinant d r1 - r d1 must equal 1")

    return _interior_points((0, 0), (r1 - l * r, d1 - l * d), (r1, d1))


def _interior_points(p1, p2, p3) -> int:
    """Lattice points strictly inside an integer triangle; 0 when it is degenerate.

    A point is inside when it lies strictly on the inner side of all three
    edges.  In column x, edge P -> Q asks a y > b with a = sgn (Qx - Px) and
    b = sgn ((Qx - Px) Py + (Qy - Py)(x - Px)); this bounds y from below when
    a > 0 and from above when a < 0.  A vertical edge (a = 0) sits at the
    smallest or largest x, outside the columns scanned, so it bounds nothing.
    """
    (x1, y1), (x2, y2), (x3, y3) = p1, p2, p3
    orient = (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)
    if orient == 0:
        return 0
    sgn = 1 if orient > 0 else -1
    edges = [(sgn * (qx - px), px, py, sgn * (qy - py))
             for (px, py), (qx, qy) in ((p1, p2), (p2, p3), (p3, p1)) if qx != px]
    count = 0
    for x in range(min(x1, x2, x3) + 1, max(x1, x2, x3)):
        lo, hi = -inf, inf
        for a, px, py, dy in edges:
            b = a * py + dy * (x - px)
            if a > 0:
                lo = max(lo, b // a + 1)        # least y with a y > b
            else:
                hi = min(hi, -(b // -a) - 1)    # greatest y with a y > b
        count += max(0, hi - lo + 1)
    return count


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
            if d * r1 - r * d1 != 1:
                raise ConsistencyError("triangle sweep produced a bad determinant")
            for l in range(1, (r1 - 1) // r + 1):
                checked += 1
                if triangle_interior_count(r1, d1, r, d, l) != 0:
                    bad.append((r1, d1, r, d, l))
    return checked, bad


def sweep_farey(max_x: int) -> tuple[int, list]:
    """Exhaust the gap inequality over all tuples with x_i <= max_x.

    The data is invariant under the shear y_i -> y_i + t x_i, so y3 is
    normalized to [0, x3); every valid tuple is a shear of an enumerated one.
    Every enumerated tuple meets the preconditions of farey_gap_holds by
    construction, so the sweep tests x2 < x1 + x3 directly.
    Returns (number of tuples checked, list of counterexamples).
    """
    max_x = _at_least(max_x, 0, "bound")
    check_work(max_x * max_x * (max_x + 1) // 2, "sweep_farey")      # (x3, y3, x1) triples
    checked = 0
    bad = []
    for x3 in range(1, max_x + 1):
        for y3 in range(x3):
            for x1 in range(1, max_x + 1):
                num = 1 + x1 * y3
                if num % x3:
                    continue
                y1 = num // x3
                for x2 in range(1, max_x + 1):
                    # integers y2 with y3/x3 < y2/x2 < y1/x1
                    lo = y3 * x2 // x3 + 1
                    hi = -((-y1 * x2) // x1) - 1    # floor/ceil tricks, exact
                    for y2 in range(lo, hi + 1):
                        checked += 1
                        if x2 < x1 + x3:
                            bad.append((x1, y1, x2, y2, x3, y3))
    return checked, bad
