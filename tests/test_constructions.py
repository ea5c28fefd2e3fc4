from math import gcd, prod

import pytest

from k3tk import (InputError, build_auxiliary, ell,
                  farey_gap_holds, reflected_target, square, sweep_farey,
                  sweep_triangles, triangle_interior_count)
from k3tk.constructions import _interior_points

from .oracles import box_interior, pairing_brute, pick_interior


def check_aux_with_oracle(aux):
    """Verify every stated invariant with the hand-expanded pairing oracle."""
    gram = aux.lattice.gram
    v1 = (aux.v1.r, aux.v1.c1, aux.v1.a)
    vp = (aux.vprime.r, aux.vprime.c1, aux.vprime.a)
    assert (aux.a * aux.r1 - 1) % aux.l == 0
    assert gcd(aux.r1, aux.r) == 1
    assert aux.r1 - aux.l * aux.r >= 2
    assert aux.dprime * aux.r1 - aux.d1 * aux.r == 1
    assert aux.a * aux.r1 + aux.q * aux.l == 1
    assert aux.k == aux.r1 * (aux.q * aux.r + aux.r1 * aux.s) - aux.r ** 2 > 0
    assert pairing_brute(v1, v1, gram) == -2
    assert pairing_brute(vp, vp, gram) == 2 * aux.l * (aux.l * aux.s - aux.r * aux.a)
    assert pairing_brute(v1, vp, gram) == -1
    assert (aux.vprime.a - aux.a) % aux.l == 0


def test_build_auxiliary_instance_2321():
    aux = build_auxiliary(2, 3, 2, 1)
    assert (aux.r1, aux.q) == (11, -5)
    assert aux.k == 11 * (-15 + 22) - 9 == 68
    check_aux_with_oracle(aux)
    w = reflected_target(aux)
    assert w == aux.w
    assert w.r == aux.r1 - aux.l * aux.r >= 2
    assert gcd(aux.r1 - 6, aux.d1 - 2 * aux.dprime) == 1
    assert ell(w) == 1
    assert square(w, aux.lattice) == square(aux.vprime, aux.lattice)


def test_build_auxiliary_instance_l1():
    # smallest l = 1, r = 2 instance with nonnegative square (s = 2)
    aux = build_auxiliary(1, 2, 2, 1)
    assert aux.r1 >= 4 and gcd(aux.r1, 2) == 1
    check_aux_with_oracle(aux)


def test_build_auxiliary_rejects_negative_square():
    # (1, 2, 1, 1) has square 2l(ls - ra) = -2; k = r1(2 - r1) - 4 < 0 for
    # every admissible r1, so no construction exists and the input is refused
    with pytest.raises(InputError):
        build_auxiliary(1, 2, 1, 1)


def test_build_auxiliary_preconditions():
    with pytest.raises(InputError):
        build_auxiliary(2, 3, 2, 4)      # gcd(l, a) = 2
    with pytest.raises(InputError):
        build_auxiliary(2, 3, 0, 1)      # square 2l(ls - ra) < 0
    with pytest.raises(InputError):
        build_auxiliary(0, 3, 2, 1)


def test_build_auxiliary_grid():
    for l in range(1, 5):
        for r in range(1, 6):
            for s in range(0, 7):
                for a in range(-5, 6):
                    if gcd(l, a) != 1 or 2 * l * (l * s - r * a) < 0:
                        continue
                    aux = build_auxiliary(l, r, s, a)
                    check_aux_with_oracle(aux)
                    assert ell(reflected_target(aux)) == 1


def test_triangle_examples():
    assert triangle_interior_count(3, 1, 2, 1, 1) == 0
    assert triangle_interior_count(11, -4, 3, -1, 2) == 0
    with pytest.raises(InputError):
        triangle_interior_count(3, 1, 2, 0, 1)        # determinant 2... rejected
    with pytest.raises(InputError):
        triangle_interior_count(4, 2, 2, 1, 1)        # determinant 0
    with pytest.raises(InputError):
        triangle_interior_count(3, 1, 3, 1, 1)        # l r >= r1


def test_triangle_matches_pick(rng):
    # enumeration path vs Pick's theorem on valid and perturbed triangles
    cases = 0
    while cases < 200:
        r1 = rng.randint(2, 25)
        d1 = rng.randint(-25, 25)
        if gcd(r1, d1) != 1:
            continue
        r = (-pow(d1, -1, r1)) % r1
        if r == 0:
            continue
        d = (1 + r * d1) // r1
        lmax = (r1 - 1) // r
        if lmax < 1:
            continue
        l = rng.randint(1, lmax)
        count = triangle_interior_count(r1, d1, r, d, l)
        pick = pick_interior((0, 0), (r1 - l * r, d1 - l * d), (r1, d1))
        assert count == pick == 0
        cases += 1


def test_column_scan_matches_box_count_and_pick(rng):
    # arbitrary integer triangles, either orientation, a share of them collinear
    collinear = 0
    for _ in range(400):
        p1 = (rng.randint(-12, 12), rng.randint(-12, 12))
        p2 = (rng.randint(-12, 12), rng.randint(-12, 12))
        if rng.random() < 0.25:
            t = rng.randint(-3, 3)
            p3 = (p1[0] + t * (p2[0] - p1[0]), p1[1] + t * (p2[1] - p1[1]))
        else:
            p3 = (rng.randint(-12, 12), rng.randint(-12, 12))
        count = _interior_points(p1, p2, p3)
        assert count == box_interior(p1, p2, p3)
        area2 = (p2[0] - p1[0]) * (p3[1] - p1[1]) - (p2[1] - p1[1]) * (p3[0] - p1[0])
        if area2:
            assert count == pick_interior(p1, p2, p3)
        else:
            collinear += 1
            assert count == 0
    assert collinear > 50


@pytest.mark.parametrize("bad", [1.5, True, "3"])
def test_integer_arguments_are_strict(bad):
    for call in (lambda: build_auxiliary(bad, 3, 2, 1),
                 lambda: sweep_triangles(bad),
                 lambda: sweep_farey(bad),
                 lambda: triangle_interior_count(bad, 1, 1, 1, 1),
                 lambda: farey_gap_holds(bad, 1, 2, 1, 1, 0)):
        with pytest.raises(InputError):
            call()


def test_integral_floats_are_read_as_integers():
    assert triangle_interior_count(2.0, 1, 1, 1, 1) == 0
    assert farey_gap_holds(1.0, 1, 2, 1, 1, 0) == farey_gap_holds(1, 1, 2, 1, 1, 0)


@pytest.mark.parametrize("sweep", [sweep_triangles, sweep_farey])
def test_sweeps_refuse_a_negative_bound(sweep):
    for bad in (-1, -4):
        with pytest.raises(InputError, match="bound must be nonnegative"):
            sweep(bad)
    assert sweep(0) == (0, [])              # an empty sweep, not an error


def test_sweeps_refuse_huge_bounds_and_r1_search_scans_one_class():
    for sweep in (sweep_triangles, sweep_farey):
        with pytest.raises(InputError, match="would visit"):
            sweep(10 ** 6)
    # a r1 = 1 (mod l): the search steps through that class, not every integer
    aux = build_auxiliary(10 ** 11, 1, 1, 1)
    assert aux.r1 == 2 * 10 ** 11 + 1
    assert build_auxiliary(7, 3, 2, 3).r1 == min(
        c for c in range(23, 500) if (3 * c - 1) % 7 == 0 and gcd(c, 3) == 1)


def test_r1_scan_ends_quickly_for_a_primorial_rank():
    # r = product of the first 40 primes: many candidates share a small prime with it
    r = prod(p for p in range(2, 174) if all(p % q for q in range(2, p)))
    for l, a in ((1, 1), (2, 1), (3, 2), (7, 3), (30, 7), (97, -5), (2 ** 61 - 1, 1)):
        aux = build_auxiliary(l, r, r, a)
        check_aux_with_oracle(aux)
        start = l * r + 2
        assert (aux.r1 - start) // l < 200
        if l < 100:                 # every integer from l r + 2 on, not only a's class
            assert aux.r1 == next(c for c in range(start, start + 300 * l)
                                  if (a * c - 1) % l == 0 and gcd(c, r) == 1)


def test_farey_examples():
    assert farey_gap_holds(1, 1, 2, 1, 1, 0).holds
    res = farey_gap_holds(2, 1, 5, 2, 3, 1)
    assert res.holds and not res.vacuous
    assert bool(res)


def test_farey_vacuous_flag():
    res = farey_gap_holds(1, 1, 2, 1, 1, 1)   # determinant 0: precondition fails
    assert res.holds and res.vacuous
    res = farey_gap_holds(-1, 1, 2, 1, 1, 0)  # x1 <= 0
    assert res.vacuous


def test_sweeps_small():
    checked, bad = sweep_triangles(12)
    assert checked > 100 and bad == []
    checked, bad = sweep_farey(15)
    assert checked > 100 and bad == []
