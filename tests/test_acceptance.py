"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every tolerance and budget is pinned here, not configurable.
"""

import random
import time
from fractions import Fraction
from math import gcd

import mpmath

from k3tk import (EvenLattice, IsometryWord, MukaiVector, NSAuto, Splitting, apply_reflect,
                  apply_translate, build_auxiliary, chi_virtual,
                  classify_non_locally_free, dual, ell, gottsche_series,
                  hilb_euler, hilb_index, moduli, moduli_dim, mukai_pairing,
                  primitive, qs_evaluate, square,
                  sweep_farey, sweep_triangles, z1_zero, z_full_direct,
                  z_full_factorized, z_psu_direct, z_psu_hecke,
                  z_psu_hecke_literal)
from k3tk.moduli import REFL_POINT, UNIV_EXT

from .conftest import random_lattice, random_vector


def report(num, label, elapsed, budget):
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"
    print(f"ACCEPTANCE {num:02d} {label}: PASS ({elapsed:.2f}s)")


def test_c01_pairing_algebra():
    start = time.time()
    rng = random.Random(101)
    pool = [random_lattice(rng, max_rank=4) for _ in range(400)]
    for i in range(10_000):
        lat = pool[i % len(pool)]
        x = random_vector(rng, lat.rank)
        y = random_vector(rng, lat.rank)
        p = mukai_pairing(x, y, lat)
        assert p == mukai_pairing(y, x, lat)
        assert mukai_pairing(x, x, lat) % 2 == 0
        assert mukai_pairing(dual(x), dual(y), lat) == p
    report(1, "pairing symmetry/evenness/duality (10^4 exact)", time.time() - start, 1.0)


def test_c02_isometry_suite():
    start = time.time()
    rng = random.Random(202)
    pool = [random_lattice(rng, max_rank=3, spread=3) for _ in range(400)]
    for i in range(10_000):
        lat = pool[i % len(pool)]
        x = random_vector(rng, lat.rank, spread=6)
        y = random_vector(rng, lat.rank, spread=6)
        before = mukai_pairing(x, y, lat)
        shift = tuple(rng.randint(-3, 3) for _ in range(lat.rank))
        kind = rng.randrange(3)
        if kind == 0:
            tx, ty = apply_translate(shift, x, lat), apply_translate(shift, y, lat)
        elif kind == 1:
            u = apply_translate(shift, MukaiVector(1, (0,) * lat.rank, 1), lat)
            tx, ty = apply_reflect(u, x, lat), apply_reflect(u, y, lat)
            assert apply_reflect(u, tx, lat) == x        # R^2 = id
        else:
            sign = rng.choice((1, -1))
            auto = IsometryWord((NSAuto([[sign if i == j else 0 for j in range(lat.rank)]
                                         for i in range(lat.rank)]),), lat)
            tx, ty = auto.apply(x, lat), auto.apply(y, lat)
        assert mukai_pairing(tx, ty, lat) == before
        if i % 2 == 0:
            other = tuple(rng.randint(-3, 3) for _ in range(lat.rank))
            both = tuple(a + b for a, b in zip(shift, other))
            assert apply_translate(shift, apply_translate(other, x, lat), lat) == \
                apply_translate(both, x, lat)           # T_N T_M = T_{N+M}
    report(2, "isometries preserve pairing, R^2=id, T additive (10^4 exact)",
           time.time() - start, 1.0)


def test_c03_gottsche_vs_partition_oracle(monkeypatch):
    start = time.time()
    order = 25
    counts = [1] + [0] * (order - 1)        # 24-colored partition DP, inline oracle
    for part in range(1, order):
        for _ in range(24):
            for n in range(part, order):
                counts[n] += counts[n - part]
    series = gottsche_series(order)
    assert [int(series.coeff(n)) for n in range(order)] == counts
    assert counts[:4] == [1, 24, 324, 3200]
    report(3, "Goettsche series to order 25 matches the colored-partition DP",
           time.time() - start, 1.0)
    monkeypatch.setattr(moduli, "_hilb_euler", [1])
    start = time.time()             # O(n^1.5) products: a return to n^2 takes over 1 s
    hilb_euler(4000)
    report(3, "Euler-number table grown from empty to index 4000",
           time.time() - start, 1.0)


def test_c04_chi_virtual_primitive():
    start = time.time()
    rng = random.Random(404)
    done = 0
    while done < 100:
        lat = random_lattice(rng, max_rank=3)
        v = random_vector(rng, lat.rank, spread=6)
        if v.r <= 0 or not primitive(v):
            continue
        idx = square(v, lat) // 2 + 1
        assert chi_virtual(v, lat) == Fraction(hilb_euler(idx))
        done += 1
    report(4, "chi_virtual(primitive) equals the Goettsche coefficient (100 cases)",
           time.time() - start, 5.0)


def test_c05_triple_path_partition_functions():
    start = time.time()
    lat = EvenLattice(((2,),))
    with mpmath.workdps(80):
        for r in (1, 2, 3, 4, 6):
            for alpha in ((0,), (1,), (2,)):
                direct = z_psu_direct(r, alpha, 12, lat)
                hecke = z_psu_hecke(r, alpha, 12, lat)
                assert direct == hecke
                literal = z_psu_hecke_literal(r, alpha, 12, lat)
                exps = {e for e, _ in direct.items()} | {e for e, _ in literal.items()}
                for e in exps:
                    c = literal.coeff(e)
                    want = direct.coeff(e)
                    assert abs(mpmath.im(c)) < 1e-9
                    assert abs(mpmath.re(c)
                               - mpmath.mpf(want.numerator) / want.denominator) < 1e-9
    report(5, "z_psu direct = hecke exactly and = literal within 1e-9 "
              "(r in {1,2,3,4,6}, alpha in {0,H,2H}, order 12)",
           time.time() - start, 10.0)


def test_c06_rank_one_identity_and_modularity():
    start = time.time()
    lat = EvenLattice(((2,),))
    assert z_psu_direct(1, (0,), 20, lat) == z1_zero(20)
    series = z1_zero(42)
    tau = 0.5j
    lhs = qs_evaluate(series, -1 / tau).value
    rhs = (-1j * tau) ** (-12) * qs_evaluate(series, tau).value
    assert abs(lhs - rhs) / abs(lhs) < 1e-6
    # the same law stated at the test points of the criterion
    z_2i = qs_evaluate(series, 2j).value
    z_half_i = qs_evaluate(series, 0.5j).value
    assert abs(z_2i - 0.5 ** (-12) * z_half_i) / abs(z_2i) < 1e-6
    report(6, "Z_1^0 equals q^-1 prod(1-q^n)^-24; S-transformation at tau=i/2 "
              "within 1e-6", time.time() - start, 1.0)


def test_c07_factorization():
    start = time.time()
    lat = EvenLattice(((-2,),))
    split = Splitting.identity_positive(lat)
    for r in (1, 2):
        direct = z_full_direct(lat, r, 1j, split, None, 8.0, 5.0)
        fact = z_full_factorized(lat, r, 1j, split, None, 12, 5.0)
        assert direct.tail < 1e-8, f"direct tail {direct.tail} not certified below 1e-8"
        assert fact.tail < 1e-8, f"factorized tail {fact.tail} not certified below 1e-8"
        assert abs(direct.value - fact.value) < 1e-6
    report(7, "Z_r = sum_alpha Z_r^alpha Theta_alpha within 1e-6 (Gram [-2], "
              "r in {1,2}, tau=i)", time.time() - start, 30.0)


def test_c08_auxiliary_construction_sweep():
    start = time.time()
    built = 0
    for l in range(1, 5):
        for r in range(1, 6):
            for s in range(0, 7):
                for a in range(-5, 6):
                    if gcd(l, a) != 1 or 2 * l * (l * s - r * a) < 0:
                        continue
                    aux = build_auxiliary(l, r, s, a)
                    lat = aux.lattice
                    assert square(aux.v1, lat) == -2
                    assert mukai_pairing(aux.v1, aux.vprime, lat) == -1
                    assert square(aux.vprime, lat) == 2 * l * (l * s - r * a)
                    assert aux.k > 0
                    assert (aux.a * aux.r1 - 1) % l == 0
                    assert aux.dprime * aux.r1 - aux.d1 * aux.r == 1
                    assert (aux.vprime.a - a) % l == 0
                    assert ell(aux.w) == 1
                    built += 1
    assert built > 500
    report(8, f"auxiliary construction sweep ({built} instances, all invariants exact)",
           time.time() - start, 5.0)


def test_c09_exhaustive_sweeps():
    start = time.time()
    checked_t, bad_t = sweep_triangles(40)
    assert bad_t == [], f"triangle counterexamples: {bad_t[:3]}"
    checked_f, bad_f = sweep_farey(60)
    assert bad_f == [], f"farey counterexamples: {bad_f[:3]}"
    report(9, f"exhaustive sweeps ({checked_t} triangles, {checked_f} "
              "farey tuples, zero counterexamples)", time.time() - start, 60.0)


def test_c10_classification_consistency():
    start = time.time()
    refl_seen = univ_seen = 0
    for k in range(1, 5):
        lat = EvenLattice(((2 * k,),))
        # every (-2)-vector (r0, d, b) on this lattice: 2 k d^2 - 2 r0 b = -2
        for r0 in range(1, 5):
            for d in range(-3, 4):
                if (k * d * d + 1) % r0:
                    continue
                v0 = MukaiVector(r0, (d,), (k * d * d + 1) // r0)
                assert square(v0, lat) == -2
                if r0 >= 2:
                    v = r0 * v0 - MukaiVector.omega(1)
                    res = classify_non_locally_free(v, lat)
                    assert res.kind == REFL_POINT
                    assert square(v, lat) == 0 and moduli_dim(v, lat) == 2
                    refl_seen += 1
                if r0 == 1:
                    for l in range(2, 6):
                        v = l * v0 - (l + 1) * MukaiVector.omega(1)
                        res = classify_non_locally_free(v, lat)
                        assert res.kind == UNIV_EXT
                        assert hilb_index(v, lat) == l + 1
                        univ_seen += 1
    assert refl_seen > 5 and univ_seen > 10
    report(10, f"classification: refl_point => square 0, dim 2 ({refl_seen} cases); "
               f"univ_ext => hilb index l+1 ({univ_seen} cases)",
           time.time() - start, 5.0)


def test_c11_hecke_law_of_minahan_et_al():
    # Minahan, Nemeschansky, Vafa and Warner (hep-th/9802203): the rank-r partition function
    # is the Hecke transform of the rank-1 one, Z_r(tau) = r^-2 sum_{ad=r} sum_{0<=b<d}
    # d Z_1((a tau + b)/d); the 1e-12 relative term is rounding, which no tail counts yet
    start = time.time()
    worst = 0.0
    for gram in (((0, 1), (1, 0)), ((2, 0), (0, -2)), ((2, 1), (1, -4)), ((-2,),)):
        lat = EvenLattice(gram)
        split = Splitting.spectral(lat)
        for r in (2, 3):
            for tau in (1.6j, 0.2 + 1.8j):
                z_r = z_full_factorized(lat, r, tau, split, None, 30, 9.0)
                value, tail = 0j, 0.0
                for d in (d for d in range(1, r + 1) if r % d == 0):
                    for b in range(d):
                        z_1 = z_full_factorized(lat, 1, (r // d * tau + b) / d, split,
                                                None, 30, 9.0)
                        value += d * z_1.value
                        tail += d * z_1.tail
                error = abs(z_r.value - value / r ** 2)
                assert error <= z_r.tail + tail / r ** 2 + 1e-12 * abs(z_r.value), \
                    (gram, r, tau, error)
                worst = max(worst, error / abs(z_r.value))
    report(11, f"Z_r = T_r Z_1 (Minahan et al.) within the tails plus 1e-12 relative "
               f"(4 lattices, r in {{2,3}}, 2 tau; worst {worst:.1e})",
           time.time() - start, 1.0)
