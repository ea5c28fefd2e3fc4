from fractions import Fraction

import mpmath
import pytest

from k3tk import (InputError, MukaiVector, QSeries, chi_virtual, content,
                  hilb_euler, primitive, qs_add, qs_scale,
                  qs_substitute_power, square, z1_zero, z_psu_direct,
                  z_psu_hecke, z_psu_hecke_literal)

from .conftest import random_lattice, random_vector
from .oracles import chi_virtual_brute, colored_partition_counts


def test_chi_virtual_primitive(gram2, rng):
    count = 0
    while count < 60:
        lat = random_lattice(rng, max_rank=2)
        v = random_vector(rng, lat.rank, spread=4)
        if v.r <= 0 or not primitive(v, lat):
            continue
        idx = square(v, lat) // 2 + 1
        assert chi_virtual(v, lat) == hilb_euler(idx)
        count += 1


def test_chi_virtual_examples(gram2):
    assert chi_virtual(MukaiVector(2, (0,), 2), gram2) == Fraction(1, 4)
    assert chi_virtual(MukaiVector(2, (0,), 0), gram2) == 30
    with pytest.raises(InputError):
        chi_virtual(MukaiVector(0, (0,), 1), gram2)


def test_chi_virtual_against_brute_oracle(rng):
    for _ in range(300):
        lat = random_lattice(rng, max_rank=2)
        v = random_vector(rng, lat.rank, spread=5)
        if v.r <= 0:
            continue
        expect = chi_virtual_brute((v.r, v.c1, v.a), lat.gram, hilb_euler)
        assert chi_virtual(v, lat) == expect


def test_chi_virtual_denominator(rng):
    for _ in range(300):
        lat = random_lattice(rng, max_rank=2)
        v = random_vector(rng, lat.rank, spread=6)
        if v.r <= 0:
            continue
        c = content(v)
        assert (c * c) % chi_virtual(v, lat).denominator == 0


def test_direct_rank_one_is_eta_series(gram2):
    assert z_psu_direct(1, (0,), 9, gram2) == z1_zero(9)


def test_direct_rank_two_coefficients(gram2):
    s = z_psu_direct(2, (0,), 6, gram2)
    assert s.coeff(-2) == Fraction(1, 4)
    assert s.coeff(0) == 30
    assert s.coeff(-1) == 0 and s.coeff(Fraction(1, 2)) == 0


def test_direct_offset_exponents(gram2):
    s = z_psu_direct(2, (1,), 8, gram2)
    assert s.coeffs, "series must not be empty"
    for e, _ in s.items():
        assert (e - Fraction(1, 2)).denominator == 1   # all exponents half-integral
    assert s.min_exponent >= -2


def test_direct_no_exponents_below_minus_r(gram2):
    for r in (1, 2, 3):
        s = z_psu_direct(r, (0,), 10, gram2)
        assert s.min_exponent >= -r


def test_hecke_rank_one_is_eta_series(gram2):
    # single factorization a = d = 1
    assert z_psu_hecke(1, (0,), 9, gram2) == z1_zero(9)


def test_hecke_equals_direct(gram2, rng):
    for r in (1, 2, 3, 4, 6):
        for alpha in ((0,), (1,), (2,)):
            assert z_psu_hecke(r, alpha, 12, gram2) == \
                z_psu_direct(r, alpha, 12, gram2)
    for _ in range(20):
        lat = random_lattice(rng, max_rank=2, spread=2)
        r = rng.randint(1, 4)
        alpha = tuple(rng.randint(-2, 2) for _ in range(lat.rank))
        order = rng.randint(3, 9)
        assert z_psu_hecke(r, alpha, order, lat) == \
            z_psu_direct(r, alpha, order, lat)


def test_hecke_hand_evaluation(gram2):
    # (1/4) [sum_n chi_n q^{2(n-1)} + 4 sum_{n odd} chi_n q^{(n-1)/2}]
    s = z_psu_hecke(2, (0,), 5, gram2)
    oracle = {}
    chi = colored_partition_counts(12)
    for n in range(12):
        e = Fraction(2 * (n - 1))
        if e < 5:
            oracle[e] = oracle.get(e, Fraction(0)) + Fraction(chi[n], 4)
        e = Fraction(n - 1, 2)
        if n % 2 == 1 and e < 5:
            oracle[e] = oracle.get(e, Fraction(0)) + Fraction(4 * chi[n], 4)
    assert dict(s.items()) == {e: c for e, c in oracle.items() if c}


def test_hecke_assembles_from_substitutions(gram2):
    # r = 2, alpha = 0: (1/4) [ (q -> q^2 in the rank-1 series)
    #                           + 4 * odd-index part at exponents (n-1)/2 ]
    order = 7
    piece_a2 = qs_substitute_power(z1_zero(2 * order), 2)
    odd = QSeries.from_terms(
        {Fraction(n - 1, 2): hilb_euler(n) for n in range(1, 2 * order, 2)},
        order)
    assembled = qs_add(qs_scale(piece_a2, Fraction(1, 4)), qs_scale(odd, 1))
    want = z_psu_hecke(2, (0,), assembled.trunc, gram2)
    assert dict(assembled.items()) == dict(want.items())


def test_literal_rank_one(gram2):
    lit = z_psu_hecke_literal(1, (0,), 10, gram2)
    exact = z1_zero(10)
    for e, c in lit.items():
        assert abs(mpmath.im(c)) < 1e-12
        assert abs(mpmath.re(c) - int(exact.coeff(e))) < 1e-12


def test_literal_matches_exact(gram2):
    # the coefficients overflow double precision, so compare at elevated dps
    with mpmath.workdps(80):
        for r in (2, 3, 4, 6):
            lit = z_psu_hecke_literal(r, (0,), 12, gram2)
            exact = z_psu_hecke(r, (0,), 12, gram2)
            for e, c in lit.items():
                assert abs(mpmath.im(c)) < 1e-9
                want = exact.coeff(e)
                diff = abs(mpmath.re(c) - mpmath.mpf(want.numerator) / want.denominator)
                assert diff < 1e-9
    lit = z_psu_hecke_literal(2, (0,), 6, gram2)
    assert abs(lit.coeff(0) - 30) < 1e-9


def test_rank_and_alpha_must_be_integral(gram2):
    for path in (z_psu_direct, z_psu_hecke, z_psu_hecke_literal):
        with pytest.raises(InputError):
            path(2, (1.5,), 4, gram2)
        with pytest.raises(InputError):
            path(1.5, (0,), 4, gram2)


def test_literal_rank_guard(gram2):
    with pytest.raises(InputError):
        z_psu_hecke_literal(13, (0,), 4, gram2)


def test_numeric_series_access(gram2):
    lit = z_psu_hecke_literal(2, (1,), 8, gram2)
    assert lit.coeff(Fraction(1, 4)) == mpmath.mpc(0)
    with pytest.raises(InputError):
        lit.coeff(8)
