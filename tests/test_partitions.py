import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3tk import (EvenLattice, InputError, MukaiVector, QSeries, chi_virtual, content, errors,
                  hilb_euler, moduli, partitions, primitive, qs_add, qs_scale,
                  qs_substitute_power, square, z1_zero, z_psu_direct, z_psu_hecke, z_psu_hecke_literal)

from .conftest import random_lattice, random_vector
from .oracles import (chi_virtual_brute, colored_partition_counts,
                      hecke_literal_reference)


def test_chi_virtual_primitive(gram2, rng):
    count = 0
    while count < 60:
        lat = random_lattice(rng, max_rank=2)
        v = random_vector(rng, lat.rank, spread=4)
        if v.r <= 0 or not primitive(v):
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


@st.composite
def _rank_alpha_order(draw):
    """(lattice of rank 1 or 2, r <= 6, alpha, rational order)."""
    rank = draw(st.integers(1, 2))
    entry = st.integers(-3, 3)
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        gram[i][i] = 2 * draw(entry)
        for j in range(i):
            gram[i][j] = gram[j][i] = draw(entry)
    alpha = tuple(draw(st.integers(-4, 4)) for _ in range(rank))
    order = Fraction(draw(st.integers(-12, 60)), draw(st.integers(1, 5)))
    return EvenLattice(tuple(map(tuple, gram))), draw(st.integers(1, 6)), alpha, order


@settings(max_examples=150, deadline=None)
@given(_rank_alpha_order())
def test_hecke_equals_direct_property(case):
    lat, r, alpha, order = case
    assert z_psu_hecke(r, alpha, order, lat) == z_psu_direct(r, alpha, order, lat)


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 40), st.integers(-500, 500), st.integers(-10 ** 6, 10 ** 6),
       st.integers(1, 10 ** 4))
def test_a_span_starts_at_the_fraction_floor(r, half_square, p, q):
    # the integer floor division equals floor(((alpha^2) - 2r order) / 2r) + 1 in Fractions
    s_alpha, order = 2 * half_square, Fraction(p, q)
    a_min = math.floor((Fraction(s_alpha) - 2 * r * order) / (2 * r)) + 1
    a_max = (s_alpha + 2 * r * r) // (2 * r)
    if a_max - a_min + 1 <= errors.MAX_WORK:
        assert partitions._a_span(r, s_alpha, order) == range(a_min, a_max + 1)


@settings(max_examples=150, deadline=None)
@given(_rank_alpha_order(), st.integers(1, 3))
def test_direct_series_depends_on_alpha_through_its_class_alone(case, r):
    # z_full_factorized evaluates one series per ((alpha^2), gcd(r, alpha))
    lat, _, alpha, order = case
    key = lambda a: (lat.quad(a), math.gcd(r, *a))
    for beta in (tuple(-a for a in alpha), alpha[::-1]):
        if key(beta) == key(alpha):
            assert z_psu_direct(r, beta, order, lat) == z_psu_direct(r, alpha, order, lat)


def test_direct_and_hecke_refuse_alike_on_a_cold_table(gram2, monkeypatch):
    # both paths grow the table once, through the last index they read, and hilb_euler caps
    # the whole table's cost (n + 1) T(n) however warm it is: r = 1, alpha = 0 reads index
    # order, and 37501 * T(37500) = 37501 * 273 passes 10^7
    for path in (z_psu_direct, z_psu_hecke):
        monkeypatch.setattr(moduli, "_hilb_euler", [1])
        with pytest.raises(InputError, match="hilb_euler would visit"):
            path(1, (0,), 37500, gram2)
    # under a cap of 2000 the last admitted index is 132: 133 * 15 = 1995
    monkeypatch.setattr(errors, "MAX_WORK", 2000)
    seen = set()
    for r, alpha in ((1, (0,)), (2, (1,)), (3, (1,)), (6, (2,))):
        for order in (Fraction(k, 4) for k in range(4 * 120 // r, 4 * 140 // r)):
            outcomes = []
            for path in (z_psu_direct, z_psu_hecke):
                monkeypatch.setattr(moduli, "_hilb_euler", [1])
                try:
                    outcomes.append(path(r, alpha, order, gram2))
                except InputError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
            seen.add(type(outcomes[0]))
    assert seen == {QSeries, str}


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


@pytest.mark.parametrize("path", [z_psu_direct, z_psu_hecke, z_psu_hecke_literal],
                         ids=["direct", "hecke", "literal"])
def test_a_foreign_lattice_is_a_type_error_naming_even_lattice(path):
    with pytest.raises(TypeError, match="^expected EvenLattice, got tuple$"):
        path(2, (1,), 3, ((2,),))


def test_literal_rank_guard(gram2):
    with pytest.raises(InputError):
        z_psu_hecke_literal(13, (0,), 4, gram2)


def test_numeric_series_access(gram2):
    lit = z_psu_hecke_literal(2, (1,), 8, gram2)
    assert lit.coeff(Fraction(1, 4)) == mpmath.mpc(0)
    with pytest.raises(InputError):
        lit.coeff(8)


def test_literal_bit_identical_to_per_term_reference(gram2):
    # cached roots and phase sums must give the very mpc values of one
    # expjpi per (n, b) term, summed in the same order
    euler = colored_partition_counts(120)
    lat2 = EvenLattice(((2, 1), (1, -4)))
    for r, alpha, lat, order in ((1, (0,), gram2, 10), (2, (1,), gram2, 12),
                                 (3, (0,), gram2, 12), (4, (2,), gram2, Fraction(17, 2)),
                                 (6, (0,), gram2, 6), (2, (2, 0), lat2, 9),
                                 (3, (0, 3), lat2, Fraction(15, 2))):
        lit = z_psu_hecke_literal(r, alpha, order, lat)
        want = hecke_literal_reference(r, alpha, lat.gram, order, euler)
        assert dict(lit.items()) == want
        assert all(c._mpc_ == want[e]._mpc_ for e, c in lit.items())


@pytest.fixture(scope="module")
def euler_to_360():
    # top = ceil(1 + (d/a) order) - 1 <= 1 + 6 * 60 - 1 over _rank_alpha_order()
    return colored_partition_counts(361)


@settings(max_examples=150, deadline=None)
@given(case=_rank_alpha_order())
def test_literal_bit_identical_property(euler_to_360, case):
    lat, r, alpha, order = case
    lit = z_psu_hecke_literal(r, alpha, order, lat)
    want = hecke_literal_reference(r, alpha, lat.gram, order, euler_to_360)
    assert dict(lit.items()) == want
    assert all(c._mpc_ == want[e]._mpc_ for e, c in lit.items())
    # and within 1e-9 of the exact path, at the literal path's working precision
    exact = z_psu_hecke(r, alpha, order, lat)
    assert {e for e, _ in exact.items()} <= want.keys()
    top = math.ceil(1 + r * order) - 1      # a = 1 reads the largest Euler number
    with mpmath.workdps(40 + len(str(euler_to_360[max(top, 0)]))):
        for e, c in lit.items():
            x = exact.coeff(e)
            assert abs(c.real - mpmath.mpf(x.numerator) / x.denominator) < 1e-9
            assert abs(c.imag) < 1e-9


_HIGH_RANK_CASES = [
    (r, alpha, gram, order)
    for r in range(7, 13)
    for alpha, gram, order in (((0,), ((2,),), 5), ((0,), ((4,),), Fraction(7, 2)),
                               ((r // 2,), ((-2,),), Fraction(9, 4)), ((3,), ((6,),), 4),
                               ((0, r), ((2, 1), (1, -4)), Fraction(5, 3)),
                               ((r, -2 * r), ((2, 1), (1, -4)), Fraction(8, 3)))]


def test_literal_bit_identical_to_reference_at_high_rank(euler_to_360):
    # the property stops at r <= 6; here every d | r of r = 7..12, with their roots
    from mpmath.libmp import fzero
    reached, shared, pm, general = set(), 0, 0, 0
    for r, alpha, gram, order in _HIGH_RANK_CASES:
        lat = EvenLattice(gram)
        lit = z_psu_hecke_literal(r, alpha, order, lat)
        want = hecke_literal_reference(r, alpha, gram, order, euler_to_360)
        assert dict(lit.items()) == want
        assert all(c._mpc_ == want[e]._mpc_ for e, c in lit.items())
        facts = partitions._hecke_factorizations(r, alpha, Fraction(order))
        # every residue class m mod d is read, so an even d reads its half-turn root -1
        reached |= {(r, d) for _, d, _, top in facts if top + 1 >= d}
        keys = [a * a * (n - 1) for a, _, _, top in facts for n in range(top + 1)]
        shared += len(keys) - len(set(keys))        # keys hit by more than one factorization
        for re, im in (c._mpc_ for _, c in lit.coeffs):
            if im != fzero:     # a residue: |Im| = |Re| is rounded once, else each part
                pm += re[1:] == im[1:]
                general += re[1:] != im[1:]
    assert reached == {(r, d) for r in range(7, 13) for d in range(1, r + 1) if r % d == 0}
    assert shared and pm and general


@settings(max_examples=300, deadline=None)
@given(r=st.integers(1, 12), alpha=st.lists(st.integers(-30, 30), min_size=1, max_size=2),
       order=st.one_of(st.fractions(), st.builds(Fraction, st.integers(-10 ** 300, 10 ** 300),
                                                 st.integers(1, 10 ** 6))))
def test_hecke_top_is_the_rational_ceiling(r, alpha, order):
    # the largest n with a (n - 1) / d < order, found on integers
    got = partitions._hecke_factorizations(r, alpha, order)
    want = [(a, r // a, tuple(x // a for x in alpha),
             math.ceil(1 + Fraction(r // a, a) * order) - 1)
            for a in range(1, r + 1) if r % a == 0 and all(x % a == 0 for x in alpha)]
    assert got == want


def test_series_work_cap(gram2):
    for path in (z_psu_direct, z_psu_hecke, z_psu_hecke_literal):
        with pytest.raises(InputError, match=f"{path.__name__} would visit"):
            path(2, (0,), Fraction(10) ** 300, gram2)
    # the triple sum visits about ten times the Hecke path's terms at r = 12
    with pytest.raises(InputError, match="z_psu_hecke_literal would visit"):
        z_psu_hecke_literal(12, (0,), 10 ** 5, gram2)
    # chi_virtual and the Hecke factorizations scan every a <= content(v) or r
    with pytest.raises(InputError, match="z_psu_hecke would visit"):
        z_psu_hecke(10 ** 30, (0,), 2, gram2)
    with pytest.raises(InputError, match="chi_virtual would visit"):
        chi_virtual(MukaiVector(10 ** 30, (0,), 0), gram2)
