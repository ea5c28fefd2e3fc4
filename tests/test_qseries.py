import cmath
import copy
import math
import pickle
from fractions import Fraction
from functools import partial

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3tk import (EvenLattice, InputError, QSeries, chi_virtual, MukaiVector, errors,
                  gottsche_series, hilb_euler, moduli, qs_add, qs_evaluate, qs_mul,
                  qs_scale, qs_substitute_power, theta, z1_zero, z_psu_direct,
                  z_psu_hecke, z_psu_hecke_literal)

from . import oracles
from .oracles import colored_partition_counts, sigma_recurrence_counts


def series(terms, trunc):
    return QSeries.from_terms(terms, trunc)


def test_mul_example():
    a = series({0: 1, 1: 1}, 10)          # 1 + q
    b = series({0: 1, 1: -1}, 10)         # 1 - q
    prod = qs_mul(a, b)
    assert prod.coeff(0) == 1 and prod.coeff(1) == 0 and prod.coeff(2) == -1


def test_scale_by_zero():
    s = series({-1: 3, 2: Fraction(1, 2)}, 5)
    z = qs_scale(s, 0)
    assert z.is_zero and z.trunc == 5


def test_mul_with_negative_exponents():
    a = series({-1: 1, 0: 24}, 6)         # q^-1 + 24
    b = series({1: 1}, 10)                # q
    prod = qs_mul(a, b)
    assert prod.coeff(0) == 1 and prod.coeff(1) == 24


def test_add_and_lcm_of_denominators():
    a = series({Fraction(1, 2): 1}, 4)
    b = series({Fraction(1, 3): 2}, 4)
    c = qs_add(a, b)
    assert c.denom == 6
    assert c.coeff(Fraction(1, 2)) == 1 and c.coeff(Fraction(1, 3)) == 2
    assert c.coeff(Fraction(1, 6)) == 0


def test_trunc_propagation_rules():
    a = series({0: 1}, 3)
    b = series({-1: 1}, 5)
    assert qs_add(a, b).trunc == 3
    prod = qs_mul(a, b)
    assert prod.trunc == min(3 + (-1), 5 + 0) == 2
    with pytest.raises(InputError):
        prod.coeff(2)


def test_a_foreign_operand_is_a_type_error_and_terms_a_mapping():
    a = series({0: 1}, 3)
    for call in (lambda: a + 1, lambda: 1 + a, lambda: a + Fraction(1, 2)):
        with pytest.raises(TypeError, match="unsupported operand"):
            call()
    for terms in ([(1, 2)], ((0, 1),), 5, None):
        with pytest.raises(InputError, match="expected a mapping"):
            QSeries.from_terms(terms, 3)


_S = QSeries.from_terms({0: 1}, 3)


@pytest.mark.parametrize("call", [lambda: qs_add(_S, 1), lambda: qs_add(1, _S),
                                  lambda: qs_mul(_S, 1), lambda: qs_mul(1, _S),
                                  lambda: qs_scale(1, 2), lambda: qs_substitute_power(1, 2),
                                  lambda: qs_evaluate(1, 1j)],
                         ids=["add-right", "add-left", "mul-right", "mul-left", "scale", "substitute",
                              "evaluate"])
def test_a_foreign_series_is_a_type_error_naming_qseries(call):
    with pytest.raises(TypeError, match="^expected QSeries, got int$"):
        call()


def test_coeff_beyond_trunc_is_error():
    s = series({0: 1}, 2)
    assert s.coeff(1) == 0                 # inside the certified window
    with pytest.raises(InputError):
        s.coeff(2)
    with pytest.raises(InputError):
        s.coeff(100)
    with pytest.raises(InputError, match="at or beyond the truncation bound"):
        series({2: 1}, 2)


def test_denominator_reduction():
    s = series({Fraction(1, 2): 1, Fraction(3, 2): 5}, 4)
    assert s.denom == 2
    t = series({Fraction(2, 2): 1}, 4)
    assert t.denom == 1


@pytest.mark.parametrize("args", [
    (2, ((2, 1),), 5),              # q^1 over a reducible denominator
    (2, (), 5),                     # the zero series has denominator 1
    (1, ((3, 1), (1, 2)), 5),       # unsorted
    (1, ((1, 1), (1, 2)), 5),       # duplicate index
    (1, ((5, 1),), 5),              # at the truncation
    (1, ((1.5, 1),), 5),
    (0, (), 1),
    (1, ((1, 1),), "x"),
], ids=["reducible", "reducible-empty", "unsorted", "duplicate", "at-trunc",
        "float-index", "denom-0", "bad-trunc"])
def test_constructor_accepts_only_canonical_form(args):
    with pytest.raises(InputError):
        QSeries(*args)


@pytest.mark.parametrize("coeff", [None, math.nan, math.inf, "abc", 1j,
                                   mpmath.mpc(math.nan, 0), mpmath.mpc(0, math.inf)],
                         ids=["none", "nan", "inf", "text", "complex", "mpc-nan", "mpc-inf"])
def test_constructor_refuses_what_is_not_a_coefficient(coeff):
    # before, these constructed: None then failed in qs_evaluate with a raw TypeError, nan
    # evaluated to nan+nanj and "abc" was "not representable at this tau"
    with pytest.raises(InputError):
        QSeries(1, [(0, coeff)], 5)


def test_constructor_reads_coefficients_as_from_terms_does(gram2):
    s = QSeries(2, ((1, 1.5), (3, Fraction(1, 3)), (5, 4)), 3)
    assert [type(c) for _, c in s.coeffs] == [Fraction, Fraction, int]
    assert s == series({Fraction(1, 2): Fraction(3, 2), Fraction(3, 2): Fraction(1, 3),
                        Fraction(5, 2): 4}, 3)
    # the literal path's mpc series is built trusted, and rebuilt through the constructor
    lit = z_psu_hecke_literal(2, (0,), 12, gram2)
    for twin in (QSeries(lit.denom, lit.coeffs, lit.trunc), pickle.loads(pickle.dumps(lit)),
                 copy.deepcopy(lit)):
        assert twin == lit
        assert repr(qs_evaluate(twin, 1j).value) == repr(qs_evaluate(lit, 1j).value)


def test_operators_are_qs_add_and_qs_mul():
    s = series({Fraction(-1, 2): 3, 0: 1, Fraction(3, 2): -2}, 4)
    t = series({Fraction(1, 3): Fraction(1, 5), 2: 7}, Fraction(7, 3))
    assert s + t == qs_add(s, t) and t + s == qs_add(t, s)
    assert s * t == qs_mul(s, t) and t * s == qs_mul(t, s)


def test_constructor_equals_from_terms():
    s = QSeries(2, ((1, Fraction(1, 3)), (2, 0), (5, 4)), 3)
    assert type(s.trunc) is Fraction and s.trunc == 3
    assert s.coeff(1) == 0          # a kept zero answers like an absent index
    canonical = QSeries.from_terms({Fraction(1, 2): Fraction(1, 3), Fraction(5, 2): 4}, 3)
    assert qs_add(s, series({}, 3)) == canonical
    q1 = QSeries(1, ((1, 1),), 5)
    assert q1 == series({1: 1}, 5) and hash(q1) == hash(series({1: 1}, 5))


def test_gottsche_first_coefficients():
    g = gottsche_series(4)
    assert [g.coeff(n) for n in range(4)] == [1, 24, 324, 3200]
    assert g == gottsche_series(4) and hash(g) == hash(gottsche_series(4))
    with pytest.raises(InputError):
        gottsche_series(0)


def test_gottsche_matches_partition_dp_oracle():
    oracle = colored_partition_counts(25)
    g = gottsche_series(25)
    assert [int(g.coeff(n)) for n in range(25)] == oracle


def test_hilb_euler_grows_in_uneven_steps(monkeypatch):
    oracle = colored_partition_counts(701)
    monkeypatch.setattr(moduli, "_hilb_euler", [1])
    for top in (10, 11, 700):
        assert hilb_euler(top) == oracle[top]
        assert moduli._hilb_euler == oracle[:top + 1]


def test_hilb_euler_matches_the_divisor_sum_recurrence(monkeypatch):
    oracle = sigma_recurrence_counts(2001)
    monkeypatch.setattr(moduli, "_hilb_euler", [1])
    assert hilb_euler(2000) == oracle[2000]
    assert moduli._hilb_euler == oracle


def test_hilb_euler_work_cap_admits_its_boundary_index(monkeypatch):
    # a table through index n costs (n + 1) T(n) products, T(n) = (isqrt(8n + 1) - 1) // 2:
    # 21 * 5 = 105 is admitted under a cap of 105, 22 * 6 = 132 is not, cold or warm
    oracle = colored_partition_counts(22)
    monkeypatch.setattr(errors, "MAX_WORK", 105)
    monkeypatch.setattr(moduli, "_hilb_euler", [1])
    with pytest.raises(InputError, match="hilb_euler would visit"):
        hilb_euler(21)
    assert moduli._hilb_euler == [1]
    assert hilb_euler(20) == oracle[20]
    with pytest.raises(InputError, match="hilb_euler would visit"):
        hilb_euler(21)          # one new entry on a warm table is not cheaper
    assert moduli._hilb_euler == oracle[:21]


@pytest.mark.parametrize("bad", [1.5, True, "3", 12.5])
def test_integer_arguments_are_strict(bad):
    literal = partial(z_psu_hecke_literal, alpha=(0,), order=3, lat=EvenLattice(((2,),)))
    power = partial(qs_substitute_power, series({0: 1}, 4))
    for fn in (hilb_euler, gottsche_series, z1_zero, literal, power):
        with pytest.raises(InputError, match="expected an integer"):
            fn(bad)


def test_hilb_euler_conventions():
    assert hilb_euler(-1) == 0 and hilb_euler(-10) == 0
    assert hilb_euler(0) == 1 and hilb_euler(1) == 24


def test_z1_zero():
    s = z1_zero(10)
    assert s.min_exponent == -1
    assert s.coeff(-1) == 1 and s.coeff(0) == 24 and s.coeff(3) == 25650
    assert s.coeff(Fraction(1, 2)) == 0


def test_substitute_power():
    s = series({-1: 1, 0: 24}, 6)
    t = qs_substitute_power(s, 2)
    assert t.coeff(-2) == 1 and t.coeff(0) == 24 and t.trunc == 12
    assert qs_substitute_power(s, 1) == s
    assert qs_substitute_power(qs_substitute_power(s, 2), 3) == \
        qs_substitute_power(s, 6)
    with pytest.raises(InputError):
        qs_substitute_power(s, 0)


def _canonical(c) -> bool:
    """c is an exact coefficient of the canonical type: an int when integral, else a Fraction
    (a float or an mpc is neither)."""
    return type(c) is int or type(c) is Fraction and c.denominator != 1


def test_all_coefficients_exact(gram2):
    produced = [gottsche_series(10), z1_zero(10), z_psu_direct(2, (1,), 6, gram2),
                z_psu_hecke(2, (0,), Fraction(17, 3), gram2)]
    for s in produced:
        assert s.coeffs and all(_canonical(c) for _, c in s.coeffs)
    assert {type(c) for _, c in produced[3].coeffs} == {int, Fraction}
    g = produced[0]
    # arithmetic stays exact and canonical: ints multiply to ints, and a Fraction operand
    # gives a Fraction unless the value is integral (1 * 24/3 + 24 * 1/3 = 16)
    assert {type(c) for _, c in qs_mul(g, g).coeffs} == {int}
    prod = qs_mul(g, qs_scale(g, Fraction(1, 3)))
    assert all(_canonical(c) for _, c in prod.coeffs) and prod.coeff(1) == 16
    assert {type(c) for _, c in prod.coeffs} == {int, Fraction}


def test_every_constructor_stores_an_integral_value_as_an_int():
    made = [QSeries(1, [(0, Fraction(4, 2)), (1, Fraction(1, 2)), (2, 3)], 3),
            QSeries.from_terms({0: 1, Fraction(1, 2): Fraction(6, 3), 1: Fraction(1, 3)}, 3),
            qs_scale(gottsche_series(3), 2), qs_scale(gottsche_series(3), Fraction(1, 2))]
    for s in made:
        assert all(_canonical(c) for _, c in s.coeffs)
    assert [type(c) for _, c in made[0].coeffs] == [int, Fraction, int]
    assert [c for _, c in made[2].coeffs] == [2, 48, 648]
    assert [type(c) for _, c in made[3].coeffs] == [Fraction, int, int]


def test_an_absent_exponent_is_an_int_zero_unless_the_series_is_literal(gram2):
    hecke = z_psu_hecke(2, (0,), 3, gram2)      # its first coefficient is 1/4
    for s in (hecke, z1_zero(3), QSeries(1, [], 3), QSeries.from_terms({0: Fraction(1, 3)}, 3)):
        assert type(s.coeff(Fraction(1, 7))) is int and s.coeff(Fraction(1, 7)) == 0
    assert type(hecke.coeffs[0][1]) is Fraction
    literal = z_psu_hecke_literal(2, (1,), 3, gram2)
    assert literal.coeff(Fraction(1, 7))._mpc_ == mpmath.mpc(0)._mpc_


_TAUS = [0.3 + 0.9j, -0.2 + 0.6j, 1j, 0.45 + 1.3j, 0.1 + 0.9j]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(-3, 3), st.sampled_from([2, 4, -2]),
       st.builds(Fraction, st.integers(1, 40), st.sampled_from([1, 2, 3])),
       st.integers(1, 4), st.integers(-6, 6), st.sampled_from(_TAUS))
def test_exact_producers_store_canonical_coefficients_property(r, alpha, g, order, scale, a,
                                                               tau):
    # an int where a coefficient is integral, a Fraction otherwise, with the Fraction's bits
    lat = EvenLattice(((g,),))
    direct, hecke = z_psu_direct(r, (alpha,), order, lat), z_psu_hecke(r, (alpha,), order, lat)
    assert repr(direct) == repr(hecke)
    n = math.ceil(order)
    for s in (gottsche_series(n), z1_zero(n), direct):
        assert all(_canonical(c) for _, c in s.coeffs)
        as_fractions = QSeries(s.denom, [(k, Fraction(c)) for k, c in s.coeffs], s.trunc)
        for t in (tau, -1 / tau):
            assert repr(qs_evaluate(s, t)) == repr(qs_evaluate(as_fractions, t))
    v = scale * MukaiVector(r, (alpha,), a)
    chi = chi_virtual(v, lat)
    assert _canonical(chi) and chi == oracles.chi_virtual_brute((v.r, v.c1, v.a), lat.gram,
                                                                 hilb_euler)


def test_evaluate_constants_and_q():
    one = series({0: 1}, 50)
    assert qs_evaluate(one, 0.3 + 1.7j).value == pytest.approx(1.0)
    q = series({1: 1}, 50)
    assert qs_evaluate(q, 1j).value == pytest.approx(cmath.exp(-2 * cmath.pi))
    with pytest.raises(InputError):
        qs_evaluate(one, 1.0 + 0j)


def test_r1_modular_transformation():
    s = z1_zero(42)
    tau = 0.5j
    lhs = qs_evaluate(s, -1 / tau).value
    factor = (-1j * tau) ** (-12)
    rhs = factor * qs_evaluate(s, tau).value
    assert abs(lhs - rhs) / abs(lhs) < 1e-6


def test_evaluate_tail_is_honest():
    # what z1_zero(20) omits, the exponents 20 on, is chi(Hilb^m) q^(m - 1) for m >= 21,
    # which the one Goettsche tail kernel bounds
    for tau in (1j, 0.5j, 0.2 + 0.8j):
        omitted = qs_evaluate(z1_zero(60), tau).value - qs_evaluate(z1_zero(20), tau).value
        assert abs(omitted) <= theta._a_sums(1, abs(cmath.exp(2j * cmath.pi * tau)), 21)


def test_hilb_euler_work_cap_covers_every_entry_point():
    # a table through n costs at most (n + 1) T(n) big-integer products, T(n) ~ sqrt(2n)
    huge = MukaiVector(1, (0,), -10 ** 5)         # <v^2> / 2 + 1 = 10^5 + 1
    for call in (lambda: hilb_euler(10 ** 5), lambda: gottsche_series(10 ** 5),
                 lambda: z1_zero(10 ** 5),
                 lambda: chi_virtual(huge, EvenLattice(((2,),)))):
        with pytest.raises(InputError, match="hilb_euler would visit"):
            call()


_exponent = st.builds(Fraction, st.integers(-24, 24), st.sampled_from([1, 2, 3, 4, 5, 6]))
_coefficient = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


@st.composite
def _terms(draw):
    """({exponent: coefficient}, trunc) with mixed denominators and negative exponents."""
    trunc = draw(st.builds(Fraction, st.integers(-6, 30), st.sampled_from([1, 2, 3, 4])))
    terms = draw(st.dictionaries(_exponent, _coefficient, max_size=12))
    return {e: c for e, c in terms.items() if e < trunc}, trunc


def _matches(s, ref):
    """s is the reference field for field, canonical, and stores only exponents below trunc."""
    assert (s.denom, s.coeffs, s.trunc) == tuple(ref)
    assert type(s.trunc) is Fraction and all(_canonical(c) for _, c in s.coeffs)
    canonical = QSeries.from_terms(dict(s.items()), s.trunc)
    assert s == canonical and hash(s) == hash(canonical)
    assert all(Fraction(k, s.denom) < s.trunc for k, _ in s.coeffs)


@settings(max_examples=200, deadline=None)
@given(_terms(), _terms(), _coefficient, st.integers(1, 5),
       st.sampled_from([0.3 + 0.9j, -0.2 + 0.6j, 1j, 0.45 + 1.3j]))
def test_index_arithmetic_matches_fraction_reference(x, y, scalar, m, tau):
    a, b = QSeries.from_terms(*x), QSeries.from_terms(*y)
    ra, rb = oracles.ref_from_terms(*x), oracles.ref_from_terms(*y)
    _matches(a, ra)
    _matches(qs_add(a, b), oracles.ref_add(ra, rb))
    _matches(qs_mul(a, b), oracles.ref_mul(ra, rb))
    _matches(qs_scale(a, scalar), oracles.ref_scale(ra, scalar))
    _matches(qs_substitute_power(b, m), oracles.ref_substitute_power(rb, m))
    for s, ref in ((qs_add(a, b), oracles.ref_add(ra, rb)),
                   (qs_mul(a, b), oracles.ref_mul(ra, rb))):
        assert repr(qs_evaluate(s, tau).value) == repr(oracles.ref_evaluate(ref, tau))


@settings(max_examples=150, deadline=None)
@given(_terms(), st.sampled_from([0.3 + 0.9j, -0.2 + 0.6j, 1j, 0.45 + 1.3j]))
def test_evaluate_bit_identical_to_reference_property(x, tau):
    s, ref = QSeries.from_terms(*x), oracles.ref_from_terms(*x)
    for t in (tau, -1 / tau):
        assert repr(qs_evaluate(s, t).value) == repr(oracles.ref_evaluate(ref, t))


def test_one_series_evaluates_bit_identically_at_a_sequence_of_tau(gram2):
    # the float view is built on the first evaluation and read by every later one
    taus = (0.5j, 0.2 + 0.8j, -1 / (0.2 + 0.8j), 1j, 0.1 + 0.9j, -1 / (0.1 + 0.9j), 0.5j)
    # the last: numerator and denominator past 2^53, where only the integer quotient rounds once
    generated = [z1_zero(42), z_psu_direct(3, (1,), Fraction(17, 3), gram2),
                 qs_add(z_psu_direct(2, (1,), 9, gram2), z_psu_direct(3, (0,), 9, gram2)),
                 series({0: Fraction(10 ** 30 + 1, 3 ** 41), Fraction(1, 2): Fraction(-7, 3)}, 2)]
    for s in generated:
        ref = oracles.ref_from_terms(dict(s.items()), s.trunc)
        for t in taus:
            assert repr(qs_evaluate(s, t).value) == repr(oracles.ref_evaluate(ref, t))
    for r, alpha in ((2, (0,)), (3, (1,))):
        lit = z_psu_hecke_literal(r, alpha, 12, gram2)
        ref = oracles.RefSeries(lit.denom, tuple((k, complex(c)) for k, c in lit.coeffs),
                                lit.trunc)
        for t in taus:
            assert repr(qs_evaluate(lit, t).value) == repr(oracles.ref_evaluate(ref, t))


@pytest.mark.parametrize("terms, trunc", [({0: 10 ** 400}, 1), ({0: Fraction(10 ** 400, 3)}, 1),
                                          ({10 ** 400: 1}, 10 ** 401)],
                         ids=["int-coefficient", "fraction-coefficient", "exponent"])
def test_an_overflowing_series_is_refused_on_every_evaluation(terms, trunc):
    # a view that fails to convert is not kept, so the second call converts and fails again
    s = series(terms, trunc)
    for _ in range(2):
        with pytest.raises(InputError, match="not representable at this tau"):
            qs_evaluate(s, 1j)


def test_evaluate_literal_series(gram2):
    # mpc coefficients evaluate through complex(c), as Fraction ones do
    lit = qs_evaluate(z_psu_hecke_literal(2, (0,), 12, gram2), 1j)
    exact = qs_evaluate(z_psu_hecke(2, (0,), 12, gram2), 1j)
    assert abs(lit.value - exact.value) <= 1e-9 * abs(exact.value)


def test_evaluate_and_literal_bit_identical_to_reference(gram2):
    # Z_3^1 has denominator 6: each exponent k/6 is one correctly rounded quotient, as
    # float(Fraction(k, 6)) is
    series = [z1_zero(42), z_psu_direct(3, (1,), Fraction(17, 3), gram2),
              qs_add(z_psu_direct(2, (1,), 9, gram2), z_psu_direct(3, (0,), 9, gram2))]
    for s in series:
        ref = oracles.ref_from_terms(dict(s.items()), s.trunc)
        for tau in (0.5j, 0.2 + 0.8j, 1j, 0.1 + 0.9j):
            for t in (tau, -1 / tau):
                assert repr(qs_evaluate(s, t).value) == repr(oracles.ref_evaluate(ref, t))
    euler = colored_partition_counts(40)
    for r, alpha in ((2, (0,)), (3, (1,))):      # exact zeros at r = 2, residues at r = 3
        lit = z_psu_hecke_literal(r, alpha, 12, gram2)
        want = oracles.hecke_literal_reference(r, alpha, gram2.gram, 12, euler)
        with mpmath.workdps(120):
            assert [(e, repr(c)) for e, c in lit.items()] == \
                [(e, repr(want[e])) for e in sorted(want)]
