import cmath
from fractions import Fraction

import pytest

from k3tk import (InputError, QSeries, gottsche_series, hilb_euler, qs_add,
                  qs_evaluate, qs_mul, qs_scale, qs_substitute_power, qseries,
                  z1_zero)

from .oracles import colored_partition_counts


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


def test_coeff_beyond_trunc_is_error():
    s = series({0: 1}, 2)
    assert s.coeff(1) == 0                 # inside the certified window
    with pytest.raises(InputError):
        s.coeff(2)
    with pytest.raises(InputError):
        s.coeff(100)


def test_denominator_reduction():
    s = series({Fraction(1, 2): 1, Fraction(3, 2): 5}, 4)
    assert s.denom == 2
    t = series({Fraction(2, 2): 1}, 4)
    assert t.denom == 1


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
    monkeypatch.setattr(qseries, "_hilb_euler", [1])
    monkeypatch.setattr(qseries, "_divisor_sums", [0])
    for top in (10, 11, 700):
        assert hilb_euler(top) == oracle[top]
        assert qseries._hilb_euler == oracle[:top + 1]


@pytest.mark.parametrize("bad", [1.5, True, "3"])
def test_integer_arguments_are_strict(bad):
    for fn in (hilb_euler, gottsche_series, z1_zero):
        with pytest.raises(InputError):
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


def test_all_coefficients_exact():
    g = gottsche_series(10)
    assert all(isinstance(c, Fraction) for _, c in g.items())
    prod = qs_mul(g, qs_scale(g, Fraction(1, 3)))
    assert all(isinstance(c, Fraction) for _, c in prod.items())


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
    short = z1_zero(20)
    long = z1_zero(60)
    for tau in (1j, 0.5j, 0.2 + 0.8j):
        approx = qs_evaluate(short, tau)
        better = qs_evaluate(long, tau).value
        assert abs(approx.value - better) <= approx.tail
