import cmath
import math

import numpy as np
import pytest

from k3tk import (EvenLattice, InputError, Splitting, hilb_euler, qs_evaluate, theta,
                  theta_siegel_narain, z1_zero, z_full_direct,
                  z_full_factorized)

from .oracles import colored_partition_counts, skew_theta_brute, z_full_brute


@pytest.fixture
def neg2():
    """Rank-1 lattice with Gram [-2]: Q = [2] is positive definite."""
    return EvenLattice(((-2,),))


@pytest.fixture
def split1(neg2):
    return Splitting.identity_positive(neg2)


def test_splitting_invariants(neg2, split1):
    split1.validate(neg2)
    assert np.allclose(split1.pl + split1.pr, np.eye(1))


def test_splitting_rejects_bad_projectors(neg2):
    bad = Splitting(np.eye(1) * 0.5, np.eye(1) * 0.5)
    with pytest.raises(InputError):
        bad.validate(neg2)
    with pytest.raises(InputError):
        Splitting.identity_positive(EvenLattice(((2,),)))   # Q negative definite


def test_spectral_splitting_indefinite():
    lat = EvenLattice(((-2, 0), (0, 2)))     # Q = diag(2, -2), signature (1, 1)
    split = Splitting.spectral(lat)
    split.validate(lat)
    th = theta_siegel_narain(lat, (0, 0), 1, 1j, split, None, 3.0)
    # independent double sum: majorant 2a^2 + 2b^2 <= 9
    q = cmath.exp(2j * cmath.pi * 1j)
    expect = 0j
    for a in range(-3, 4):
        for b in range(-3, 4):
            if 2 * a * a + 2 * b * b <= 9:
                expect += q ** (a * a) * q.conjugate() ** (b * b)
    assert th.value == pytest.approx(expect, abs=1e-12)


def test_spectral_rejects_degenerate():
    with pytest.raises(InputError):
        Splitting.spectral(EvenLattice(((0,),)))


def test_theta_single_point(neg2, split1):
    th = theta_siegel_narain(neg2, (0,), 1, 1j, split1, None, 0.5)
    assert th.points == 1 and th.value == pytest.approx(1.0)


def test_theta_classical_jacobi(neg2, split1):
    for tau in (1j, 0.3 + 0.7j):
        th = theta_siegel_narain(neg2, (0,), 1, tau, split1, None, 6.0)
        q = cmath.exp(2j * cmath.pi * tau)
        brute = sum(q ** (c * c) for c in range(-80, 81))
        # double-precision rounding dominates the certified truncation tail
        assert abs(th.value - brute) <= th.tail + 1e-12


def test_theta_coset_symmetry(neg2, split1):
    for alpha in ((1,), (2,), (3,)):
        plus = theta_siegel_narain(neg2, alpha, 3, 1j, split1, None, 5.0)
        minus = theta_siegel_narain(neg2, tuple(-a for a in alpha), 3, 1j,
                                    split1, None, 5.0)
        assert plus.value == pytest.approx(minus.value, abs=1e-14)


def test_theta_doubling_within_tail(neg2, split1):
    for radius in (2.0, 3.0):
        small = theta_siegel_narain(neg2, (0,), 1, 1j, split1, None, radius)
        big = theta_siegel_narain(neg2, (0,), 1, 1j, split1, None, 2 * radius)
        assert abs(big.value - small.value) <= small.tail


def test_theta_integral_phase_shift_invariance(neg2, split1):
    # shifting x by a lattice vector multiplies terms by e(Q(c, lambda)),
    # integral here, so the sum is unchanged
    x = [0.25 + 0j]
    shifted = [0.25 + 1.0 + 0j]
    a = theta_siegel_narain(neg2, (0,), 1, 1j, split1, x, 5.0)
    b = theta_siegel_narain(neg2, (0,), 1, 1j, split1, shifted, 5.0)
    assert a.value == pytest.approx(b.value, abs=1e-12)


def test_theta_complex_x_doubling_within_tail(neg2, split1):
    # Im x != 0 turns on the phase-growth factor in the analytic tail bound
    x = [0.1 + 0.05j]
    small = theta_siegel_narain(neg2, (0,), 1, 1j, split1, x, 3.0)
    big = theta_siegel_narain(neg2, (0,), 1, 1j, split1, x, 6.0)
    assert abs(big.value - small.value) <= small.tail


def test_theta_input_errors(neg2, split1):
    with pytest.raises(InputError):
        theta_siegel_narain(neg2, (0,), 1, 1.0 + 0j, split1)
    with pytest.raises(InputError):
        theta_siegel_narain(neg2, (0,), 1, 1j, split1, None, -1.0)
    with pytest.raises(InputError):
        theta_siegel_narain(neg2, (0, 0), 1, 1j, split1)
    with pytest.raises(InputError):
        theta_siegel_narain(neg2, (0.5,), 1, 1j, split1)     # alpha is not truncated
    with pytest.raises(InputError):
        theta_siegel_narain(neg2, (0,), 1.5, 1j, split1)      # nor is the coset step


def test_z_full_single_term(neg2, split1):
    res = z_full_direct(neg2, 1, 1j, split1, None, -1.0, 0.5)
    q = cmath.exp(2j * cmath.pi * 1j)
    assert res.terms == 1
    assert res.value == pytest.approx(q ** (-1), rel=1e-12)


def test_z_full_rank_one_separates(neg2, split1):
    tau = 1j
    res = z_full_direct(neg2, 1, tau, split1, None, 10.0, 6.0)
    eta = qs_evaluate(z1_zero(14), tau).value
    theta = theta_siegel_narain(neg2, (0,), 1, tau, split1, None, 6.0).value
    assert abs(res.value - eta * theta) < 1e-9


def test_z_full_two_paths_agree(neg2, split1):
    for r in (1, 2):
        direct = z_full_direct(neg2, r, 1j, split1, None, 8.0, 5.0)
        fact = z_full_factorized(neg2, r, 1j, split1, None, 12, 5.0)
        assert direct.tail < 1e-8 and fact.tail < 1e-8
        assert abs(direct.value - fact.value) < 1e-6


def test_z_full_direct_within_tail_of_refinement(neg2, split1):
    rough = z_full_direct(neg2, 2, 1j, split1, None, 4.0, 3.0)
    fine = z_full_direct(neg2, 2, 1j, split1, None, 10.0, 6.0)
    assert abs(rough.value - fine.value) <= rough.tail


def test_z_full_scale_guard(split1, neg2):
    with pytest.raises(InputError):
        z_full_direct(neg2, 4, 1j, split1)
    lat3 = EvenLattice(((-2, 0, 0), (0, -2, 0), (0, 0, -2)))
    with pytest.raises(InputError):
        z_full_direct(lat3, 1, 1j, Splitting.identity_positive(lat3))


@pytest.mark.parametrize("gram", [((-2,),), ((-2, 0), (0, -2))], ids=["rank1", "rank2"])
@pytest.mark.parametrize("tau", [1j, 0.25 + 1.1j])
def test_z_full_direct_matches_brute_sum(gram, tau):
    lat = EvenLattice(gram)
    split = Splitting.identity_positive(lat)
    euler = colored_partition_counts(40)
    for r, cutoff, radius in ((1, 8.0, 5.0), (2, 6.0, 4.0), (2, 2.5, 3.0), (3, 4.0, 3.0)):
        res = z_full_direct(lat, r, tau, split, None, cutoff, radius)
        value, terms = z_full_brute(gram, r, tau, cutoff, radius, euler)
        assert res.terms == terms
        assert abs(res.value - value) <= 1e-12 * abs(value)


@pytest.mark.parametrize("skew", [4, -4])
def test_theta_skewed_basis_matches_brute_count(skew):
    # Q = diag(2, 4) written in the basis [[1, skew], [0, 1]]: a wide box, few points
    b = ((1, skew), (0, 1))
    g = ((-2, 0), (0, -4))
    gram = tuple(tuple(sum(b[x][i] * g[x][y] * b[y][j] for x in range(2) for y in range(2))
                       for j in range(2)) for i in range(2))
    lat = EvenLattice(gram)
    split = Splitting.identity_positive(lat)
    for alpha in ((0, 0), (0, 1), (1, 0), (1, 1)):
        for tau, radius in ((1j, 6.0), (0.3 + 0.8j, 3.5)):
            th = theta_siegel_narain(lat, alpha, 2, tau, split, None, radius)
            value, points = skew_theta_brute((1, 2), skew, alpha, 2, tau, radius)
            assert th.points == points
            assert abs(th.value - value) <= 1e-12 * abs(value)


def test_out_of_range_input_is_an_input_error(neg2, split1):
    lat = EvenLattice(((-2, 0), (0, -2)))
    with pytest.raises(InputError):          # the exponent tail cannot be certified
        z_full_direct(lat, 2, 0.01j, Splitting.identity_positive(lat))
    with pytest.raises(InputError):          # q^-1 overflows
        z_full_direct(neg2, 1, 1e300j, split1)
    with pytest.raises(InputError):          # q underflows to 0 under a negative power
        z_full_factorized(neg2, 1, 1e300j, split1)
    with pytest.raises(InputError):          # chi(Hilb^4009) exceeds double precision
        z_full_direct(neg2, 1, 1j, split1, None, 4000.0, 1.0)
    with pytest.raises(InputError):
        qs_evaluate(z1_zero(4), 1e300j)


def test_work_cap_refuses_before_enumerating(neg2, split1):
    with pytest.raises(InputError, match="candidates"):
        theta_siegel_narain(neg2, (0,), 1, 1j, split1, None, 1e7)
    with pytest.raises(InputError, match="candidates"):
        z_full_direct(neg2, 2, 1j, split1, None, 1e9, 5.0)
    with pytest.raises(InputError, match="candidates"):
        z_full_direct(neg2, 2, 1j, split1, None, 8.0, 1e6)


def test_chi_float_top_is_the_last_double_in_the_table():
    # z_full_direct refuses a cutoff whose weight table would pass this index
    # before it builds the table
    assert math.isfinite(float(hilb_euler(theta.CHI_FLOAT_TOP)))
    with pytest.raises(OverflowError):
        float(hilb_euler(theta.CHI_FLOAT_TOP + 1))
