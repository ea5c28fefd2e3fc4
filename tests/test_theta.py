import cmath

import numpy as np
import pytest

from k3tk import (EvenLattice, InputError, Splitting, qs_evaluate,
                  theta_siegel_narain, z1_zero, z_full_direct,
                  z_full_factorized)


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
