import cmath
import functools
import math
import sys
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from k3tk import (EvenLattice, InputError, MukaiVector, QSeries, Splitting, chi_virtual,
                  hilb_euler, partitions, qs_evaluate, qs_mul, qseries, theta,
                  theta_siegel_narain, z1_zero, z_full_direct,
                  z_full_factorized, z_psu_direct, z_psu_hecke, z_psu_hecke_literal)
from k3tk.errors import MAX_WORK

from . import oracles
from .oracles import colored_partition_counts, skew_theta_brute, z_full_brute


@pytest.fixture
def neg2():
    """Rank-1 lattice with Gram [-2]: Q = [2] is positive definite."""
    return EvenLattice(((-2,),))


@pytest.fixture
def split1(neg2):
    return Splitting.identity_positive(neg2)


_FOREIGN = ((-2,),)


@pytest.mark.parametrize("call", [
    lambda split: Splitting(_FOREIGN, [[1]], [[0]]), lambda split: Splitting.spectral(_FOREIGN),
    lambda split: Splitting.identity_positive(_FOREIGN),
    lambda split: theta_siegel_narain(_FOREIGN, (0,), 1, 1j, split),
    lambda split: z_full_direct(_FOREIGN, 2, 1j, split),
    lambda split: z_full_factorized(_FOREIGN, 2, 1j, split)],
    ids=["splitting", "spectral", "identity_positive", "theta", "z_full_direct",
         "z_full_factorized"])
def test_a_foreign_lattice_is_a_type_error_naming_even_lattice(call, split1):
    with pytest.raises(TypeError, match="^expected EvenLattice, got tuple$"):
        call(split1)


def test_splitting_invariants(neg2, split1):
    assert split1.lattice is neg2
    n = neg2.rank
    assert all(split1.pl[i][j] + split1.pr[i][j] == (i == j) for i in range(n) for j in range(n))


def test_splitting_rejects_bad_projectors(neg2):
    with pytest.raises(InputError):
        Splitting(neg2, np.eye(1) * 0.5, np.eye(1) * 0.5)
    with pytest.raises(InputError):
        Splitting.identity_positive(EvenLattice(((2,),)))   # Q negative definite


def test_spectral_splitting_indefinite():
    lat = EvenLattice(((-2, 0), (0, 2)))     # Q = diag(2, -2), signature (1, 1)
    split = Splitting.spectral(lat)
    th = theta_siegel_narain(lat, (0, 0), 1, 1j, split, None, 3.0)
    # independent double sum: majorant 2a^2 + 2b^2 <= 9
    q = cmath.exp(2j * cmath.pi * 1j)
    expect = 0j
    for a in range(-3, 4):
        for b in range(-3, 4):
            if 2 * a * a + 2 * b * b <= 9:
                expect += q ** (a * a) * q.conjugate() ** (b * b)
    assert th.value == pytest.approx(expect, abs=1e-12)


def test_spectral_splitting_of_a_definite_form_is_exact():
    # no rounding in the projectors, so a point on the ball's boundary is decided exactly
    lat = EvenLattice(((-4, 3, 2), (3, -6, -1), (2, -1, -6)))       # Q positive definite
    ident = Splitting.identity_positive(lat)
    assert Splitting.spectral(lat).pl == ident.pl and Splitting.spectral(lat).pr == ident.pr
    flipped = Splitting.spectral(EvenLattice(((4, -3, -2), (-3, 6, 1), (-2, 1, 6))))
    assert flipped.pl == ident.pr and flipped.pr == ident.pl


def test_spectral_rejects_degenerate():
    with pytest.raises(InputError):
        Splitting.spectral(EvenLattice(((0,),)))
    rank0 = EvenLattice(())
    with pytest.raises(InputError):
        Splitting.spectral(rank0)
    with pytest.raises(InputError):
        Splitting(rank0, np.eye(0), np.eye(0))
    for gram in (((2, 2), (2, 2)), ((-2, 1, 1), (1, -2, 1), (1, 1, -2))):   # Jacobi rotates
        with pytest.raises(InputError, match="degenerate"):
            Splitting.spectral(EvenLattice(gram))


@st.composite
def _nondegenerate_forms(draw):
    """An even symmetric integer Gram matrix of rank <= 6 with nonzero determinant."""
    n = draw(st.integers(1, 6))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = 2 * draw(st.integers(-3, 3))
        for j in range(i):
            gram[i][j] = gram[j][i] = draw(st.integers(-3, 3))
    assume(abs(np.linalg.det(np.array(gram, dtype=float))) > 0.5)
    return gram


def _assert_pivots_match(pivots, m):
    """The LDL^T pivots of a majorant against numpy on the matrix m: each at least its least
    eigenvalue, and their product its determinant to 1e-12, or to cond(m) 1e-13 on an
    ill-conditioned m, since the rounding of a float majorant grows with its condition."""
    assert min(pivots) >= np.linalg.eigvalsh(m).min() * (1 - 1e-12)
    rel = max(1e-12, 1e-13 * np.linalg.cond(m))
    assert math.prod(pivots) == pytest.approx(np.linalg.det(m), rel=rel)


@settings(max_examples=300, deadline=None)
@given(_nondegenerate_forms())
def test_jacobi_splitting_matches_numpy_eigh(gram):
    lat, q = EvenLattice(gram), -np.array(gram, dtype=float)
    vals, vecs = np.linalg.eigh(q)
    pos, neg = vecs[:, vals > 0], vecs[:, vals < 0]
    pl, pr = pos @ pos.T, neg @ neg.T
    splits = [(Splitting.spectral(lat), pl, pr)]
    if vals.min() > 0:
        splits.append((Splitting.identity_positive(lat), np.eye(len(gram)), 0 * q))
    for split, pl, pr in splits:
        assert np.max(np.abs(np.array(split.pl) - pl)) <= 1e-12
        assert np.max(np.abs(np.array(split.pr) - pr)) <= 1e-12
        _assert_pivots_match(split._pivots[0], pl.T @ q @ pl - pr.T @ q @ pr)


def test_spectral_splitting_of_the_k3_lattice():
    # U^3 + E8(-1)^2, the K3 lattice: Q = -G has signature (19, 3)
    u = ((0, 1), (1, 0))
    e8 = ROOT_LATTICES["E8"][0].gram             # -Cartan = E8(-1)
    gram, at = [[0] * 22 for _ in range(22)], 0
    for block in (u, u, u, e8, e8):
        for i, row in enumerate(block):
            gram[at + i][at:at + len(row)] = row
        at += len(block)
    lat = EvenLattice(gram)
    split = Splitting.spectral(lat)
    assert sum(split.pl[i][i] for i in range(22)) == pytest.approx(19, abs=1e-9)
    assert sum(split.pr[i][i] for i in range(22)) == pytest.approx(3, abs=1e-9)
    vals, vecs = np.linalg.eigh(-np.array(gram, dtype=float))
    _assert_pivots_match(split._pivots[0], vecs @ np.diag(np.abs(vals)) @ vecs.T)   # |Q|


def test_splitting_is_immutable_and_validated_once_per_lattice(monkeypatch, neg2, split1):
    with pytest.raises(AttributeError):
        split1.pl = np.eye(1) * 2
    with pytest.raises(TypeError):
        split1.pl[0] = (2.0,)
    with pytest.raises(TypeError):
        split1.pl[0][0] = 2.0
    calls = []
    for name in ("_q", "_pivots"):      # the form and the majorant's pivots
        monkeypatch.setattr(theta, name, functools.partial(
            lambda f, *args: calls.append(f.__name__) or f(*args), getattr(theta, name)))
    split = Splitting.identity_positive(neg2)     # validated here, not again by the sums
    first = theta_siegel_narain(neg2, (0,), 1, 1j, split, None, 3.0)
    assert theta_siegel_narain(EvenLattice(((-2,),)), (0,), 1, 1j, split, None, 3.0) == first
    z_full_direct(neg2, 1, 1j, split, None, 2.0, 2.0)
    z_full_factorized(neg2, 1, 1j, split, None, 4, 2.0)
    assert calls == ["_q", "_pivots"]
    other = EvenLattice(((-4,),))       # Q positive definite too, but another lattice
    for call in (lambda: theta_siegel_narain(other, (0,), 1, 1j, split, None, 3.0),
                 lambda: z_full_direct(other, 1, 1j, split, None, 2.0, 2.0),
                 lambda: z_full_factorized(other, 1, 1j, split, None, 4, 2.0)):
        with pytest.raises(InputError, match="the splitting was built for another lattice"):
            call()
    assert calls == ["_q", "_pivots"]
    with pytest.raises(InputError):         # these projectors do not split Q = [-2]
        Splitting(EvenLattice(((2,),)), split.pl, split.pr)


def test_identity_splitting_refuses_an_indefinite_form_at_construction():
    # Q = -G = [[2, 3], [3, 2]] is positive on each axis but indefinite
    with pytest.raises(InputError, match="majorant"):
        Splitting.identity_positive(EvenLattice(((-2, -3), (-3, -2))))


@pytest.mark.parametrize("gram, pl, pr, message", [
    (((-2, 0), (0, -2)), [[1]], [[0]], "splitting projectors do not match the lattice rank"),
    (((-2,),), [[1]], [[1]], "splitting projectors must sum to the identity"),
    (((-2, 0), (0, 2)), [[1, 1], [0, 0]], [[0, -1], [0, 1]],
     "splitting subspaces must be Q-orthogonal"),
    (((0, 1), (1, 0)), [[1, 0], [0, 1]], [[0, 0], [0, 0]],
     "Q must be positive definite on range(P_L)"),
    (((-2,),), [[0]], [[1]], "Q must be negative definite on range(P_R)"),
    (((-2, -2), (-2, -2)), [[1, 0], [0, 1]], [[0, 0], [0, 0]],      # a pivot of exactly 0
     "majorant form is not positive definite; invalid splitting"),
], ids=["rank", "sum", "orthogonal", "range-pl", "range-pr", "majorant"])
def test_each_splitting_refusal_has_its_own_message(gram, pl, pr, message):
    with pytest.raises(InputError) as err:
        Splitting(EvenLattice(gram), pl, pr)
    assert str(err.value) == message


def test_theta_single_point(neg2, split1):
    th = theta_siegel_narain(neg2, (0,), 1, 1j, split1, None, 0.5)
    assert th.points == 1 and th.value == pytest.approx(1.0)


def test_an_omitted_term_leaves_a_positive_tail(neg2, split1):
    # at tau = 100i every omitted term underflows a double, and its bound is still not 0
    sums = [theta_siegel_narain(neg2, (0,), 1, 100j, split1, None, 3.0),
            theta_siegel_narain(neg2, (1,), 2, 100j, split1, (0.5j,), 3.0),
            z_full_direct(neg2, 1, 100j, split1, None, 2.0, 2.0),
            z_full_factorized(neg2, 1, 100j, split1, None, 4, 2.0)]
    gram2 = EvenLattice(((2,),))
    spectral = Splitting.spectral(gram2)
    sums += [theta_siegel_narain(gram2, (0,), 1, 100j, spectral, None, 3.0),
             z_full_direct(gram2, 1, 100j, spectral, None, 2.0, 2.0),
             z_full_factorized(gram2, 1, 100j, spectral, None, 4, 2.0)]
    assert all(0.0 < s.tail < 1e-40 for s in sums), sums


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


@pytest.mark.parametrize("x", [[1e17], [2.0 ** 60]])
def test_theta_phase_of_a_huge_integral_x(neg2, split1, x):
    # Q(c, x) is an integer, so every phase is 1; unreduced, 2 pi Q(c, x) rounds to noise
    plain = theta_siegel_narain(neg2, (0,), 1, 1j, split1, None, 2.0)
    assert plain.value == 1.003734885463416
    assert theta_siegel_narain(neg2, (0,), 1, 1j, split1, x, 2.0) == plain


def test_theta_complex_x_doubling_within_tail(neg2, split1):
    # Im x != 0 turns on the phase-growth factor in the analytic tail bound
    x = [0.1 + 0.05j]
    small = theta_siegel_narain(neg2, (0,), 1, 1j, split1, x, 3.0)
    big = theta_siegel_narain(neg2, (0,), 1, 1j, split1, x, 6.0)
    assert abs(big.value - small.value) <= small.tail


def test_empty_guard_shells_keep_the_first_analytic_term():
    # one point within the radius and empty guard shells: the omitted c = +-2
    # terms (8.4e-10 in modulus) lie in the first analytic shell, which the
    # tail must count, not only the geometric remainder after it
    lat = EvenLattice(((-6,),))
    split = Splitting.identity_positive(lat)
    tau = complex(-0.42734250381219896, 0.5726230247763422)
    small = theta_siegel_narain(lat, (0,), 2, tau, split, None, 1.705571430277494)
    big = theta_siegel_narain(lat, (0,), 2, tau, split, None, 5.0)
    assert small.points == 1
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
    with pytest.raises(InputError, match="radius"):
        z_full_direct(neg2, 1, 1j, split1, None, 2.0, -1.0)
    with pytest.raises(InputError, match="rank"):
        z_full_direct(neg2, 0, 1j, split1)


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


def test_empty_series_has_a_finite_tail_over_the_whole_series(neg2, split1):
    # at order -5 no coefficient is stored: the tail bounds every class's whole a-sum
    empty = z_psu_direct(2, (0,), -5, neg2)
    assert not empty.coeffs
    assert qs_evaluate(empty, 1j).value == 0j
    fact = z_full_factorized(neg2, 2, 1j, split1, None, -5)
    full = z_full_direct(neg2, 2, 1j, split1).value
    assert fact.value == 0 and full != 0 and abs(full) <= fact.tail < math.inf


def test_an_empty_series_where_q_underflows_has_an_unbounded_tail(neg2, split1):
    # |q| = e^(-400 pi) is 0 as a double: the whole a-sum, from |q|^-r on, is bounded by inf,
    # not a ZeroDivisionError
    assert z_full_factorized(neg2, 2, 200j, split1, None, -5).tail == math.inf


def test_empty_series_times_an_unbounded_theta_tail_is_unbounded(neg2, split1):
    # the series value 0 times the theta tail inf must not give a nan tail
    fact = z_full_factorized(neg2, 2, 0.02j, split1, None, -5)
    assert theta_siegel_narain(neg2, (0,), 2, 0.02j, split1, None, 5.0).tail == math.inf
    assert fact.tail == math.inf and fact.tail > 1e-8


def test_z_full_direct_within_tail_of_refinement(neg2, split1):
    rough = z_full_direct(neg2, 2, 1j, split1, None, 4.0, 3.0)
    fine = z_full_direct(neg2, 2, 1j, split1, None, 10.0, 6.0)
    assert abs(rough.value - fine.value) <= rough.tail


def test_z_full_direct_at_a_large_im_tau_is_finite(neg2, split1):
    # |q|^-1 = e^(100 pi) at Im tau = 50 is still a double: a finite a-sum bound
    res = z_full_direct(neg2, 1, 50j, split1, None, 4.0, 4.0)
    assert cmath.isfinite(res.value) and math.isfinite(res.tail) and res.terms > 0
    assert res.value == pytest.approx(z_full_factorized(neg2, 1, 50j, split1, None, 12,
                                                        4.0).value, rel=1e-12)


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
        value, terms, _ = z_full_brute(gram, r, tau, cutoff, radius, euler)
        assert res.terms == terms
        assert abs(res.value - value) <= 1e-12 * abs(value)


@functools.cache
def _euler_table() -> list[int]:
    """chi(Hilb^n) for n < 400 from the divisor-sum recurrence: past every index the tail
    tests below reach, and far enough that the omitted terms are negligible."""
    return oracles.sigma_recurrence_counts(400)


@pytest.mark.parametrize("x", [math.exp(-2 * math.pi), math.exp(-math.pi),
                               math.exp(-0.6 * math.pi)])
@pytest.mark.parametrize("start", [0, 5, 12, 24])
def test_hilb_tail_bounds_every_goettsche_tail(x, start):
    exact = math.fsum(c * x ** n for n, c in enumerate(_euler_table()) if n >= start)
    assert exact <= theta._hilb_tail(x, start) < math.inf
    if not start:       # the whole sum is Goettsche's product itself
        assert theta._hilb_tail(x, start) <= exact * (1 + 1e-9)


def test_hilb_tail_is_unbounded_at_y_0_and_near_1():
    # at most 60 factors near y = 1 (tau = 1e-5 i), where the product overflows
    for y, start in ((0.0, 0), (0.0, 3), (math.exp(-2e-5 * math.pi), 0),
                     (math.exp(-2e-5 * math.pi), 7)):
        assert theta._hilb_tail(y, start) == math.inf


@pytest.mark.parametrize("tau", [1j, 0.5j, 2j])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_a_sum_bound_covers_every_class(r, tau):
    # the class of xi is g = gcd(r, xi) and (xi^2) mod 2rg, which xi = (g, gk) realises on
    # the hyperbolic plane for (xi^2) = 2g^2 k; at r = 2, tau = i the a-sum of g = 2 is 7.17e4
    # (its d = 2 term, |q|^-2 / 4), which the bound once put at 140
    gram, qabs = ((0, 1), (1, 0)), abs(cmath.exp(2j * cmath.pi * tau))
    for g in (g for g in range(1, r + 1) if r % g == 0):
        for k in range(r // g):
            for start in (0, 3, 10, 25):
                brute = oracles.a_sum_brute(gram, r, (g, g * k), tau, start, _euler_table())
                assert brute <= theta._a_sums(r, qabs, start) * (1 + 1e-12)


@pytest.mark.parametrize("r, tau", [(2, 0.5j), (2, 0.6j), (3, 0.8j)])
def test_direct_sum_is_bounded_where_the_a_series_converges(neg2, split1, r, tau):
    # the extrapolated a-sum refused these ("cannot bound the a-sum"), though |q| < 1
    res = z_full_direct(neg2, r, tau, split1)
    value, _, size = z_full_brute(((-2,),), r, tau, 8.0 + 40, 5.0 + 10, _euler_table())
    assert abs(res.value - value) <= res.tail + 1e-12 * size and res.tail < math.inf


def test_direct_tail_is_within_ten_times_its_error(neg2, split1):
    # Cauchy's estimate at rho = sqrt y alone put this tail at 1.91e9, 690 times the error
    res = z_full_direct(neg2, 3, 0.5j, split1)
    value, _, _ = z_full_brute(((-2,),), 3, 0.5j, 8.0 + 40, 5.0 + 10, _euler_table())
    assert res.tail <= 10 * abs(res.value - value)


@st.composite
def _factorized_cases(draw):
    """A nondegenerate even Gram of rank <= 2 (diagonal +-2 or +-4, off-diagonal -1 to 1), r,
    the series order as a Fraction in [-3r, 14r], tau and the radius."""
    diag = draw(st.lists(st.sampled_from([-4, -2, 2, 4]), min_size=1, max_size=2))
    off = draw(st.integers(-1, 1))
    gram = tuple(tuple(d if i == j else off for j in range(len(diag)))
                 for i, d in enumerate(diag))
    r = draw(st.integers(1, 3))
    order = draw(st.fractions(-3 * r, 14 * r, max_denominator=6))
    tau = complex(draw(st.floats(-0.5, 0.5)), draw(st.floats(0.3, 1.5)))
    return gram, r, order, tau, draw(st.floats(3.0, 5.0))


@settings(max_examples=100, deadline=None)
@given(_factorized_cases())
def test_factorized_tail_bounds_the_omitted_terms_property(case):
    # the same sum 40 further in q; the slack is the rounding of the terms, whose moduli the
    # sum at Re tau = 0 adds up: with x absent every term there is positive
    gram, r, order, tau, radius = case
    lat = EvenLattice(gram)
    split = Splitting.spectral(lat)
    res = z_full_factorized(lat, r, tau, split, None, order, radius)
    longer = z_full_factorized(lat, r, tau, split, None, order + 40, radius).value
    size = z_full_factorized(lat, r, 1j * tau.imag, split, None, order + 40, radius).value
    assert abs(res.value - longer) <= res.tail + 1e-12 * abs(size) and res.tail < math.inf


@st.composite
def _hecke_law_cases(draw):
    """A nondegenerate even Gram of rank <= 2 (diagonal -6 to 6, off-diagonal -3 to 3), its
    splitting (identity_positive only on a negative definite Gram, else spectral), r and tau
    with Im tau >= 1.2."""
    n = draw(st.integers(1, 2))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = 2 * draw(st.integers(-3, 3))
        for j in range(i):
            gram[i][j] = gram[j][i] = draw(st.integers(-3, 3))
    det = gram[0][0] if n == 1 else gram[0][0] * gram[1][1] - gram[0][1] ** 2
    assume(det != 0)
    negative_definite = gram[0][0] < 0 and (n == 1 or det > 0)
    factory = draw(st.sampled_from((Splitting.identity_positive, Splitting.spectral))
                   if negative_definite else st.just(Splitting.spectral))
    tau = complex(draw(st.floats(-0.5, 0.5)), draw(st.floats(1.2, 3.0)))
    return gram, factory, draw(st.integers(1, 3)), tau


@settings(max_examples=100, deadline=None)
@given(_hecke_law_cases())
def test_hecke_law_of_minahan_et_al_property(case):
    # acceptance c11's law, Z_r(tau) = r^-2 sum_{ad=r} sum_{0<=b<d} d Z_1((a tau + b)/d), over
    # generated lattices; the 1e-12 relative term is the rounding, which no tail counts yet
    gram, factory, r, tau = case
    lat = EvenLattice(gram)
    split = factory(lat)
    z_r = z_full_factorized(lat, r, tau, split, None, 30, 9.0)
    value, tail, tails = 0j, 0.0, [z_r.tail]
    for d in (d for d in range(1, r + 1) if r % d == 0):
        for b in range(d):
            z_1 = z_full_factorized(lat, 1, (r // d * tau + b) / d, split, None, 30, 9.0)
            value += d * z_1.value
            tail += d * z_1.tail
            tails.append(z_1.tail)
    assert all(map(math.isfinite, tails))       # no example passes on an unbounded tail
    assert abs(z_r.value - value / r ** 2) <= z_r.tail + tail / r ** 2 + 1e-12 * abs(z_r.value)


@st.composite
def _negative_definite_gram(draw):
    """A negative definite Gram of rank 1 or 2: diagonal -2 to -8, off-diagonal -3 to 3."""
    if draw(st.booleans()):
        return ((-2 * draw(st.integers(1, 4)),),)
    a, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    b = draw(st.integers(-3, 3).filter(lambda b: b * b < 4 * a * c))
    return ((-2 * a, b), (b, -2 * c))


def _factorized_exact(gram, r, m_top):
    """{m: its nonzero coefficient} below q^m_top of the coset factorization sum over alpha in
    [0, r)^n of z_psu_direct(r, alpha) Theta_alpha, Theta_alpha = sum_{c = alpha mod r}
    q^(Q(c)/2r) an integer series built here."""
    lat, trunc = EvenLattice(gram), m_top + r       # z_psu_direct starts at q^-r
    thetas = {alpha: Counter() for alpha in product(range(r), repeat=len(gram))}
    bound = oracles.definite_box(gram, 2 * r * trunc)
    for c in product(range(-bound, bound + 1), repeat=len(gram)):
        q_c = -oracles.pairing_brute((0, c, 0), (0, c, 0), gram)
        if q_c < 2 * r * trunc:
            thetas[tuple(x % r for x in c)][Fraction(q_c, 2 * r)] += 1
    total = Counter()
    for alpha, terms in thetas.items():
        for e, coeff in qs_mul(z_psu_direct(r, alpha, m_top, lat),
                               QSeries.from_terms(terms, trunc)).items():
            if e < m_top:
                total[e] += coeff
    return {e: coeff for e, coeff in total.items() if coeff}


def test_full_sum_on_gram_minus_2_at_rank_2_is_exact():
    euler = oracles.sigma_recurrence_counts(10)
    want = {-2: Fraction(1, 4), -1: 0, 0: Fraction(65, 2), 1: 3848}
    assert oracles.z_full_exact(((-2,),), 2, 2, euler) == want
    assert _factorized_exact(((-2,),), 2, 2) == {m: z for m, z in want.items() if z}


@settings(max_examples=30, deadline=None)
@given(_negative_definite_gram(), st.integers(1, 3))
def test_full_sum_factorizes_and_obeys_the_hecke_law_exactly_property(gram, r):
    # the exact series is the coset factorization, coefficient by coefficient, and obeys
    # Minahan et al.'s Hecke law exactly: z_r[m] = sum_{d | gcd(r, m)} z_1[r m / d^2] / d^2
    m_top = 5
    euler = oracles.sigma_recurrence_counts(r * m_top + 2)
    z_r = oracles.z_full_exact(gram, r, m_top, euler)
    assert _factorized_exact(gram, r, m_top) == {m: z for m, z in z_r.items() if z}
    z_1 = oracles.z_full_exact(gram, 1, r * (m_top - 1) + 1, euler)
    for m, z in z_r.items():
        assert z == sum(Fraction(z_1.get(r * m // (d * d), 0), d * d)
                        for d in range(1, r + 1) if r % d == 0 and m % d == 0), m


@st.composite
def _theta_tail_cases(draw):
    """A negative definite Gram of rank <= 2, the coset step r, alpha, tau, x (none, or
    complex in about half the cases) and the radius."""
    gram = draw(_negative_definite_gram())
    r = draw(st.integers(1, 3))
    alpha = tuple(draw(st.integers(0, r - 1)) for _ in gram)
    tau = complex(draw(st.floats(-0.5, 0.5)), draw(st.floats(0.15, 1.0)))
    part = st.floats(-0.25, 0.25)
    x = draw(st.none() | st.lists(st.builds(complex, st.floats(-1, 1), part),
                                  min_size=len(gram), max_size=len(gram)))
    return gram, alpha, r, tau, x, draw(st.floats(0.5, 3.0))


@settings(max_examples=100, deadline=None)
@given(_theta_tail_cases())
def test_theta_tail_bounds_the_omitted_terms_property(case):
    # the box enumeration out to radius + 12; the slack is the rounding of the terms
    gram, alpha, r, tau, x, radius = case
    lat = EvenLattice(gram)
    th = theta_siegel_narain(lat, alpha, r, tau, Splitting.identity_positive(lat), x, radius)
    omitted, total = oracles.theta_omitted_brute(gram, alpha, r, tau, x, radius, radius + 12)
    assert th.tail >= omitted - 1e-12 * total


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=2), st.integers(1, 3),
       st.floats(-0.5, 0.5), st.floats(0.3, 1.5), st.floats(1.0, 6.0), st.floats(1.0, 3.0))
def test_direct_tail_bounds_the_brute_difference_property(diag, r, re_tau, im_tau, cutoff,
                                                          radius):
    # a diagonal Gram; the brute sum reaches 40 past the cutoff and 10 past the radius, and
    # the slack is the rounding of the terms, which a tail does not cover
    gram = tuple(tuple(-2 * d if i == j else 0 for j in range(len(diag)))
                 for i, d in enumerate(diag))
    lat, tau = EvenLattice(gram), complex(re_tau, im_tau)
    res = z_full_direct(lat, r, tau, Splitting.identity_positive(lat), None, cutoff, radius)
    value, _, size = z_full_brute(gram, r, tau, cutoff + 40, radius + 10, _euler_table())
    assert abs(res.value - value) <= res.tail + 1e-12 * size


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
    # Goettsche's product at |q|^(1/2) overflows: an unbounded tail, which the CLI refuses
    assert z_full_direct(lat, 2, 0.01j, Splitting.identity_positive(lat)).tail == math.inf
    # an unbounded a-sum times a Gaussian past the ball that underflows to 0: inf, not nan
    assert z_full_direct(neg2, 1, 0.005j, split1, None, 8.0, 217.0).tail == math.inf
    with pytest.raises(InputError):          # q^-1 overflows
        z_full_direct(neg2, 1, 1e300j, split1)
    with pytest.raises(InputError):          # q underflows to 0 under a negative power
        z_full_factorized(neg2, 1, 1e300j, split1)
    with pytest.raises(InputError):          # chi(Hilb^4009) exceeds double precision
        z_full_direct(neg2, 1, 1j, split1, None, 4000.0, 1.0)
    with pytest.raises(InputError):
        qs_evaluate(z1_zero(4), 1e300j)


def test_a_cutoff_below_minus_r_is_refused(neg2, split1):
    # every exponent <v^2>/2r is at least -r, so below it the direct sum is empty, and its
    # empty exponent bins gave a tail near 0 (value 0 and tail 7.5e-84 against 562.2)
    lat = EvenLattice(((-2, 0), (0, -2)))
    for lattice, r, radius, cutoff in ((neg2, 1, 5.0, -9.5), (neg2, 1, 5.0, -100),
                                       (lat, 2, 4.0, -17), (lat, 2, 4.0, -2.5)):
        with pytest.raises(InputError, match="exponent cutoff below -r"):
            z_full_direct(lattice, r, 1j, Splitting.identity_positive(lattice), None, cutoff,
                          radius)
    assert z_full_direct(neg2, 1, 1j, split1, None, -1, 5.0).terms > 0
    assert z_full_direct(lat, 2, 1j, Splitting.identity_positive(lat), None, -2, 4.0).terms > 0


def test_a_factorized_sum_over_a_short_series_bounds_what_it_omits(neg2, split1):
    # Z_1 to order 0 or 1 stores one or two terms; the a-sum bound covers the rest
    long = z_full_factorized(neg2, 1, 1j, split1, None, 40, 5.0).value
    for order in (0, 1, 2):
        short = z_full_factorized(neg2, 1, 1j, split1, None, order, 5.0)
        assert abs(short.value - long) <= short.tail < math.inf


_ENTRY_POINTS = {
    "theta": lambda lat, split, tau, x: theta_siegel_narain(lat, (0,), 1, tau, split, x, 2.0),
    "direct": lambda lat, split, tau, x: z_full_direct(lat, 1, tau, split, x),
    "factorized": lambda lat, split, tau, x: z_full_factorized(lat, 1, tau, split, x),
    "qs_evaluate": lambda lat, split, tau, x: qs_evaluate(z1_zero(5), tau),
}
_NON_FINITE = [(complex(math.nan, 1), None), (complex(1, math.nan), None),
               (complex(math.inf, 1), None), (complex(0, math.inf), None),
               (1e308 + 1j, None),              # finite, but an infinite phase
               (1j, [math.nan]), (1j, [math.inf]), (1j, [1e308])]      # the last: Q x overflows


@pytest.mark.parametrize("entry, tau, x", [
    (entry, tau, x) for tau, x in _NON_FINITE for entry in _ENTRY_POINTS
    if x is None or entry != "qs_evaluate"])
def test_non_finite_tau_or_x_is_an_input_error(neg2, split1, entry, tau, x):
    # not a nan result, which a caller's tail > bound check would pass, nor a bare exception
    with pytest.raises(InputError):
        _ENTRY_POINTS[entry](neg2, split1, tau, x)


_GRAM2 = EvenLattice(((2,),))
_BAD_NUMBERS = {
    "direct-order-inf": lambda neg2, split: z_psu_direct(2, (0,), math.inf, _GRAM2),
    "direct-order-nan": lambda neg2, split: z_psu_direct(2, (0,), math.nan, _GRAM2),
    "hecke-order-inf": lambda neg2, split: z_psu_hecke(2, (0,), math.inf, _GRAM2),
    "literal-order-1/0": lambda neg2, split: z_psu_hecke_literal(2, (0,), "1/0", _GRAM2),
    "from-terms-trunc-inf": lambda neg2, split: QSeries.from_terms({0: 1}, math.inf),
    "constructor-trunc-1/0": lambda neg2, split: QSeries(1, ((0, 1),), "1/0"),
    "coeff-exponent-nan": lambda neg2, split: z1_zero(3).coeff(math.nan),
    "scale-inf": lambda neg2, split: z1_zero(3) * math.inf,
    "cutoff-nan": lambda neg2, split: z_full_direct(neg2, 2, 1j, split, None, math.nan),
    "tau-text": lambda neg2, split: qs_evaluate(z1_zero(3), "x"),
    "tau-none": lambda neg2, split: z_full_factorized(neg2, 1, None, split),
    "x-none-entry": lambda neg2, split: theta_siegel_narain(neg2, (0,), 1, 1j, split, [None]),
    "x-not-a-list": lambda neg2, split: theta_siegel_narain(neg2, (0,), 1, 1j, split, 5),
    "x-text": lambda neg2, split: theta_siegel_narain(neg2, (0,), 1, 1j, split, ["a"]),
    "splitting-text": lambda neg2, split: Splitting(neg2, [["a"]], [[0]]),
    "splitting-nan": lambda neg2, split: Splitting(neg2, [[math.nan]], [[0]]),
    # text iterates into one-character numbers, but is not a list
    "x-digit-text": lambda neg2, split: theta_siegel_narain(neg2, (0,), 1, 1j, split, "1"),
    "splitting-digit-text": lambda neg2, split: Splitting(neg2, "1", "0"),
    "splitting-digit-text-rows": lambda neg2, split: Splitting(neg2, ["1"], ["0"]),
    "splitting-bytes-rows": lambda neg2, split: Splitting(neg2, [b"\x01"], [b"\x00"]),
    "coset-step-huge": lambda neg2, split: theta_siegel_narain(neg2, (0,), 10 ** 400, 1j, split),
    "cutoff-huge": lambda neg2, split: z_full_direct(neg2, 1, 1j, split, None, 10 ** 400, 2.0),
}
_RADIUS_CALLS = {
    "theta": lambda neg2, split, rad: theta_siegel_narain(neg2, (0,), 1, 1j, split, None, rad),
    "direct": lambda neg2, split, rad: z_full_direct(neg2, 1, 1j, split, None, 2.0, rad),
    "factorized": lambda neg2, split, rad: z_full_factorized(neg2, 1, 1j, split, None, 4, rad),
}
_BAD_NUMBERS.update({f"{name}-radius-{label}": functools.partial(call, rad=rad)
                     for name, call in _RADIUS_CALLS.items()
                     for label, rad in {"text": "x", "none": None, "huge": 10 ** 400}.items()})


@pytest.mark.parametrize("call", _BAD_NUMBERS.values(), ids=_BAD_NUMBERS.keys())
def test_non_finite_or_non_numeric_rational_or_tau_is_an_input_error(neg2, split1, call):
    # not a bare OverflowError, ValueError or TypeError from Fraction() or complex()
    with pytest.raises(InputError):
        call(neg2, split1)


_NEG2 = EvenLattice(((-2,),))
_JUNK = st.sampled_from([None, "x", "", math.nan, math.inf, -math.inf, 10 ** 400, -10 ** 400,
                         [1], [[0]], [None, 1]])


def _or_junk(*good):
    return st.one_of(st.sampled_from(good), _JUNK)


@settings(max_examples=200, deadline=None)
@given(which=st.sampled_from(["theta", "direct", "factorized"]),
       pl=st.one_of(st.builds(lambda e: [[e]], _or_junk(1, 1.0)), _JUNK),
       pr=st.one_of(st.builds(lambda e: [[e]], _or_junk(0, 0.0)), _JUNK),
       x=st.one_of(st.builds(lambda e: [e], _or_junk(0.25j, 0.5)), _or_junk(None)),
       alpha=st.one_of(st.builds(lambda e: [e], _or_junk(0, 1, 3)), _JUNK),
       r=_or_junk(1, 2), radius=_or_junk(0, 1.5, 2.0), limit=_or_junk(2, 2.5))
def test_junk_numbers_give_a_result_or_an_input_error(which, pl, pr, x, alpha, r, radius, limit):
    # each draw is a usable value or junk; limit is the direct path's exponent cutoff
    # or the factorized path's series order
    try:
        split = Splitting(_NEG2, pl, pr)
        if which == "theta":
            theta_siegel_narain(_NEG2, alpha, r, 1j, split, x, radius)
        elif which == "direct":
            z_full_direct(_NEG2, r, 1j, split, x, limit, radius)
        else:
            z_full_factorized(_NEG2, r, 1j, split, x, limit, radius)
    except InputError:
        pass


def test_work_cap_refuses_before_enumerating(neg2, split1):
    with pytest.raises(InputError, match="candidates"):
        theta_siegel_narain(neg2, (0,), 1, 1j, split1, None, 1e7)
    with pytest.raises(InputError, match="candidates"):
        z_full_direct(neg2, 2, 1j, split1, None, 1e9, 5.0)
    with pytest.raises(InputError, match="candidates"):
        z_full_direct(neg2, 2, 1j, split1, None, 8.0, 1e6)


def test_work_cap_is_checked_on_kept_tables_too(monkeypatch, neg2, split1):
    sums = {"theta_siegel_narain": lambda: theta_siegel_narain(neg2, (0,), 2, 1j, split1,
                                                                None, 3.0),
            "z_full_direct": lambda: z_full_direct(neg2, 2, 1j, split1, None, 4.0, 3.0),
            "z_psu_direct": lambda: z_full_factorized(neg2, 2, 1j, split1, None, 12, 3.0)}
    for call in sums.values():
        call()
    monkeypatch.setattr("k3tk.errors.MAX_WORK", 5)
    for what, call in sums.items():
        with pytest.raises(InputError, match=f"{what} would visit more than 5 candidates"):
            call()


def test_direct_sum_is_refused_where_a_weight_passes_the_largest_double(neg2):
    # on Gram [-2] every even n <= n_top = floor(2r cutoff) + 16r has a weight: the first cutoff
    # of each pair keeps n_top // 2 + 1 at 3713, the second takes it to chi(Hilb^3714), which
    # is past a double
    for r, last, refused in ((1, 3704.5, 3705), (2, 1848.25, 1848.5), (3, 1229.5, 1229.6667)):
        split = Splitting.identity_positive(neg2)
        assert cmath.isfinite(z_full_direct(neg2, r, 1j, split, None, last, 5.0).value)
        with pytest.raises(InputError, match="^a term overflows double precision at this input$"):
            z_full_direct(neg2, r, 1j, split, None, refused, 5.0)


def _is_double(n: int) -> bool:
    try:
        return math.isfinite(float(n))
    except OverflowError:
        return False


def test_weights_up_to_the_chi_float_top_are_doubles():
    # top, the last m whose chi(Hilb^m) is a double, bounds the direct sum's weights; chi_virtual
    # grows with n, and the even n below top reach 2 top - 2 for the contents c | r <= 3, whose
    # weights keep headroom for the products that follow
    top = next(m for m in range(1, 10 ** 5) if not _is_double(hilb_euler(m + 1)))
    n = 2 * top - 2
    euler = qseries._hilb_table(n // 2 + 1)
    for c in (1, 2, 3):
        assert partitions._chi_scaled(n, c, euler) / (c * c) < 0.91 * sys.float_info.max


def test_direct_weights_are_chi_virtual_doubles_in_ascending_a(neg2):
    # per class, the kept weights (binned, then main) are float(chi_virtual(v)) for v = (r, xi, a)
    # with -2r^2 <= <v^2> <= n_top, in ascending a: the order every float sum over them keeps
    r, cutoff = 2, 3.0
    split = Splitting.identity_positive(neg2)
    z_full_direct(neg2, r, 1j, split, None, cutoff, 2.0)     # the ball holds |xi| <= 3
    ns, classes, _ = next(t for key, t in split._tables.items() if isinstance(key[0], int))
    n_top = math.floor(2 * r * cutoff) + 2 * r * theta.EXP_BINS
    for x in range(-3, 4):
        binned, mains = classes[(-2 * x * x, math.gcd(r, x))]
        got = [(ns[i], w) for _, i, w in binned] + [(ns[i], w) for i, w in mains]
        want = [(n, float(chi)) for a in range(-20, 20)
                if -2 * r * r <= (n := -2 * x * x - 2 * r * a) <= n_top
                and (chi := chi_virtual(MukaiVector(r, (x,), a), neg2))]
        assert got == want and len(want) > 5


def _root_lattice(rank, edges):
    """Gram -C for the Cartan matrix C of a simply laced Dynkin diagram, so Q = C."""
    c = [[2 * (i == j) for j in range(rank)] for i in range(rank)]
    for i, j in edges:
        c[i][j] = c[j][i] = -1
    return EvenLattice(tuple(tuple(-x for x in row) for row in c))


ROOT_LATTICES = {
    "A2": (_root_lattice(2, [(0, 1)]), oracles.a2_count, 31),
    "D4": (_root_lattice(4, [(0, 1), (1, 2), (1, 3)]), oracles.d4_count, 10),
    "E8": (_root_lattice(8, [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)]),
           oracles.e8_count, 4),
}


@pytest.mark.parametrize("name", sorted(ROOT_LATTICES))
def test_short_vector_counts_match_closed_forms(name):
    lat, count, top = ROOT_LATTICES[name]
    pivots = Splitting.identity_positive(lat)._pivots
    points = theta._short_vectors(pivots, (0,) * lat.rank, 1, 2 * top * (1 + 1e-9))
    assert len(set(points)) == len(points) and points == sorted(points)
    norms = Counter(-lat._bilinear(c, c) // 2 for c in points)
    assert max(norms) == top
    assert [norms[n] for n in range(top + 1)] == [count(n) for n in range(top + 1)]


def test_e8_leaf_bound_fits_where_the_box_did_not():
    lat = ROOT_LATTICES["E8"][0]
    split = Splitting.identity_positive(lat)
    outer = math.sqrt(8)
    assert oracles.box_count(8, 1, oracles.majorant_lam_min(split), outer) > MAX_WORK
    assert theta._leaf_bound(split._pivots, 1, outer) <= MAX_WORK


@st.composite
def _ball_inputs(draw):
    """(alpha, step, tau, split, qx, radius, x): a valid splitting of a rank <= 3 lattice, a
    coset and a radius whose box stays small, and x (None or complex) with its Q x mod 1."""
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):         # definite: Q = B^T D B
        b = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
        d = [draw(st.integers(1, 3)) for _ in range(n)]
        gram = [[-2 * sum(b[k][i] * d[k] * b[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]
    else:
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            gram[i][i] = 2 * draw(st.integers(-3, 3))
            for j in range(i):
                gram[i][j] = gram[j][i] = draw(st.integers(-3, 3))
    lat = EvenLattice(gram)
    assume(abs(np.linalg.det(np.array(gram, dtype=float))) > 0.5)
    try:
        split = Splitting.identity_positive(lat) if draw(st.booleans()) \
            else Splitting.spectral(lat)
    except InputError:
        assume(False)
    step = draw(st.integers(1, 3))
    radius = draw(st.sampled_from([0.0, 0.5, 1.0, 1.7, 2.0, 3.0, 4.5]))
    lam_min = oracles.majorant_lam_min(split)
    assume(oracles.box_count(n, step, lam_min, radius + theta.GUARD_SHELLS) <= 20000)
    alpha = tuple(draw(st.integers(-4, 4)) for _ in range(n))
    tau = complex(draw(st.floats(-0.5, 0.5)), draw(st.floats(0.3, 2.0)))
    x = None
    if draw(st.booleans()):
        x = [complex(draw(st.floats(-1, 1)), draw(st.floats(-0.2, 0.2))) for _ in range(n)]
    return alpha, step, tau, split, theta._x_forms(lat, split, x)[0], radius, x


@settings(max_examples=150, deadline=None)
@given(_ball_inputs(), st.integers(1, 3))
def test_fincke_pohst_yields_the_box_points_in_order(case, r):
    alpha, step, tau, split, qx, radius, _ = case
    got = list(theta._ball(alpha, step, r, tau, split, qx, radius, 1, "test"))
    want = list(oracles.box_ball(alpha, step, r, tau, split, qx, radius, theta.GUARD_SHELLS))
    assert got == want


def test_a_point_the_widened_bound_admits_past_the_outer_shell_is_dropped(neg2, split1):
    # c = +-5 has M(c) = 50: inside the enumeration's widened bound, past (radius + guard)^2
    radius = math.sqrt(50 / (1 + 5e-10)) - theta.GUARD_SHELLS
    outer2 = (radius + theta.GUARD_SHELLS) ** 2
    assert outer2 < 50 <= outer2 * (1 + 1e-9)
    got = list(theta._ball((0,), 1, 1, 1j, split1, None, radius, 1, "test"))
    assert got == list(oracles.box_ball((0,), 1, 1, 1j, split1, None, radius, theta.GUARD_SHELLS))
    assert [c for c, *_ in got] == [(k,) for k in range(-4, 5)]


@settings(max_examples=150, deadline=None)
@given(_ball_inputs(), st.integers(1, 3))
def test_exponent_from_q_and_the_majorant_matches_the_projected_forms(case, r):
    # Q_L + Q_R = Q and Q_L - Q_R = M, so tau Q_L + taubar Q_R = Re tau Q + i Im tau M
    alpha, step, tau, split, qx, radius, _ = case
    lat = split.lattice
    for c, _, sq, term in theta._ball(alpha, step, r, tau, split, qx, radius, 1, "test"):
        assert sq == oracles.pairing_brute((0, c, 0), (0, c, 0), lat.gram)
        q, maj = -sq, oracles._quad(split._mj, c)
        ql, qr = oracles.definite_parts(lat.gram, split.pl, split.pr, c)
        hol = tau * ql + tau.conjugate() * qr
        tol = 1e-12 * (abs(q) + maj + 1) * abs(tau)
        assert abs(complex(tau.real * q, tau.imag * maj) - hol) <= tol
        want = oracles._e(hol / (2 * r) + sum(ci * v for ci, v in zip(c, qx or ())))
        assert abs(term - want) <= (2 * math.pi * tol + 1e-14) * abs(want)


@settings(max_examples=150, deadline=None)
@given(_ball_inputs())
def test_leaf_bound_never_exceeds_the_box_count(case):
    alpha, step, _, split, _, radius, _ = case
    outer, lam_min = radius + theta.GUARD_SHELLS, oracles.majorant_lam_min(split)
    assert min(split._pivots[0]) >= lam_min * (1 - 1e-12)
    assert theta._leaf_bound(split._pivots, step, outer) <= oracles.box_count(len(alpha), step,
                                                                              lam_min, outer)


def _sums(lat, alpha, r, tau, split, x, radius):
    """Reprs of the three theta-type sums at one tau, or of the error each raises."""
    out = []
    for call in (lambda: theta_siegel_narain(lat, alpha, r, tau, split, x, radius),
                 lambda: z_full_direct(lat, r, tau, split, x, 3.0, min(radius, 2.0)),
                 lambda: z_full_factorized(lat, r, tau, split, x, 6, radius)):
        try:
            out.append(repr(call()))
        except InputError as exc:
            out.append(repr(exc))
    return out


@settings(max_examples=60, deadline=None)
@given(_ball_inputs(), st.integers(1, 3),
       st.lists(st.complex_numbers(max_magnitude=2).map(lambda t: complex(t.real, abs(t.imag)
                                                                           + 0.2)),
                min_size=1, max_size=3))
def test_a_tau_sweep_through_one_splitting_equals_fresh_splittings(case, r, taus):
    # the kept tables hold only what does not depend on tau: a sweep through one splitting
    # gives every bit a fresh splitting per tau gives
    alpha, _, tau, split, _, radius, x = case
    lat = split.lattice
    for t in [tau, *taus, tau]:
        assert _sums(lat, alpha, r, t, split, x, radius) \
            == _sums(lat, alpha, r, t, Splitting(lat, split.pl, split.pr), x, radius)


@pytest.mark.parametrize("gram, r, order, radius", [(((-2,),), 2, 12, 5.0),
                                                  (((-2, 0), (0, -2)), 2, 10, 4.0)])
def test_a_kept_series_evaluates_as_a_fresh_one(gram, r, order, radius):
    # the series kept on the splitting carry the float view built at tau1 into tau2
    lat = EvenLattice(gram)
    tau1, tau2 = 0.1 + 0.95j, -0.3 + 1.05j
    split = Splitting.identity_positive(lat)
    z_full_factorized(lat, r, tau1, split, None, order, radius)
    kept = split._tables[(r, Fraction(order))]
    assert all("_floats" in s.__dict__ for _, s in kept.values())
    got = z_full_factorized(lat, r, tau2, split, None, order, radius)
    want = z_full_factorized(lat, r, tau2, Splitting.identity_positive(lat), None, order, radius)
    assert repr(got) == repr(want)


def test_a_sum_past_the_bound_is_used_but_not_kept(monkeypatch):
    lat = EvenLattice(((-2, 0), (0, -2)))
    radii = (1.0, 6.0, 2.5)             # balls of 25, 129 and 45 points, guard shells included
    want = [theta_siegel_narain(lat, (0, 0), 1, 0.1 + 1j, Splitting.identity_positive(lat),
                                None, radius) for radius in radii]
    monkeypatch.setattr(theta, "KEEP_POINTS", 60)
    split = Splitting.identity_positive(lat)
    tables = split._tables
    got = []
    for radius in radii:
        got.append(theta_siegel_narain(lat, (0, 0), 1, 0.1 + 1j, split, None, radius))
        assert 0 < tables.size <= 60 and tables.size == sum(len(t[1]) for t in tables.values())
        assert [key[-1] for key in tables] == [2.5 if radius == 2.5 else 1.0]
    # the 129 points are used and not kept; the 45 drop the 25 kept before them
    assert got == want


def _skewed(skew):
    """The diagonal form Q = diag(2, 4) written in the basis [[1, skew], [0, 1]]."""
    b = ((1, skew), (0, 1))
    g = ((-2, 0), (0, -4))
    return EvenLattice(tuple(tuple(sum(b[x][i] * g[x][y] * b[y][j]
                                       for x in range(2) for y in range(2))
                                   for j in range(2)) for i in range(2)))


@pytest.mark.parametrize("gram, spectral, x", [
    (((-2,),), False, None),
    (((-2, 0), (0, -2)), False, None),
    (((-2, 0), (0, -2)), True, [0.3 + 0.05j, -0.1 + 0j]),
    (((-2, 1), (1, -4)), True, None),
    (((-2, 0), (0, 2)), True, [0.25 + 0.02j, 0.1 - 0.03j]),
    (_skewed(4).gram, False, None),
    (_skewed(-4).gram, False, [0.1 + 0.01j, 0.2 + 0j]),
])
def test_results_bit_identical_to_the_box_reference(monkeypatch, gram, spectral, x):
    lat = EvenLattice(gram)
    make = Splitting.spectral if spectral else Splitting.identity_positive

    def results(split_of):
        out = []
        for tau in (1j, 0.3 + 0.8j, 1j):      # the second 1j reads what the first kept
            split = split_of()
            for alpha, r, radius in (((0,) * lat.rank, 1, 4.0), ((1,) * lat.rank, 2, 6.0),
                                     ((1,) + (0,) * (lat.rank - 1), 3, 2.5)):
                out.append(theta_siegel_narain(lat, alpha, r, tau, split, x, radius))
            for r in (1, 2):
                out.append(z_full_direct(lat, r, tau, split, x, 5.0, 3.0))
                out.append(z_full_factorized(lat, r, tau, split, x, 8, 3.0))
        return [repr(res) for res in out]

    calls = []

    def box(alpha, step, r, tau, split, qx, radius, per_point, what):
        calls.append(what)
        return oracles.box_ball(alpha, step, r, tau, split, qx, radius, theta.GUARD_SHELLS)

    split = make(lat)
    new = results(lambda: split)
    monkeypatch.setattr(theta, "_ball", box)
    # a fresh splitting per tau keeps no table of the first run: the oracle enumerates each ball
    assert new == results(lambda: make(lat))
    assert len(calls) == 3 * (3 + 2 + 1 + 2 ** lat.rank)


def test_results_pinned_to_the_box_enumeration():
    # reprs from the box enumeration and Fraction weights that Fincke-Pohst and
    # float weights replaced; r = 3 reads chi / 9, which the binary division must round alike
    skew, ind = _skewed(4), EvenLattice(((-2, 0), (0, 2)))
    neg2, toy2 = EvenLattice(((-2,),)), EvenLattice(((-2, 0), (0, -2)))
    got = [theta_siegel_narain(skew, (1, 0), 2, 0.3 + 0.8j, Splitting.identity_positive(skew),
                               None, 6.0),
           theta_siegel_narain(ind, (1, 1), 2, 0.1 + 1.2j, Splitting.spectral(ind),
                               [0.25 + 0.02j, 0.1 - 0.03j], 4.0),
           z_full_direct(neg2, 3, 0.25 + 1.1j, Splitting.identity_positive(neg2), None, 4.0, 3.0),
           z_full_direct(toy2, 2, 0.1 + 1j, Splitting.identity_positive(toy2), None, 6.0, 4.0),
           z_full_factorized(toy2, 2, 0.1 + 1j, Splitting.identity_positive(toy2), None, 10, 4.0),
           # the last xi guard shell is empty: the analytic start carries the a-sum weight
           z_full_direct(neg2, 2, 1j, Splitting.identity_positive(neg2), None, 4.0, 4.0)]
    assert [repr(res) for res in got] == [
        "ThetaSum(value=(0.09522425760630887+0.13106494801718224j), "
        "tail=1.031580020156683e-27, points=12)",
        "ThetaSum(value=(-0.0007265580394613061-0.0008052064362195986j), "
        "tail=5.354554130909906e-16, points=4)",
        "ZFullSum(value=(20.706061041337396+112367714.0222711j), "
        "tail=0.22536257535130336, terms=26)",
        "ZFullSum(value=(22194.984316239326-68173.09792064782j), "
        "tail=9.690845926528388e-08, terms=184)",
        "ZFullSum(value=(22194.98431621098-68173.09792073988j), "
        "tail=1.0434874318865816e-10, terms=25)",
        "ZFullSum(value=(71728.36338967281+0j), tail=9.325852716386167e-05, terms=28)",
    ]
