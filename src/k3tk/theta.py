"""Truncated Siegel-Narain theta sums and the factorized partition function.

Everything here works with Q = -G, the negative of the intersection form
stored on the lattice (see k3tk.lattice for the sign convention).  A
Splitting carries projectors P_L, P_R onto subspaces where Q is positive
resp. negative definite; the majorant form Q(c_L, c_L) - Q(c_R, c_R) is then
positive definite and controls every truncation ball.

On an actual K3 surface Q has signature (19, 3) on the full degree-2 lattice;
that case is a configuration of this module, while the tests run definite and
small indefinite toy lattices, which is what keeps the cross-checks
desk-scale.  The theta sum over a coset alpha + r Lambda is

    Theta_{alpha,r}(tau, P, x) = sum_c q^{Q(c_L^2)/2r} qbar^{-Q(c_R^2)/2r}
                                 e(Q(c, x)),

restricted to majorant norm <= R^2.  The full rank-r partition function is
evaluated two ways: a direct truncated sum over Mukai vectors weighted by
chi_virtual, and the coset factorization sum_alpha Z_r^alpha * Theta_{alpha,r}.

Tail reporting: each truncated sum also evaluates a few guard shells (in the
majorant radius) and extension bins (in the holomorphic exponent) beyond its
cutoff, then extrapolates geometrically with the observed decay ratio,
falling back to an analytic Gaussian-times-count bound when the guard region
is empty.  ConsistencyError is raised when the geometric regime cannot be
certified (ratio not < 1), rather than reporting an unsound bound.  For
complex x the phase growth |e(Q(c, x))| <= exp(2 pi |c| |Im x|) in the
majorant norm (Cauchy-Schwarz on each definite part) is folded into the
analytic bound.

Modular transformation laws of the theta sum are not implemented: the
familiar constants are specific to the rank-22 K3 lattice and no
general-signature statement is assumed.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConsistencyError, InputError
from .lattice import EvenLattice, MukaiVector, _as_int, _as_ints
from .partitions import chi_virtual, z_psu_direct
from .qseries import hilb_euler, qs_evaluate

GUARD_SHELLS = 3
EXP_BINS = 8


@dataclass(eq=False)
class Splitting:
    """Projectors onto the Q-positive (P_L) and Q-negative (P_R) subspaces."""

    pl: np.ndarray
    pr: np.ndarray

    def __post_init__(self):
        self.pl = np.array(self.pl, dtype=float)
        self.pr = np.array(self.pr, dtype=float)
        self.pl.setflags(write=False)
        self.pr.setflags(write=False)

    @classmethod
    def spectral(cls, lat: EvenLattice) -> "Splitting":
        """Eigenprojectors of Q = -G; requires a nondegenerate form."""
        q = -np.array(lat.gram, dtype=float)
        vals, vecs = np.linalg.eigh(q)
        if np.any(np.abs(vals) < 1e-9):
            raise InputError("lattice form is degenerate; no splitting exists")
        pos = vecs[:, vals > 0]
        neg = vecs[:, vals < 0]
        return cls(pos @ pos.T, neg @ neg.T)

    @classmethod
    def identity_positive(cls, lat: EvenLattice) -> "Splitting":
        """P_L = id, P_R = 0: valid exactly when Q = -G is positive definite."""
        n = lat.rank
        split = cls(np.eye(n), np.zeros((n, n)))
        split.validate(lat)
        return split

    def validate(self, lat: EvenLattice) -> None:
        n = lat.rank
        if self.pl.shape != (n, n) or self.pr.shape != (n, n):
            raise InputError("splitting projectors do not match the lattice rank")
        q = -np.array(lat.gram, dtype=float)
        if np.max(np.abs(self.pl + self.pr - np.eye(n))) > 1e-12:
            raise InputError("splitting projectors must sum to the identity")
        cross = self.pl.T @ q @ self.pr
        if np.max(np.abs(cross)) > 1e-10:
            raise InputError("splitting subspaces must be Q-orthogonal")
        for i in range(n):
            u = self.pl[:, i]
            if np.linalg.norm(u) > 1e-8 and u @ q @ u <= 0:
                raise InputError("Q must be positive definite on range(P_L)")
            w = self.pr[:, i]
            if np.linalg.norm(w) > 1e-8 and w @ q @ w >= 0:
                raise InputError("Q must be negative definite on range(P_R)")


@dataclass(frozen=True)
class ThetaSum:
    value: complex
    tail: float
    points: int


@dataclass(frozen=True)
class ZFullSum:
    value: complex
    tail: float
    terms: int


def _forms(lat: EvenLattice, split: Splitting):
    """(Q, QL, QR, MJ, lam_min) as float matrices; MJ is the majorant."""
    split.validate(lat)
    q = -np.array(lat.gram, dtype=float)
    ql = split.pl.T @ q @ split.pl
    qr = split.pr.T @ q @ split.pr
    mj = ql - qr
    lam_min = float(np.min(np.linalg.eigvalsh(mj)))
    if lam_min <= 1e-10:
        raise InputError("majorant form is not positive definite; invalid splitting")
    return q, ql, qr, mj, lam_min


def _check_x(x, rank: int) -> np.ndarray:
    if x is None:
        return np.zeros(rank, dtype=complex)
    xv = np.array(list(x), dtype=complex)
    if xv.shape != (rank,):
        raise InputError("x must have one complex coordinate per lattice rank")
    return xv


def _coset_points(alpha, r: int, rank: int, bound: float):
    """Integer vectors alpha + r m within the Euclidean box |c_i| <= bound."""
    ranges = []
    for i in range(rank):
        lo = math.ceil((-bound - alpha[i]) / r)
        hi = math.floor((bound - alpha[i]) / r)
        ranges.append(range(lo, hi + 1))
    for m in itertools.product(*ranges):
        yield np.array([alpha[i] + r * m[i] for i in range(rank)], dtype=float)


def _weight(c, tau: complex, r: int, ql, qr, q, xv, extra_h: float = 0.0) -> complex:
    hol = float(c @ ql @ c) / (2 * r) + extra_h
    ahol = -float(c @ qr @ c) / (2 * r)
    phase = complex(c @ q @ xv)
    return cmath.exp(2j * cmath.pi * (tau * hol - tau.conjugate() * ahol)) \
        * cmath.exp(2j * cmath.pi * phase)


def _count_bound(t: float, r: int, rank: int, lam_min: float) -> float:
    per_axis = 2.0 * t / (r * math.sqrt(lam_min)) + 2.0
    return per_axis ** rank


def _geom_tail(shells, first_analytic, rho_analytic):
    """Sum of guard shells plus a geometric remainder.

    The remainder ratio is the larger of the observed shell decay and the
    analytic per-shell bound; math.inf when neither contracts.
    """
    total = math.fsum(shells)
    last = shells[-1] if shells and shells[-1] > 0 else first_analytic
    rho = rho_analytic
    if len(shells) >= 2 and shells[-2] > 0 and shells[-1] > 0:
        rho = max(rho, shells[-1] / shells[-2])
    if rho >= 1.0:
        return math.inf
    return total + last * rho / (1.0 - rho)


def theta_siegel_narain(lat: EvenLattice, alpha, r: int, tau: complex,
                        split: Splitting, x=None, radius: float = 5.0) -> ThetaSum:
    """Coset theta sum truncated at majorant norm <= radius^2."""
    tau = complex(tau)
    if tau.imag <= 0:
        raise InputError("tau must lie in the upper half plane")
    if radius < 0:
        raise InputError("radius must be nonnegative")
    r = _as_int(r)
    if r < 1:
        raise InputError("coset step r must be a positive integer")
    alpha = _as_ints(alpha)
    lat.check_vector(alpha)
    q, ql, qr, mj, lam_min = _forms(lat, split)
    xv = _check_x(x, lat.rank)
    xim = np.imag(xv)
    xnorm = math.sqrt(max(float(xim @ mj @ xim), 0.0))

    outer = radius + GUARD_SHELLS
    box = outer / math.sqrt(lam_min) + 1e-9
    main_re, main_im = [], []
    shells = [0.0] * GUARD_SHELLS
    points = 0
    for c in _coset_points(alpha, r, lat.rank, box):
        maj = float(c @ mj @ c)
        if maj > outer * outer:
            continue
        term = _weight(c, tau, r, ql, qr, q, xv)
        if maj <= radius * radius:
            main_re.append(term.real)
            main_im.append(term.imag)
            points += 1
        else:
            j = min(int(math.ceil(math.sqrt(maj) - radius)), GUARD_SHELLS)
            shells[j - 1] += abs(term)
    value = complex(math.fsum(main_re), math.fsum(main_im))

    t0 = radius + GUARD_SHELLS
    decay = 2.0 * math.pi * tau.imag / (2 * r)
    rho_analytic = (2.0 ** lat.rank) * math.exp(-decay * (2 * t0 + 1)
                                                + 2 * math.pi * xnorm)
    first_analytic = _count_bound(t0, r, lat.rank, lam_min) \
        * math.exp(-decay * t0 * t0 + 2 * math.pi * xnorm * t0)
    tail = _geom_tail(shells, first_analytic, rho_analytic)
    return ThetaSum(value, tail, points)


def _toy_guard(lat: EvenLattice, r: int) -> None:
    if lat.rank > 2 or r > 3:
        raise InputError("full partition sums are limited to rank <= 2 and r <= 3")


def _a_sum_bound(r: int, qabs: float) -> float:
    """xi-independent bound on sum_a chi_virtual(r, xi, a) |q|^{<v^2>/2r}.

    With h = <v^2>/2r the leading divisor contributes chi(Hilb^{r h + 1}) and
    the rest at most as much again, so 2 sum_n chi(Hilb^n) |q|^{(n-1)/r}
    bounds any single a-sum.  Requires the summand ratio to contract.
    """
    total = 0.0
    prev = None
    n = 0
    while True:
        term = hilb_euler(n) * qabs ** ((n - 1) / r)
        total += term
        if prev is not None and n > 4:
            rho = term / prev
            if rho >= 1.0:
                raise ConsistencyError("cannot bound the a-sum: |q| too large")
            if term < 1e-300 or term / (1.0 - rho) < 1e-16 * total:
                total += term * rho / (1.0 - rho)
                break
        prev = term
        n += 1
    return 2.0 * total


def z_full_direct(lat: EvenLattice, r: int, tau: complex, split: Splitting,
                  x=None, exponent_cutoff: float = 8.0,
                  radius: float = 5.0) -> ZFullSum:
    """Direct truncated sum of the rank-r partition function.

    Sums chi_virtual(v) q^{<v^2>/2r} q^{Q(c1_L^2)/2r} qbar^{-Q(c1_R^2)/2r}
    e(Q(c1, x)) over Mukai vectors v = (r, xi, a) with majorant norm of xi at
    most radius^2 and holomorphic Mukai exponent at most exponent_cutoff.
    """
    _toy_guard(lat, r)
    tau = complex(tau)
    if tau.imag <= 0:
        raise InputError("tau must lie in the upper half plane")
    q, ql, qr, mj, lam_min = _forms(lat, split)
    xv = _check_x(x, lat.rank)
    xim = np.imag(xv)
    xnorm = math.sqrt(max(float(xim @ mj @ xim), 0.0))

    outer = radius + GUARD_SHELLS
    box = outer / math.sqrt(lam_min) + 1e-9
    cutoff = Fraction(exponent_cutoff)
    main_re, main_im = [], []
    hbins = [0.0] * EXP_BINS          # xi in the main ball, exponent beyond cutoff
    xshells = [0.0] * GUARD_SHELLS    # xi beyond the main ball, any exponent
    terms = 0
    for c in _coset_points((0,) * lat.rank, 1, lat.rank, box):
        maj = float(c @ mj @ c)
        if maj > outer * outer:
            continue
        xi = tuple(int(round(v)) for v in c)
        s_xi = lat.quad(xi)
        a_hi = math.floor(Fraction(s_xi, 2 * r) + r)
        a_lo = math.ceil(Fraction(s_xi, 2 * r) - cutoff - EXP_BINS)
        in_ball = maj <= radius * radius
        for a in range(a_lo, a_hi + 1):
            chi = chi_virtual(MukaiVector(r, xi, a), lat)
            if not chi:
                continue
            h = Fraction(s_xi - 2 * r * a, 2 * r)
            term = float(chi) * _weight(c, tau, r, ql, qr, q, xv, float(h))
            if in_ball and h <= cutoff:
                main_re.append(term.real)
                main_im.append(term.imag)
                terms += 1
            elif in_ball:
                j = min(int(math.ceil(h - cutoff)), EXP_BINS)
                hbins[j - 1] += abs(term)
            else:
                j = min(int(math.ceil(math.sqrt(maj) - radius)), GUARD_SHELLS)
                xshells[j - 1] += abs(term)
    value = complex(math.fsum(main_re), math.fsum(main_im))

    # exponent direction: coefficient growth is subexponential, so the bin
    # sums must already decay; refuse to certify otherwise.
    if hbins[-1] > 0 and hbins[-2] > 0:
        rho_h = hbins[-1] / hbins[-2]
    else:
        rho_h = abs(cmath.exp(2j * cmath.pi * tau)) * 25.0
    if rho_h >= 1.0:
        raise ConsistencyError("cannot certify the exponent-direction tail")
    tail_h = math.fsum(hbins) + hbins[-1] * rho_h / (1.0 - rho_h)
    h_factor = 1.0 + rho_h / (1.0 - rho_h)

    t0 = radius + GUARD_SHELLS
    decay = 2.0 * math.pi * tau.imag / (2 * r)
    rho_x = (2.0 ** lat.rank) * math.exp(-decay * (2 * t0 + 1) + 2 * math.pi * xnorm)
    # a distant xi contributes at most its full a-sum (xi-independent bound)
    # times the Gaussian shell weight
    qabs = abs(cmath.exp(2j * cmath.pi * tau))
    first_analytic = _count_bound(t0, r, lat.rank, lam_min) \
        * math.exp(-decay * t0 * t0 + 2 * math.pi * xnorm * t0) \
        * _a_sum_bound(r, qabs)
    tail_x = _geom_tail(xshells, first_analytic, rho_x) * h_factor
    tail = tail_h + tail_x
    return ZFullSum(value, tail, terms)


def z_full_factorized(lat: EvenLattice, r: int, tau: complex, split: Splitting,
                      x=None, series_order=12, radius: float = 5.0) -> ZFullSum:
    """Coset factorization sum_alpha Z_r^alpha(tau) Theta_{alpha,r}(tau, P, x)."""
    _toy_guard(lat, r)
    tau = complex(tau)
    value = 0j
    tail = 0.0
    points = 0
    for alpha in itertools.product(range(r), repeat=lat.rank):
        series = z_psu_direct(r, alpha, series_order, lat)
        ev = qs_evaluate(series, tau)
        th = theta_siegel_narain(lat, alpha, r, tau, split, x, radius)
        value += ev.value * th.value
        tail += abs(ev.value) * th.tail + ev.tail * (abs(th.value) + th.tail)
        points += th.points
    return ZFullSum(value, tail, points)
