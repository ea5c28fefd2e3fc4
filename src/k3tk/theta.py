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
majorant radius) and, for the direct sum, extension bins (in the holomorphic
exponent) past its cutoff, and adds their moduli exactly; what lies past them is
bounded, not extrapolated.  _shell_tail counts the points past the last guard
shell with the ball's leaf bound (below), each at most its Gaussian times
exp(2 pi |c| |Im x|) (Cauchy-Schwarz on each definite part), and is math.inf
when that series does not contract.  _hilb_tail bounds every tail of Goettsche's
series by Cauchy's estimate on its product, and _a_sums, its one caller, each a-sum
that either full sum omits.  _shell_tail and _hilb_tail take their exponentials
through _exp, which rounds an underflow up to the least positive float, so a bound on
omitted terms is never 0.  The pivots are still floats.

Kernels: points are tuples of ints.  The projectors sum to the identity and are
Q-orthogonal, so Q(c_L^2) + Q(c_R^2) = Q(c) and each exponent is (Re tau Q(c) +
i Im tau M(c))/2r, M the majorant: only the exact integer Q(c) = -(c^2) and the one
float form M are evaluated.  A splitting is validated once, for its lattice, when it is
built, and M is built with it in plain Python; Jacobi (_eigh) gives the spectral projectors,
so nothing here needs numpy.  Every float sum but math.fsum's is added left to right from 0
(_dot, or reduce itself), never by the builtin sum, so each result keeps its bits on every
interpreter.  Fincke-Pohst enumeration (Math. Comp. 44 (1985); Cohen, GTM 138, 2.7.3) over
M's pivots lists the points in lexicographic order, and each kept point's M(c) is _quad's.
Its leaf bound prod_k (2R / sqrt(d_k) / step + 1), from the pivots d_k, which also decide
that M is definite, is checked against errors.MAX_WORK first.  Both full sums reuse what
depends on a class ((xi^2), gcd(r, xi)) alone: the direct sum's weights over a, and the
factorized sum's Z_r^alpha.  A term that overflows double precision is an InputError.
What does not depend on tau is kept on the splitting, in tables of at most KEEP_POINTS
entries in all: a ball's points with their j, (c^2) and distinct pairs ((c^2), M(c)); the
direct sum's chi/c^2 per (n, c) and class lists; the factorized sum's series per class.  A
call then takes one exp per pair (per point for an x) and per n, and evaluates each series
at tau from the float view the kept series carries, converted on its first evaluation.
The work cap and every InputError are checked on every call, kept table or not.

Modular transformation laws of the theta sum are not implemented: the
familiar constants are specific to the rank-22 K3 lattice and no
general-signature statement is assumed.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import reduce
from itertools import compress, product
from operator import add, mul, sub

from .errors import MAX_WORK, InputError, check_work
from .lattice import EvenLattice, Value, _as_ints, _as_number, _at_least, _set
from .moduli import _chi_scaled, _hilb_table
from .partitions import _a_span, z_psu_direct
from .qseries import _upper, qs_evaluate

GUARD_SHELLS = 3
EXP_BINS = 8
CHI_FLOAT_TOP = 3713    # largest n with chi(Hilb^n) below the largest double
KEEP_POINTS = 2 ** 16   # most entries the tau-independent tables of one splitting hold


def _q(lat: EvenLattice):
    """Q = -G as float rows; InputError for rank 0 or an entry beyond a double."""
    if not lat.rank:
        raise InputError("a splitting needs a lattice of positive rank")
    try:
        return tuple(tuple(-float(g) for g in row) for row in lat.gram)
    except OverflowError:
        raise InputError("lattice entries exceed double precision") from None


def _as_numbers(xs, kind=None) -> tuple:
    """_as_number(v, kind) over a caller's list, or over each row of a matrix as floats
    when kind is None: InputError, not TypeError, when xs or a row is text or not a list."""
    try:
        if isinstance(xs, (str, bytes)):
            raise TypeError
        return tuple([_as_number(v, kind) if kind else _as_numbers(v, float) for v in xs])
    except TypeError:
        raise InputError(f"expected a list of numbers, got {xs!r}") from None


def _mm(a, b):
    """The product of two matrices stored as rows."""
    cols = tuple(zip(*b))
    return tuple(tuple(_dot(row, col) for col in cols) for row in a)


def _eigh(m):
    """(eigenvalues, rows whose columns are the eigenvectors) of the symmetric matrix
    whose lower triangle m holds: cyclic Jacobi (Golub-Van Loan, Matrix Computations,
    8.5), sweeping until each off-diagonal a_pq is at most 1e-18 sqrt(|a_pp a_qq|)."""
    n = len(m)
    a = [[float(m[max(i, j)][min(i, j)]) for j in range(n)] for i in range(n)]
    v = [[float(i == j) for j in range(n)] for i in range(n)]
    for _ in range(100):        # converges quadratically: a handful of sweeps
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p][q]) <= 1e-18 * math.sqrt(abs(a[p][p])) * math.sqrt(abs(a[q][q])):
                    continue
                rotated = True
                cot = (a[q][q] - a[p][p]) / (2 * a[p][q])      # cot of twice the angle
                t = math.copysign(1 / (abs(cot) + math.hypot(1, cot)), cot)
                c = 1 / math.hypot(1, t)
                s = t * c
                for row in (*a, *v):            # columns p, q of A J and of V J
                    row[p], row[q] = c * row[p] - s * row[q], s * row[p] + c * row[q]
                a[p], a[q] = ([c * x - s * y for x, y in zip(a[p], a[q])],   # rows of J^T A
                              [s * x + c * y for x, y in zip(a[p], a[q])])
        if not rotated:
            break
    return [a[i][i] for i in range(n)], v


class _Tables(dict):
    """A splitting's tau-independent tables, keyed by what built them; size counts their
    entries, each table at least 1."""

    size = 0

    def keep(self, key, table, size: int):
        """table, kept unless it alone holds more than KEEP_POINTS entries; one that would take
        the total past KEEP_POINTS drops the kept tables first."""
        if (size := max(size, 1)) <= KEEP_POINTS:
            if self.size + size > KEEP_POINTS:
                self.clear()
                self.size = 0
            self[key], self.size = table, self.size + size
        return table


class Splitting(Value):
    """Projectors onto the Q-positive (P_L) and Q-negative (P_R) subspaces of one lattice's
    form, stored as tuples of float rows; the constructor takes the lattice and any n x n
    nested sequence of finite numbers for each projector, and validates them once, for that
    lattice.  Outside the value it keeps the majorant MJ as float columns (_mj), MJ's LDL^T
    _pivots, which also decide that MJ is definite, and the sums' tau-independent _tables: at
    most KEEP_POINTS entries in all, dropped when a new table would pass that, freed with it."""

    __slots__ = ("lattice", "pl", "pr", "_mj", "_pivots", "_tables")

    def __init__(self, lattice: EvenLattice, pl, pr):
        _set(self, "lattice", lattice)
        _set(self, "pl", pl := _as_numbers(pl))
        _set(self, "pr", pr := _as_numbers(pr))
        n, q = lattice.rank, _q(lattice)
        if any(len(m) != n or any(len(row) != n for row in m) for m in (pl, pr)):
            raise InputError("splitting projectors do not match the lattice rank")
        if any(abs(x + y - (i == j)) > 1e-12 for i, rows in enumerate(zip(pl, pr))
               for j, (x, y) in enumerate(zip(*rows))):
            raise InputError("splitting projectors must sum to the identity")
        plt, prt = tuple(zip(*pl)), tuple(zip(*pr))
        pltq = _mm(plt, q)
        if any(abs(x) > 1e-10 for row in _mm(pltq, pr) for x in row):
            raise InputError("splitting subspaces must be Q-orthogonal")
        for u, w in zip(plt, prt):
            if math.hypot(*u) > 1e-8 and _quad(q, u) <= 0:
                raise InputError("Q must be positive definite on range(P_L)")
            if math.hypot(*w) > 1e-8 and _quad(q, w) >= 0:
                raise InputError("Q must be negative definite on range(P_R)")
        ql, qr = _mm(pltq, pl), _mm(_mm(prt, q), pr)
        mj = tuple(tuple(map(sub, x, y)) for x, y in zip(ql, qr))
        _set(self, "_mj", mj := tuple(zip(*mj)))
        _set(self, "_pivots", _pivots(mj))
        _set(self, "_tables", _Tables())

    @classmethod
    def spectral(cls, lat: EvenLattice) -> "Splitting":
        """Eigenprojectors of Q = -G; requires a nondegenerate form."""
        vals, vecs = _eigh(_q(lat))
        if any(abs(x) < 1e-9 for x in vals):
            raise InputError("lattice form is degenerate; no splitting exists")

        def projector(sign):        # exactly 0 or the identity on a definite form
            keep = [sign * lam > 0 for lam in vals]
            return [[(i == j) if all(keep) else _dot(compress(vi, keep), compress(vj, keep))
                     for j, vj in enumerate(vecs)] for i, vi in enumerate(vecs)]
        return cls(lat, projector(1), projector(-1))

    @classmethod
    def identity_positive(cls, lat: EvenLattice) -> "Splitting":
        """P_L = id, P_R = 0: valid exactly when Q = -G is positive definite."""
        n = range(lat.rank)
        return cls(lat, [[i == j for j in n] for i in n], [[0 for _ in n] for _ in n])


class ThetaSum(Value):
    __slots__ = ("value", "tail", "points")      # complex, float, int


class ZFullSum(Value):
    __slots__ = ("value", "tail", "terms")       # complex, float, int


def _x_forms(lat: EvenLattice, split: Splitting, x):
    """(Qx, |Im x|_MJ) for a splitting built for lat: Qx = Q x with Re Q x mod 1 (exact fmod;
    c is integral), None for x = None, and MJ the splitting's majorant."""
    if not (split.lattice is lat or split.lattice == lat):
        raise InputError("the splitting was built for another lattice")
    if x is None:
        return None, 0.0
    xv = _as_numbers(x, complex)
    qx = tuple(-_dot(row, xv) for row in lat.gram)
    if len(xv) != lat.rank or not all(map(cmath.isfinite, qx)):
        raise InputError("x must have one finite coordinate per lattice rank, and a finite Q x")
    qx = tuple(complex(math.fmod(v.real, 1.0), v.imag) for v in qx)
    return qx, math.sqrt(max(_quad(split._mj, [v.imag for v in xv]), 0.0))


def _dot(a, b):
    """sum a_k b_k added left to right from 0, the order of every float sum here but fsum's: the
    builtin sum compensates from Python 3.12 on, so the bits would depend on the interpreter."""
    return reduce(add, map(mul, a, b), 0)


def _quad(cols, c) -> float:
    """c^T M c for a form M stored as its columns, evaluated as (c^T M) c."""
    return _dot([_dot(c, col) for col in cols], c)


def _pivots(mj):
    """(d, mu) with MJ(c) = sum_k d_k (c_k - ctr_k)^2, ctr_k = -sum_{j<k} mu_k[j] c_j:
    squares completed from the last coordinate down, so each d_k is a Schur complement
    pivot, at least the least eigenvalue of MJ; InputError at one not above 1e-10."""
    a = [list(col) for col in mj]
    d, mu = [], []
    for k in reversed(range(len(a))):
        if not a[k][k] > 1e-10:         # definite iff every pivot is positive; NaN too
            raise InputError("majorant form is not positive definite; invalid splitting")
        mu.insert(0, [x / a[k][k] for x in a[k][:k]])
        d.insert(0, a[k][k])
        for i in range(k):
            a[i][:k] = [x - a[i][k] * y for x, y in zip(a[i], mu[0])]
    return d, mu


def _leaf_bound(pivots, step: int, outer: float) -> float:
    """Leaves of the _short_vectors tree at majorant radius outer: level k spans
    at most 2 outer / sqrt(d_k) along its coset progression of the given step."""
    return math.prod([2 * (outer / math.sqrt(dk)) / step + 1 for dk in pivots[0]])


def _short_vectors(pivots, alpha, step: int, bound2: float) -> list:
    """The c in alpha + step Z^n with sum_k d_k (c_k - ctr_k)^2 <= bound2 (Fincke-Pohst), a list
    of tuples in itertools.product order: level k scans its interval of alpha_k + step Z upwards
    under each head (c_0 .. c_{k-1}), about the centre ctr_k that _dot takes."""
    d, mu = pivots
    last = len(alpha) - 1
    points = []

    def level(k, head, budget):
        ctr = -_dot(mu[k], head)
        half = math.sqrt(max(budget, 0.0) / d[k])
        a = alpha[k]
        span = range(step * math.ceil((ctr - half - a) / step) + a,
                     step * math.floor((ctr + half - a) / step) + a + 1, step)
        if k == last:
            points.extend([head + (cl,) for cl in span])
            return
        for ck in span:
            level(k + 1, head + (ck,), budget - d[k] * (ck - ctr) ** 2)
    level(0, (), bound2)
    return points


def _e(t: complex) -> complex:
    """e(t) = exp(2 pi i t); InputError where it is not a finite double."""
    try:
        v = cmath.exp(2j * cmath.pi * t)
    except (OverflowError, ValueError):     # ValueError: an infinite phase
        v = math.nan
    if not cmath.isfinite(v):       # also an exponent or phase that overflowed before the exp
        raise InputError("a term overflows double precision at this input")
    return v


def _ball(alpha, step: int, r: int, tau: complex, split: Splitting, qx,
          radius: float, per_point: int, what: str):
    """(c, j, (c^2), e((Re tau Q(c) + i Im tau M(c))/2r + Q(c, x))) over c in alpha + step Z^n
    with sqrt M(c) <= radius + GUARD_SHELLS, M the majorant and Q(c) = -(c^2) exact; j = 0 inside
    radius, else the guard shell.  The leaf bound (at least 1) times per_point, saturated past
    MAX_WORK so a huge int never meets a float, is checked on every call; the enumeration runs at
    a slightly widened bound and M(c), taken by _quad point by point, decides.  The splitting's
    tables keep the points, each with j, (c^2) and the index of its pair ((c^2), M(c)), so a call
    takes one e() per distinct pair, or one per point for an x (qx not None)."""
    lat, mj, pivots = split.lattice, split._mj, split._pivots
    outer = radius + GUARD_SHELLS
    check_work(_leaf_bound(pivots, step, outer) * min(per_point, MAX_WORK + 1), what)
    if (table := split._tables.get(key := (alpha, step, radius))) is None:
        outer2, radius2 = outer * outer, radius * radius
        pairs, points = {}, []
        for c in _short_vectors(pivots, alpha, step, outer2 * (1 + 1e-9)):
            if (maj := _quad(mj, c)) > outer2:
                continue
            j = 0 if maj <= radius2 else \
                max(1, min(math.ceil(math.sqrt(maj) - radius), GUARD_SHELLS))
            sq = lat._bilinear(c, c)
            points.append((c, j, sq, pairs.setdefault((sq, maj), len(pairs))))
        table = split._tables.keep(key, (list(pairs), points), len(points))
    pairs, points = table
    ts = [complex(-tau.real * sq, tau.imag * maj) / (2 * r) for sq, maj in pairs]
    if qx is None:
        es = [_e(t) for t in ts]
        return ((c, j, sq, es[k]) for c, j, sq, k in points)
    return ((c, j, sq, _e(ts[k] + _dot(c, qx))) for c, j, sq, k in points)


def _exp(t: float) -> float:
    """math.exp, saturating to inf and rounding an underflow up to the least positive float:
    an overflowing tail bound is an unbounded tail, and a bound on omitted terms is never 0."""
    try:
        return math.exp(t) or math.ulp(0.0)
    except OverflowError:
        return math.inf


def _shell_tail(shells, pivots, step: int, r: int, tau: complex, radius: float,
                xnorm: float, weight: float = 1.0) -> float:
    """The guard shells' sum plus a bound on the points past them, each at most weight times
    its modulus; math.inf when the bound does not contract.  Shell k >= 1 past t0 = radius +
    GUARD_SHELLS holds at most _leaf_bound(t0 + k) points, of modulus at most exp(-decay (t0 +
    k - 1)^2 + 2 pi |Im x|_M (t0 + k)) (|Im Q(c, x)| <= |c|_M |Im x|_M); from shell to shell
    that grows by at most rho, the leaf bound by less than 2 per coordinate."""
    t0 = radius + GUARD_SHELLS
    decay = 2.0 * math.pi * tau.imag / (2 * r)
    rho = (2.0 ** len(pivots[0])) * _exp(-decay * (2 * t0 + 1) + 2 * math.pi * xnorm)
    if rho >= 1.0 or weight == math.inf:        # not inf * 0 = nan for an underflowing term
        return math.inf
    first = _leaf_bound(pivots, step, t0 + 1) \
        * _exp(-decay * t0 * t0 + 2 * math.pi * xnorm * (t0 + 1)) * weight
    return math.fsum(shells) + first / (1.0 - rho)


def _log_goettsche(z: float) -> float:
    """An upper bound on log F(z), F(z) = prod_m (1 - z^m)^-24 for 0 < z < 1: at most 60
    factors, up to the first z^m <= 1e-17 (1 - z)^2, and the rest as 24 z^m / (1 - z)^2."""
    log_f, small = 0.0, 1e-17 * (1.0 - z) ** 2
    for m in range(1, 61):
        if (zm := z ** m) <= small:
            break
        log_f -= math.log1p(-zm)
    return 24.0 * (log_f + zm / (1.0 - z) ** 2)


def _hilb_tail(y: float, start: int) -> float:
    """A bound, rounded up, on sum_{m >= start} chi(Hilb^m) y^m, math.inf when y is 0 or it is
    beyond a double: the least of F(y), the whole sum, and Cauchy's chi(Hilb^m) <= F(rho) rho^-m
    summed from start, F(rho) (y/rho)^start / (1 - y/rho), at rho = sqrt y and at exp(-2 pi /
    sqrt start), the saddle of log F(rho) ~ 4 pi^2 / -log rho, where these lie in (y, 1)."""
    if not 0.0 < y < 1.0:
        return math.inf
    logs = [_log_goettsche(y)]
    if start:
        for rho in (math.sqrt(y), math.exp(-2.0 * math.pi / math.sqrt(start))):
            if y < rho < 1.0:
                logs.append(_log_goettsche(rho) + start * math.log(y / rho)
                            - math.log1p(-y / rho))
    return _exp(min(logs)) * (1.0 + 1e-12)


def _tau_radius(tau, radius) -> tuple[complex, float]:
    """tau through qseries._upper, and radius as a finite float; InputError if negative."""
    tau = _upper(tau)
    radius = _as_number(radius, float)
    if radius < 0:
        raise InputError("radius must be nonnegative")
    return tau, radius


def theta_siegel_narain(lat: EvenLattice, alpha, r: int, tau: complex,
                        split: Splitting, x=None, radius: float = 5.0) -> ThetaSum:
    """Coset theta sum over alpha + r Lambda, alpha read mod r, at majorant norm <= radius^2."""
    tau, radius = _tau_radius(tau, radius)
    r = _at_least(r, 1, "coset step r")
    _as_number(r, float)        # a step beyond the double range is refused here
    alpha = tuple(a % r for a in _as_ints(alpha))
    lat.check_vector(alpha)
    return _theta(alpha, r, tau, radius, split, *_x_forms(lat, split, x))


def _theta(alpha, r: int, tau: complex, radius: float, split: Splitting, qx,
           xnorm: float) -> ThetaSum:
    """theta_siegel_narain on validated input and the _x_forms of its splitting and x."""
    main = []
    shells = [0.0] * GUARD_SHELLS
    for _, j, _, term in _ball(alpha, r, r, tau, split, qx, radius, 1, "theta_siegel_narain"):
        if j:
            shells[j - 1] += abs(term)
        else:
            main.append(term)
    value = complex(math.fsum(t.real for t in main), math.fsum(t.imag for t in main))
    return ThetaSum(value, _shell_tail(shells, split._pivots, r, r, tau, radius, xnorm),
                    len(main))


def _toy_guard(lat: EvenLattice, r) -> int:
    """r as a positive integer, within the sizes the full partition sums accept."""
    r = _at_least(r, 1, "rank")
    if lat.rank > 2 or r > 3:
        raise InputError("full partition sums are limited to rank <= 2 and r <= 3")
    return r


def _a_sums(r: int, qabs: float, start: int) -> float:
    """A bound on sum_a chi_virtual(r, xi, a) |q|^{n/2r}, n = <v^2>, for every xi, over every a
    at start 0, else the a with n / 2 + 1 >= start: a content divisor d adds chi(Hilb^m) / d^2
    at exponent d^2 (m - 1) / r, m = n / 2d^2 + 1 >= start // d^2, one m per a."""
    return reduce(add, [_hilb_tail(y, start // (d * d)) / (d * d * y)
                        if (y := qabs ** (d * d / r)) else math.inf
                        for d in range(1, r + 1) if r % d == 0], 0)


def _direct_table(r: int, n_cut: int, n_top: int, ball, tables: _Tables, key):
    """z_full_direct's tau-independent table, kept under key: the even n from -2r^2 (chi = 0
    below) to n_top, each xi's class ((xi^2), gcd(r, xi)), on which its a-sum depends alone, and
    per class the weights over a, as (n's index, chi/c^2), that land in an exponent bin (with the
    bin first) and those of the main sum, each in ascending a, so a shell adding the binned ones
    first adds them all in the order of a."""
    two_r, ns = 2 * r, range(-2 * r * r, n_top + 1, 2)
    euler = _hilb_table(n_top // 2 + 1)     # so chi / c^2 is below 0.91 of the largest double
    weights = {(n, c): (i, chi / (c * c)) for i, n in enumerate(ns)
               for c in range(1, r + 1) if r % c == 0 and (chi := _chi_scaled(n, c, euler))}
    classes, of_point = {}, []
    for xi, _, s_xi, _ in ball:
        of_point.append(cls := (s_xi, math.gcd(r, *xi)))
        if cls not in classes:
            ws = [(n, w) for a in range(-((n_top - s_xi) // two_r), s_xi // two_r + r + 1)
                  if (w := weights.get((n := s_xi - two_r * a, math.gcd(cls[1], a))))
                  is not None]
            classes[cls] = ([(min(-((n_cut - n) // two_r), EXP_BINS) - 1, *w)
                             for n, w in ws if n > n_cut], [w for n, w in ws if n <= n_cut])
    size = len(of_point) + sum(len(b) + len(m) for b, m in classes.values())
    return tables.keep(key, (ns, classes, of_point), size)


def z_full_direct(lat: EvenLattice, r: int, tau: complex, split: Splitting,
                  x=None, exponent_cutoff: float = 8.0,
                  radius: float = 5.0) -> ZFullSum:
    """Direct truncated sum of the rank-r partition function.

    Sums chi_virtual(v) q^{<v^2>/2r} q^{Q(c1_L^2)/2r} qbar^{-Q(c1_R^2)/2r}
    e(Q(c1, x)) over Mukai vectors v = (r, xi, a) with majorant norm of xi at
    most radius^2 and holomorphic Mukai exponent at most exponent_cutoff.
    """
    r = _toy_guard(lat, r)
    tau, radius = _tau_radius(tau, radius)
    qx, xnorm = _x_forms(lat, split, x)

    # v = (r, xi, a): <v^2> = n = (xi^2) - 2ra, exponent n / 2r; the main sum keeps
    # n <= n_cut, bin j holds n_cut + 2r(j - 1) < n <= n_cut + 2rj; chi = 0 below -2r^2
    two_r = 2 * r
    if (cutoff := _as_number(exponent_cutoff, Fraction)) < -r:
        raise InputError("exponent cutoff below -r: every exponent <v^2>/2r is at least -r")
    n_cut = math.floor(two_r * cutoff)
    n_top = n_cut + two_r * EXP_BINS
    ball = _ball((0,) * lat.rank, 1, r, tau, split, qx, radius,
                 max(1, r + EXP_BINS + 2 + math.ceil(cutoff)), "z_full_direct")
    if n_top // 2 + 1 > CHI_FLOAT_TOP:      # the weight table would end past a double
        raise InputError("a term overflows double precision at this input")
    if (table := split._tables.get(key := (r, n_cut, radius))) is None:
        table = _direct_table(r, n_cut, n_top, ball := list(ball), split._tables, key)
    ns, classes, of_point = table
    es = [_e(tau * n / two_r) for n in ns]      # chi_virtual q^{n/2r}, one exp per n
    classes = {cls: ([(b, f * es[i]) for b, i, f in binned], [f * es[i] for i, f in mains])
               for cls, (binned, mains) in classes.items()}
    main, far = [], 0.0
    hbins = [0.0] * EXP_BINS          # xi in the main ball, exponent beyond cutoff
    xshells = [0.0] * GUARD_SHELLS    # xi beyond the main ball, any exponent
    for (_, j, _, base), cls in zip(ball, of_point, strict=True):
        binned, mains = classes[cls]
        far += abs(base)
        if j:
            xshells[j - 1] = reduce(add, [abs(w * base) for _, w in binned]
                                    + [abs(w * base) for w in mains], xshells[j - 1])
        else:
            for b, w in binned:
                hbins[b] += abs(w * base)
            main += [w * base for w in mains]
    value = complex(math.fsum(t.real for t in main), math.fsum(t.imag for t in main))

    # the bins exactly, every xi of the ball past n_top (an even n: n / 2 + 1 >= n_top // 2 + 2)
    # by its a-sum past n_top, and every xi past the ball by its whole a-sum
    qabs = abs(cmath.exp(2j * cmath.pi * tau))     # not 0: e(-r tau), at n = -2r^2, is finite
    return ZFullSum(value, math.fsum(hbins) + _a_sums(r, qabs, n_top // 2 + 2) * far
                    + _shell_tail(xshells, split._pivots, 1, r, tau, radius, xnorm,
                                  _a_sums(r, qabs, 0)), len(main))


def z_full_factorized(lat: EvenLattice, r: int, tau: complex, split: Splitting,
                      x=None, series_order=12, radius: float = 5.0) -> ZFullSum:
    """Coset factorization sum_alpha Z_r^alpha(tau) Theta_{alpha,r}(tau, P, x), each Z_r^alpha
    below q^series_order; the tail adds |Z_r^alpha| times the theta tail and, times |Theta| plus
    that tail, _a_sums' bound on the a omitted, those with n = <v^2> >= 2r series_order."""
    r = _toy_guard(lat, r)
    tau, radius = _tau_radius(tau, radius)
    order = _as_number(series_order, Fraction)      # z_psu_direct's first check
    qx, xnorm = _x_forms(lat, split, x)
    # per class ((alpha^2), gcd(r, alpha)), on which Z_r^alpha depends alone, z_psu_direct's
    # work count and series, kept once the sum is done
    kept = split._tables.get(key := (r, order))
    series, zs, value, z_tail, weight, points = kept or {}, {}, 0j, 0.0, 0.0, 0  # zs: Z_r^alpha
    for alpha in product(range(r), repeat=lat.rank):
        if (cls := (lat._bilinear(alpha, alpha), math.gcd(r, *alpha))) not in zs:
            if cls not in series:
                series[cls] = len(_a_span(r, cls[0], order)), z_psu_direct(r, alpha, order, lat)
            check_work(series[cls][0], "z_psu_direct")
            zs[cls] = qs_evaluate(series[cls][1], tau).value
        th = _theta(alpha, r, tau, radius, split, qx, xnorm)
        value += zs[cls] * th.value
        z_tail += abs(zs[cls]) * th.tail
        weight += abs(th.value) + th.tail
        points += th.points
    if kept is None:
        split._tables.keep(key, series, sum(len(s.coeffs) for _, s in series.values()))
    # every class omits the a with n >= 2r order, so n / 2 + 1 >= ceil(r order) + 1; bounded
    # after the loop, whose work check refuses an order too large for a float, at |q| alone
    bound = _a_sums(r, math.exp(-2 * math.pi * tau.imag), max(0, math.ceil(r * order) + 1))
    # not 0 * inf = nan for a zero series or theta
    tail = math.inf if math.inf in (bound, weight) else z_tail + bound * weight
    return ZFullSum(value, tail, points)
