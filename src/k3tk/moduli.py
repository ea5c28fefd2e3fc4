"""Moduli-space invariants of a Mukai vector, as decidable predicates.

All predicates assume a polarization that is general for the vector (away
from every wall), so no ample divisor is taken as input; rank-0 vectors are
rejected everywhere.

Per deformation invariance, the Betti/Hodge data of the moduli space match
those of the Hilbert scheme of <v^2>/2 + 1 points; only the Euler
characteristic is computed here.

Case split for v = l(r + xi) + a omega with l = gcd(rank, c1):
case B when there is a (-2)-vector of the shape r + xi + b omega, i.e. when
2r divides (xi^2) + 2; case A otherwise.  The mu-stability criterion is
<v^2> >= 0 in case A and <v^2> >= 2 l^2 in case B.  The case-B bound is
applied verbatim even at the corner l = 1, <v^2> = -2, where rigid mu-stable
bundles (the structure sheaf) sit on the boundary; mu_stable_boundary_flag
marks that corner.

Every predicate reads one record per vector and lattice, (<v^2>, content(v), l,
CaseInfo), which _record computes once and keeps in the vector's _memo slot,
keyed by the identity of the lattice's Gram tuple (held, so the identity cannot
be reused); an equal but distinct lattice, or a new vector from the same
components, simply recomputes.  _record is the only code that reads or writes
_memo, so asking all of them about one v costs one Mukai pairing.  The record is
read and replaced whole, so two threads sharing a vector at worst recompute.
An answer whose fields are constants (case A, a copy of the surface, locally
free members) is one shared record, built at import: a Value is immutable and
compares by its fields, so sharing it is indistinguishable from a fresh one.

The integer invariants live here, so that reading them needs no Fraction.
chi(Hilb^n) is the coefficient of q^n in prod_{m>=1} (1 - q^m)^(-24) = h^(-8),
where h = prod_m (1 - q^m)^3 = sum_{j>=0} (-1)^j (2j+1) q^(j(j+1)/2) by Jacobi's
identity is nonzero only at the triangular numbers k.  J.C.P. Miller's recurrence
for a power of a series (Knuth, TAOCP vol. 2, 4.7) gives n c(n) = -sum_k (7k + n)
h_k c(n - k): at most T(n) = (isqrt(8n + 1) - 1) // 2 big-integer products per
exact integer c(n) (a nonzero remainder is a ConsistencyError), so the cached
table through n, _hilb_table, costs (n + 1) T(n), which errors.check_work bounds,
cold or warm, so every path that needs the same entries is refused at the same index.
The test suite checks it against the divisor-sum recurrence of the
logarithmic derivative and an independent 24-colored-partition dynamic program.
chi(Hilb^n) = 0 for n < 0 by convention; the virtual Euler characteristic
(k3tk.partitions) relies on this, and its integer kernel, _chi_virtual_scaled,
is here too.
"""

from __future__ import annotations

from math import gcd, isqrt

from .errors import ConsistencyError, InputError, check_work
from .lattice import (EvenLattice, MukaiVector, Value, _at_least, _expect, _mukai, _set,
                      mukai_pairing)

RANK_ONE = "rank_one"
REFL_POINT = "refl_point"
UNIV_EXT = "univ_ext"
HAS_LOCALLY_FREE = "has_locally_free"


class CaseInfo(Value):
    # case "A" or "B"; v0 the (-2)-witness r + xi + b omega, case B only (else None)
    __slots__ = ("case", "v0")


_CASE_A = CaseInfo("A", None)


def _record(v: MukaiVector, lat: EvenLattice) -> tuple[int, int, int, CaseInfo]:
    """(<v^2>, content(v), l, case) of v against lat, after the checks, in this order:
    positive rank, c1 length; computed once and kept in v._memo (module docstring).
    v.r is the int the MukaiVector constructors guarantee, so the rank is compared as it
    is, and _at_least runs only to raise its message.

    l = gcd(rank, c1) and v = l(r + xi) + a omega with r + xi primitive, so
    (xi^2) = (<v^2> + 2 rank(v) a) / l^2 exactly.
    """
    try:
        memo = v._memo
        if memo is not None and memo[0] is lat.gram:
            return memo[1]
    except AttributeError:      # a foreign operand; the check costs the valid call nothing
        _expect(MukaiVector, v)
        _expect(EvenLattice, lat)
        raise
    if v.r < 1:
        _at_least(v.r, 1, "rank")
    sq = mukai_pairing(v, v, lat)
    l = gcd(v.r, *v.c1)     # ell(v), and content(v) = gcd(l, a) below
    r = v.r // l
    xi_sq = (sq + 2 * v.r * v.a) // (l * l)
    if (xi_sq + 2) % (2 * r) == 0:
        xi = tuple([x // l for x in v.c1])
        info = CaseInfo("B", _mukai(r, xi, (xi_sq + 2) // (2 * r)))
    else:
        info = _CASE_A
    record = sq, gcd(l, v.a), l, info
    _set(v, "_memo", (lat.gram, record))
    return record


def _primitive_record(v: MukaiVector, lat: EvenLattice,
                      nonempty: bool = True) -> tuple[int, int, int, CaseInfo]:
    """_record(v, lat) after the checks, in this order: positive rank, c1 length,
    primitive and, when nonempty, <v^2> >= -2 (a non-empty moduli space)."""
    record = _record(v, lat)
    if record[1] != 1:
        raise InputError("Mukai vector must be primitive")
    if nonempty and record[0] < -2:
        raise InputError("moduli space is empty: <v^2> < -2")
    return record


def exists_stable_primitive(v: MukaiVector, lat: EvenLattice) -> bool:
    """Non-emptiness of the stable moduli space: <v^2> >= -2."""
    return _primitive_record(v, lat, nonempty=False)[0] >= -2


def exists_semistable(v: MukaiVector, lat: EvenLattice) -> bool:
    """Non-emptiness of the semistable moduli space for arbitrary v.

    True iff v = n w for some integer n >= 1 with <w^2> >= -2.  As
    <w^2> = <v^2>/n^2 only moves toward 0 as n grows, n = content(v) decides.
    """
    sq, c, _, _ = _record(v, lat)
    return sq // (c * c) >= -2


def moduli_dim(v: MukaiVector, lat: EvenLattice) -> int:
    """dim M(v) = <v^2> + 2 for primitive v with <v^2> >= -2."""
    return _primitive_record(v, lat)[0] + 2


def classify_case(v: MukaiVector, lat: EvenLattice) -> CaseInfo:
    return _record(v, lat)[3]


def exists_mu_stable(v: MukaiVector, lat: EvenLattice) -> bool:
    """Existence of mu-stable members: <v^2> >= 0 (case A) or >= 2 l^2 (case B)."""
    sq, _, l, info = _primitive_record(v, lat)
    if info.case == "A":
        return sq >= 0
    return sq >= 2 * l ** 2


def mu_stable_boundary_flag(v: MukaiVector, lat: EvenLattice) -> bool:
    """Flags the case-B corner l = 1, <v^2> = -2 (rigid bundles on the boundary)."""
    sq, _, l, info = _record(v, lat)
    return info.case == "B" and l == 1 and sq == -2


class NonLocallyFree(Value):
    __slots__ = ("kind", "model")


_LOCALLY_FREE = NonLocallyFree(HAS_LOCALLY_FREE, None)
_SURFACE = NonLocallyFree(REFL_POINT, "X")


def classify_non_locally_free(v: MukaiVector, lat: EvenLattice) -> NonLocallyFree:
    """Detect the vectors whose moduli consist of non-locally-free sheaves.

    The three patterns, with v0 the case-B witness: (i) rank 1;
    (ii) v = (rk v0) v0 - omega, moduli a copy of the surface; (iii) rk v0 = 1
    and v = l v0 - (l+1) omega, moduli the Hilbert scheme of l+1 points.
    Everything else contains locally free members.
    """
    sq, _, l, info = _primitive_record(v, lat)
    if v.r == 1:
        return NonLocallyFree(RANK_ONE, f"Hilb^{sq // 2 + 1}")
    if info.case == "B":
        v0 = info.v0
        if l == v0.r and v.a == v0.r * v0.a - 1:
            return _SURFACE
        if v0.r == 1 and v.a == l * v0.a - (l + 1):
            return NonLocallyFree(UNIV_EXT, f"Hilb^{l + 1}")
    return _LOCALLY_FREE


def hilb_index(v: MukaiVector, lat: EvenLattice) -> int:
    """<v^2>/2 + 1, the number of points of the reference Hilbert scheme."""
    return _primitive_record(v, lat)[0] // 2 + 1


def euler_characteristic(v: MukaiVector, lat: EvenLattice) -> int:
    """chi of the moduli space: the Goettsche coefficient at <v^2>/2 + 1."""
    n = hilb_index(v, lat)
    return _hilb_table(n)[n]


_hilb_euler: list[int] = [1]


def _hilb_table(n: int) -> list[int]:
    """The table of chi(Hilb^m), grown through m = n by Miller's recurrence (module
    docstring); loops read it after one call, and read m < 0 as 0."""
    c = _hilb_euler
    if n >= len(c):
        top = (isqrt(8 * n + 1) - 1) // 2      # T(n): no entry up to n reads more h_k
        check_work((n + 1) * top, "hilb_euler")     # the whole table's cost, cold or warm
        tri = [(j * (j + 1) // 2, (-1) ** j * (2 * j + 1)) for j in range(1, top + 1)]
        for m in range(len(c), n + 1):
            s = 0
            for k, h in tri:
                if k > m:
                    break
                s -= (7 * k + m) * h * c[m - k]
            entry, rest = divmod(s, m)
            if rest:
                raise ConsistencyError(f"chi(Hilb^{m}) is not an integer")
            c.append(entry)
    return c


def _chi_scaled(sq: int, c: int, euler: list[int]) -> int:
    """c^2 chi_virtual(v), an exact integer, from <v^2> = sq, c = content(v) and the
    chi(Hilb^m) table euler, grown through m = sq // 2 + 1 (_hilb_table)."""
    if c == 1:
        return euler[m] if (m := sq // 2 + 1) >= 0 else 0
    return sum(euler[m] * (c // a) ** 2 for a in range(1, c + 1)
               if c % a == 0 and (m := sq // (2 * a * a) + 1) >= 0)


def _chi_virtual_scaled(v: MukaiVector, lat: EvenLattice) -> tuple[int, int]:
    """(c^2 chi_virtual(v), c^2) for c = content(v), from v's record; the work check on c
    runs between the positive-rank and c1 length checks.  Both callers (partitions.chi_virtual
    and the CLI) pass a checked MukaiVector, so c is read without content's second check."""
    if v.r > 0:
        check_work(gcd(v.r, *v.c1, v.a), "chi_virtual")     # content(v): a scan of each a <= c
    sq, c, _, _ = _record(v, lat)
    return _chi_scaled(sq, c, _hilb_table(sq // 2 + 1)), c * c
