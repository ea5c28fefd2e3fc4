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

Every predicate reads one record per vector and lattice: <v^2> and the case
split (l, CaseInfo) are computed once and kept in the vector's _memo slot (see
k3tk.lattice), so asking all of them about one v costs one Mukai pairing.
"""

from __future__ import annotations

from .errors import InputError
from .lattice import (EvenLattice, MukaiVector, Value, _mukai, _require_positive_rank, _set,
                      content, ell, square)
from .qseries import hilb_euler

RANK_ONE = "rank_one"
REFL_POINT = "refl_point"
UNIV_EXT = "univ_ext"
HAS_LOCALLY_FREE = "has_locally_free"


def _square(v: MukaiVector, lat: EvenLattice, nonempty: bool = True) -> int:
    """<v^2> of v after the checks, in this order: positive rank, c1 length,
    primitive and, when nonempty, <v^2> >= -2 (a non-empty moduli space)."""
    _require_positive_rank(v)
    sq = square(v, lat)
    if content(v) != 1:
        raise InputError("Mukai vector must be primitive")
    if nonempty and sq < -2:
        raise InputError("moduli space is empty: <v^2> < -2")
    return sq


def exists_stable_primitive(v: MukaiVector, lat: EvenLattice) -> bool:
    """Non-emptiness of the stable moduli space: <v^2> >= -2."""
    return _square(v, lat, nonempty=False) >= -2


def exists_semistable(v: MukaiVector, lat: EvenLattice) -> bool:
    """Non-emptiness of the semistable moduli space for arbitrary v.

    True iff v = n w for some integer n >= 1 with <w^2> >= -2.  As
    <w^2> = <v^2>/n^2 only moves toward 0 as n grows, n = content(v) decides.
    """
    _require_positive_rank(v)
    c = content(v)
    return square(v, lat) // (c * c) >= -2


def moduli_dim(v: MukaiVector, lat: EvenLattice) -> int:
    """dim M(v) = <v^2> + 2 for primitive v with <v^2> >= -2."""
    return _square(v, lat) + 2


class CaseInfo(Value):
    __slots__ = ("case", "v0")

    def __init__(self, case: str, v0: MukaiVector | None):
        _set(self, "case", case)    # "A" or "B"
        _set(self, "v0", v0)        # the (-2)-witness r + xi + b omega, case B only


def _case(v: MukaiVector, lat: EvenLattice) -> tuple[int, CaseInfo]:
    """(l, case) for a positive-rank v, kept beside <v^2> in v._memo.

    l = gcd(rank, c1) and v = l(r + xi) + a omega with r + xi primitive, so
    (xi^2) = (<v^2> + 2 rank(v) a) / l^2 exactly.
    """
    sq = square(v, lat)
    memo = v._memo
    if memo[0] is lat.gram and memo[2] is not None:
        return memo[2]
    l = ell(v)
    r = v.r // l
    xi_sq = (sq + 2 * v.r * v.a) // (l * l)
    if (xi_sq + 2) % (2 * r) == 0:
        xi = tuple([x // l for x in v.c1])
        case = l, CaseInfo("B", _mukai(r, xi, (xi_sq + 2) // (2 * r)))
    else:
        case = l, CaseInfo("A", None)
    _set(v, "_memo", (lat.gram, sq, case))
    return case


def classify_case(v: MukaiVector, lat: EvenLattice) -> CaseInfo:
    _require_positive_rank(v)
    return _case(v, lat)[1]


def exists_mu_stable(v: MukaiVector, lat: EvenLattice) -> bool:
    """Existence of mu-stable members: <v^2> >= 0 (case A) or >= 2 l^2 (case B)."""
    sq = _square(v, lat)
    l, info = _case(v, lat)
    if info.case == "A":
        return sq >= 0
    return sq >= 2 * l ** 2


def mu_stable_boundary_flag(v: MukaiVector, lat: EvenLattice) -> bool:
    """Flags the case-B corner l = 1, <v^2> = -2 (rigid bundles on the boundary)."""
    _require_positive_rank(v)
    sq = square(v, lat)
    l, info = _case(v, lat)
    return info.case == "B" and l == 1 and sq == -2


class NonLocallyFree(Value):
    __slots__ = ("kind", "model")

    def __init__(self, kind: str, model: str | None):
        _set(self, "kind", kind)
        _set(self, "model", model)


def classify_non_locally_free(v: MukaiVector, lat: EvenLattice) -> NonLocallyFree:
    """Detect the vectors whose moduli consist of non-locally-free sheaves.

    The three patterns, with v0 the case-B witness: (i) rank 1;
    (ii) v = (rk v0) v0 - omega, moduli a copy of the surface; (iii) rk v0 = 1
    and v = l v0 - (l+1) omega, moduli the Hilbert scheme of l+1 points.
    Everything else contains locally free members.
    """
    sq = _square(v, lat)
    if v.r == 1:
        return NonLocallyFree(RANK_ONE, f"Hilb^{sq // 2 + 1}")
    l, info = _case(v, lat)
    if info.case == "B":
        v0 = info.v0
        if l == v0.r and v.a == v0.r * v0.a - 1:
            return NonLocallyFree(REFL_POINT, "X")
        if v0.r == 1 and v.a == l * v0.a - (l + 1):
            return NonLocallyFree(UNIV_EXT, f"Hilb^{l + 1}")
    return NonLocallyFree(HAS_LOCALLY_FREE, None)


def hilb_index(v: MukaiVector, lat: EvenLattice) -> int:
    """<v^2>/2 + 1, the number of points of the reference Hilbert scheme."""
    return _square(v, lat) // 2 + 1


def euler_characteristic(v: MukaiVector, lat: EvenLattice) -> int:
    """chi of the moduli space: the Goettsche coefficient at <v^2>/2 + 1."""
    return hilb_euler(hilb_index(v, lat))
