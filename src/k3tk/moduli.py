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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .lattice import EvenLattice, MukaiVector, _mukai, content, ell, square
from .qseries import hilb_euler

RANK_ONE = "rank_one"
REFL_POINT = "refl_point"
UNIV_EXT = "univ_ext"
HAS_LOCALLY_FREE = "has_locally_free"


def _require_positive_rank(v: MukaiVector) -> None:
    if v.r <= 0:
        raise InputError("rank must be positive (rank-0 theory is out of scope)")


def _primitive_square(v: MukaiVector, lat: EvenLattice) -> int:
    """Validate a positive-rank primitive v once and return <v^2>."""
    _require_positive_rank(v)
    sq = square(v, lat)
    if content(v) != 1:
        raise InputError("Mukai vector must be primitive")
    return sq


def _nonempty_square(v: MukaiVector, lat: EvenLattice) -> int:
    """<v^2> of a valid primitive v whose stable moduli space is non-empty."""
    sq = _primitive_square(v, lat)
    if sq < -2:
        raise InputError("moduli space is empty: <v^2> < -2")
    return sq


def exists_stable_primitive(v: MukaiVector, lat: EvenLattice) -> bool:
    """Non-emptiness of the stable moduli space: <v^2> >= -2."""
    return _primitive_square(v, lat) >= -2


def exists_semistable(v: MukaiVector, lat: EvenLattice) -> bool:
    """Non-emptiness of the semistable moduli space for arbitrary v.

    True iff v = n w for some integer n >= 1 with <w^2> >= -2; implemented
    as a divisor scan over the content of v, with <w^2> = <v^2>/n^2.
    """
    _require_positive_rank(v)
    sq = square(v, lat)
    c = content(v)
    return any(sq // (n * n) >= -2 for n in range(1, c + 1) if c % n == 0)


def moduli_dim(v: MukaiVector, lat: EvenLattice) -> int:
    """dim M(v) = <v^2> + 2 for primitive v with <v^2> >= -2."""
    return _nonempty_square(v, lat) + 2


@dataclass(frozen=True)
class CaseInfo:
    case: str                      # "A" or "B"
    v0: MukaiVector | None         # the (-2)-witness r + xi + b omega, case B only


def _case(v: MukaiVector, lat: EvenLattice) -> tuple[int, CaseInfo]:
    """(l, case) for a positive-rank v already checked against lat.

    l = gcd(rank, c1) and v = l(r + xi) + a omega with r + xi primitive.
    """
    l = ell(v)
    r = v.r // l
    xi = tuple([x // l for x in v.c1])
    xi_sq = lat._bilinear(xi, xi)
    if (xi_sq + 2) % (2 * r) == 0:
        return l, CaseInfo("B", _mukai(r, xi, (xi_sq + 2) // (2 * r)))
    return l, CaseInfo("A", None)


def classify_case(v: MukaiVector, lat: EvenLattice) -> CaseInfo:
    _require_positive_rank(v)
    lat.check_vector(v.c1)
    return _case(v, lat)[1]


def exists_mu_stable(v: MukaiVector, lat: EvenLattice) -> bool:
    """Existence of mu-stable members: <v^2> >= 0 (case A) or >= 2 l^2 (case B)."""
    sq = _nonempty_square(v, lat)
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


@dataclass(frozen=True)
class NonLocallyFree:
    kind: str
    model: str | None


def classify_non_locally_free(v: MukaiVector, lat: EvenLattice) -> NonLocallyFree:
    """Detect the vectors whose moduli consist of non-locally-free sheaves.

    The three patterns, with v0 the case-B witness: (i) rank 1;
    (ii) v = (rk v0) v0 - omega, moduli a copy of the surface; (iii) rk v0 = 1
    and v = l v0 - (l+1) omega, moduli the Hilbert scheme of l+1 points.
    Everything else contains locally free members.
    """
    sq = _nonempty_square(v, lat)
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
    return _nonempty_square(v, lat) // 2 + 1


def euler_characteristic(v: MukaiVector, lat: EvenLattice) -> int:
    """chi of the moduli space: the Goettsche coefficient at <v^2>/2 + 1."""
    return hilb_euler(hilb_index(v, lat))
