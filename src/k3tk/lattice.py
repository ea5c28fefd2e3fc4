"""Even lattices and Mukai vectors, with the exact Mukai pairing.

The surface is modeled by an even lattice: a symmetric integer Gram matrix G
with even diagonal, the matrix of the intersection form on the degree-2 part
in a fixed integral basis.  A Mukai vector (r, c1, a) collects the H^0, H^2
and H^4 components of an element of the full cohomology ring, with c1 written
in the lattice basis and the H^4 part measured against the point class omega.

Sign convention, fixed here once for the whole package: G is the intersection
form.  The quadratic form Q used by the theta machinery (k3tk.theta) is -G;
every theta exponent references Q explicitly so the sign cannot drift.

Everything in this module is plain integer arithmetic, hence exact, and all
types are immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import add, mul, neg

from .errors import InputError


def _as_int(x) -> int:
    """Strict integer coercion at an input boundary: rejects bools and non-integers."""
    if type(x) is int:
        return x
    try:
        if not isinstance(x, bool) and int(x) == x:
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InputError(f"expected an integer, got {x!r}")


_INT = frozenset((int,))


def _as_ints(xs) -> tuple[int, ...]:
    """_as_int over a sequence: a lattice vector or one row of a matrix."""
    try:
        xs = tuple(xs)
    except TypeError as exc:
        raise InputError(f"expected a list of integers, got {xs!r}") from exc
    return xs if _INT.issuperset(map(type, xs)) else tuple(map(_as_int, xs))


def _as_matrix(rows) -> tuple[tuple[int, ...], ...]:
    """_as_ints over the rows of an integer matrix."""
    try:
        return tuple(map(_as_ints, rows))
    except TypeError as exc:
        raise InputError(f"expected a matrix of integers, got {rows!r}") from exc


@dataclass(frozen=True)
class EvenLattice:
    """Integral even symmetric bilinear form given by its Gram matrix."""

    gram: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = _as_matrix(self.gram)
        object.__setattr__(self, "gram", rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise InputError("gram matrix must be square")
        for i in range(n):
            if rows[i][i] % 2 != 0:
                raise InputError("gram matrix must have even diagonal")
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise InputError("gram matrix must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.gram)

    def bilinear(self, x, y) -> int:
        """x^T G y for integer coordinate vectors."""
        self.check_vector(x)
        self.check_vector(y)
        return self._bilinear(x, y)

    def _bilinear(self, x, y) -> int:
        """bilinear for vectors already known to have the lattice's rank."""
        return sum(map(mul, x, [sum(map(mul, row, y)) for row in self.gram]))

    def quad(self, x) -> int:
        """Self-intersection (x^2) = x^T G x; always even."""
        return self.bilinear(x, x)

    def check_vector(self, x) -> None:
        if len(x) != len(self.gram):
            raise InputError(
                f"vector of length {len(x)} does not match lattice rank {self.rank}")

    def to_json(self) -> dict:
        return {"rank": self.rank, "gram": [list(row) for row in self.gram]}

    @classmethod
    def from_json(cls, doc: dict) -> "EvenLattice":
        try:
            gram = doc["gram"]
        except (TypeError, KeyError) as exc:
            raise InputError("lattice JSON must contain a 'gram' matrix") from exc
        lat = cls(gram)
        if "rank" in doc and _as_int(doc["rank"]) != lat.rank:
            raise InputError("declared rank does not match gram matrix size")
        return lat


@dataclass(frozen=True)
class MukaiVector:
    """Integral triple (r, c1, a) in H^0 + H^2 + H^4.

    The constructor coerces every component strictly to int.  Arithmetic on
    vectors builds its results with the trusted constructor _mukai instead,
    since sums and multiples of integers need no second check.
    """

    r: int
    c1: tuple[int, ...]
    a: int

    def __post_init__(self):
        object.__setattr__(self, "r", _as_int(self.r))
        object.__setattr__(self, "c1", _as_ints(self.c1))
        object.__setattr__(self, "a", _as_int(self.a))

    def __add__(self, other: "MukaiVector") -> "MukaiVector":
        if len(self.c1) != len(other.c1):
            raise InputError("cannot add Mukai vectors of different c1 length")
        return _mukai(self.r + other.r, tuple(map(add, self.c1, other.c1)),
                      self.a + other.a)

    def __sub__(self, other: "MukaiVector") -> "MukaiVector":
        return self + (-other)

    def __neg__(self) -> "MukaiVector":
        return _mukai(-self.r, tuple(map(neg, self.c1)), -self.a)

    def __rmul__(self, n: int) -> "MukaiVector":
        n = _as_int(n)
        return _mukai(n * self.r, tuple([n * x for x in self.c1]), n * self.a)

    __mul__ = __rmul__

    def divided(self, n: int) -> "MukaiVector":
        """Exact division by an integer dividing every component."""
        n = _as_int(n)
        if n == 0 or self.r % n or self.a % n or any(x % n for x in self.c1):
            raise InputError(f"{n} does not divide every component")
        return _mukai(self.r // n, tuple([x // n for x in self.c1]), self.a // n)

    def to_json(self) -> dict:
        return {"r": self.r, "c1": list(self.c1), "a": self.a}

    @classmethod
    def from_json(cls, doc: dict) -> "MukaiVector":
        try:
            return cls(doc["r"], doc["c1"], doc["a"])
        except (TypeError, KeyError) as exc:
            raise InputError("Mukai vector JSON must contain 'r', 'c1', 'a'") from exc

    @classmethod
    def omega(cls, rank: int) -> "MukaiVector":
        """The point class (0, 0, 1)."""
        return cls(0, (0,) * rank, 1)


_new = object.__new__
_set = object.__setattr__


def _mukai(r: int, c1: tuple[int, ...], a: int) -> MukaiVector:
    """Trusted constructor: the components are already exact ints, so skip coercion."""
    v = _new(MukaiVector)
    _set(v, "r", r)
    _set(v, "c1", c1)
    _set(v, "a", a)
    return v


def mukai_pairing(x: MukaiVector, y: MukaiVector, lat: EvenLattice) -> int:
    """<x, y> = (c1(x).c1(y)) - r(x) a(y) - a(x) r(y)."""
    n = len(lat.gram)
    if len(x.c1) != n or len(y.c1) != n:
        raise InputError(f"Mukai vectors do not match lattice rank {n}")
    return lat._bilinear(x.c1, y.c1) - x.r * y.a - x.a * y.r


def mukai_from_chern(r: int, c1, ch2: int, lat: EvenLattice) -> MukaiVector:
    """Mukai vector of Chern data (r, c1, ch2): the H^4 part is r + ch2."""
    v = MukaiVector(r, c1, _as_int(r) + _as_int(ch2))
    lat.check_vector(v.c1)
    return v


def dual(v: MukaiVector) -> MukaiVector:
    """(r, c1, a) -> (r, -c1, a); an involution preserving the pairing."""
    return _mukai(v.r, tuple(map(neg, v.c1)), v.a)


def ell(v: MukaiVector, lat: EvenLattice | None = None) -> int:
    """gcd of the rank and the c1 coordinates (0 when both vanish).

    The c1 gcd is the content of the coordinate vector; for integral bases
    this is basis-independent.
    """
    if lat is not None:
        lat.check_vector(v.c1)
    return gcd(v.r, *v.c1)


def content(v: MukaiVector) -> int:
    """gcd of all components of v."""
    return gcd(v.r, v.a, *v.c1)


def primitive(v: MukaiVector, lat: EvenLattice | None = None) -> bool:
    """True iff v is not a proper integer multiple of an integral vector."""
    if lat is not None:
        lat.check_vector(v.c1)
    return content(v) == 1


def square(v: MukaiVector, lat: EvenLattice) -> int:
    """<v, v>; even for an even lattice."""
    return mukai_pairing(v, v, lat)
