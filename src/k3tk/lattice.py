"""Even lattices and Mukai vectors, with the exact Mukai pairing.

The surface is modeled by an even lattice: a symmetric integer Gram matrix G
with even diagonal, the matrix of the intersection form on the degree-2 part
in a fixed integral basis.  A Mukai vector (r, c1, a) collects the H^0, H^2
and H^4 components of an element of the full cohomology ring, with c1 written
in the lattice basis and the H^4 part measured against the point class omega.

Sign convention, fixed here once for the whole package: G is the intersection
form.  The quadratic form Q used by the theta machinery (k3tk.theta) is -G;
every theta exponent references Q explicitly so the sign cannot drift.

Everything in this module is plain integer arithmetic, hence exact.  User
input is checked at the boundary, once, by the helpers here, each fault with
one message for the whole package: _as_int, _as_ints and _as_matrix read
strict integers, _as_number reads any number as a finite Fraction, float or
complex, _at_least refuses one below 0 or 1 (a rank, order, bound or power),
and EvenLattice.check_vector reports a vector of the wrong length.  The
package's value classes derive from Value, defined here: an immutable record
whose fields are its __slots__, which its own __init__ assigns once with _set.
MukaiVector._memo is the one underscore slot: the two constructors start it
empty, and k3tk.moduli alone reads and writes it, keeping there the record of
the last lattice v was read against (see that module); it lives as long as v.
"""

from __future__ import annotations

from math import gcd, isfinite
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


def _as_number(x, kind):
    """kind(x), kind Fraction, float or complex, at an input boundary: InputError unless x
    is a number and the result is finite (a Fraction always is)."""
    try:
        y = kind(x)
        if kind not in (float, complex) or isfinite(y.real) and isfinite(y.imag):
            return y
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        pass
    raise InputError(f"expected a finite number, got {x!r}")


def _at_least(x, lo: int, what: str) -> int:
    """_as_int, refused below lo (0 or 1): the one check of a rank, order, bound or power."""
    x = _as_int(x)
    if x < lo:
        raise InputError(f"{what} must be nonnegative" if lo == 0
                         else f"{what} must be at least {lo}")
    return x


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


_new = object.__new__
_set = object.__setattr__


def _positional_init(qualname: str, fields: tuple[str, ...]):
    """__init__(self, *fields), setting each field once, written out as a hand-written one
    would be: a loop over the names costs about twice as much per construction."""
    body = "".join(f"\n    _set(self, {name!r}, {name})" for name in fields) or "\n    pass"
    scope = {"_set": _set}
    exec(f"def __init__(self{''.join(', ' + name for name in fields)}):{body}", scope)
    init = scope["__init__"]
    init.__qualname__ = f"{qualname}.__init__"
    init.fields = fields
    return init


class Value:
    """Immutable record whose fields are the public names in its __slots__.

    Equality (same class only), hashing, repr and pickling go by the tuple of
    fields.  A class that writes no __init__ of its own (nor inherits one) takes
    its fields positionally, through an __init__ generated for them.  An
    underscore slot holds state outside the value.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields += tuple(n for n in cls.__dict__.get("__slots__", ()) if n[0] != "_")
        if getattr(cls.__init__, "fields", cls._fields) != cls._fields:
            cls.__init__ = _positional_init(cls.__qualname__, cls._fields)

    __init__ = _positional_init("Value", ())

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is immutable")

    __delattr__ = __setattr__


class EvenLattice(Value):
    """Integral even symmetric bilinear form given by its Gram matrix."""

    __slots__ = ("gram",)

    def __init__(self, gram):
        rows = _as_matrix(gram)
        _set(self, "gram", rows)
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
        """x^T G y for integer coordinate vectors, each read strictly (_as_ints)."""
        x = _as_ints(x)
        self.check_vector(x)
        y = _as_ints(y)
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


class MukaiVector(Value):
    """Integral triple (r, c1, a) in H^0 + H^2 + H^4.

    The constructor coerces every component strictly to int.  Arithmetic on
    vectors builds its results with the trusted constructor _mukai instead,
    since sums and multiples of integers need no second check.  Both start
    _memo empty (see the module docstring).
    """

    __slots__ = ("r", "c1", "a", "_memo")

    def __init__(self, r, c1, a):
        _set(self, "r", _as_int(r))
        _set(self, "c1", _as_ints(c1))
        _set(self, "a", _as_int(a))
        _set(self, "_memo", None)

    def __add__(self, other: "MukaiVector") -> "MukaiVector":
        if not isinstance(other, MukaiVector):
            return NotImplemented
        if len(self.c1) != len(other.c1):
            raise InputError("cannot add Mukai vectors of different c1 length")
        return _mukai(self.r + other.r, tuple(map(add, self.c1, other.c1)),
                      self.a + other.a)

    def __sub__(self, other: "MukaiVector") -> "MukaiVector":
        return self + (-other) if isinstance(other, MukaiVector) else NotImplemented

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
        """The point class (0, 0, 1) of a lattice of the given rank."""
        return cls(0, (0,) * _at_least(rank, 0, "rank"), 1)


def _mukai(r: int, c1: tuple[int, ...], a: int) -> MukaiVector:
    """Trusted constructor: the components are already exact ints, so skip coercion."""
    v = _new(MukaiVector)
    _set(v, "r", r)
    _set(v, "c1", c1)
    _set(v, "a", a)
    _set(v, "_memo", None)
    return v


def mukai_pairing(x: MukaiVector, y: MukaiVector, lat: EvenLattice) -> int:
    """<x, y> = (c1(x).c1(y)) - r(x) a(y) - a(x) r(y)."""
    n = len(lat.gram)
    if len(x.c1) != n or len(y.c1) != n:
        lat.check_vector(x.c1)
        lat.check_vector(y.c1)
    return lat._bilinear(x.c1, y.c1) - x.r * y.a - x.a * y.r


def mukai_from_chern(r: int, c1, ch2: int, lat: EvenLattice) -> MukaiVector:
    """Mukai vector of Chern data (r, c1, ch2): the H^4 part is r + ch2."""
    v = MukaiVector(r, c1, _as_int(r) + _as_int(ch2))
    lat.check_vector(v.c1)
    return v


def dual(v: MukaiVector) -> MukaiVector:
    """(r, c1, a) -> (r, -c1, a); an involution preserving the pairing."""
    return _mukai(v.r, tuple(map(neg, v.c1)), v.a)


def ell(v: MukaiVector) -> int:
    """gcd of the rank and the c1 coordinates (0 when both vanish).

    The c1 gcd is the content of the coordinate vector; for integral bases
    this is basis-independent.
    """
    return gcd(v.r, *v.c1)


def content(v: MukaiVector) -> int:
    """gcd of all components of v."""
    return gcd(v.r, v.a, *v.c1)


def primitive(v: MukaiVector) -> bool:
    """True iff v is not a proper integer multiple of an integral vector."""
    return content(v) == 1


def square(v: MukaiVector, lat: EvenLattice) -> int:
    """<v, v>; even for an even lattice."""
    return mukai_pairing(v, v, lat)
