"""Generators of the Mukai-lattice isometry group, applied as words.

Three generator families act on Mukai vectors:

  * Translate(N), N in the surface lattice:  x -> ch(N) x, the cup product
    with 1 + N + (N^2)/2 omega;
  * NSAuto(M), M an automorphism of the surface lattice (M^T G M = G and
    det M = +-1), acting on the c1 component only;
  * Reflect(u), u a (-2)-vector:  x -> x + <x, u> u.

Negate (x -> -x) and Dual (r, c1, a) -> (r, -c1, a) complete the toolbox.
Isometries are kept as generator words, never matrices, so composition is
free and every application is exact integer arithmetic.  Words apply
right-to-left; the empty word is the identity.  No word reduction or
canonical form is attempted, and no orbit enumeration is provided.

Elements are plain immutable values: constructors coerce entries strictly to
int and store nothing else.  Each element has one method that needs the
lattice, _bind(lat): it checks that the element is an isometry of lat (a
Translate has its rank, a Reflect carries a genuine (-2)-vector, an NSAuto is
an invertible automorphism), raising InputError, then forms the lattice data
once (G N and (N^2)/2, or G c1(u)) and returns a step on plain (r, c1, a)
triples.  A word is the one application path.  IsometryWord(elems, lattice)
takes only an EvenLattice (else a TypeError) and an iterable of generators (else an
InputError), checks and binds every element once, left to right, and keeps the steps in
application order; from_json parses a whole word, then builds it.  IsometryWord.apply runs
the steps on that lattice or an equal one, refuses any other with an InputError and a
foreign vector or lattice with a TypeError, at no cost to a valid call, and builds one
MukaiVector, at the end; apply_translate and apply_reflect are one-element words.  Reflect
takes only a MukaiVector (else a TypeError).
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import mul, neg

from .errors import InputError
from .lattice import (EvenLattice, MukaiVector, Value, _as_ints, _as_matrix, _expect, _mukai,
                      _set, square)


class _Generator(Value):
    """Base of the generator classes: an IsometryWord takes only its instances."""

    __slots__ = ()


class Translate(_Generator):
    __slots__ = ("shift",)

    def __init__(self, shift):
        _set(self, "shift", _as_ints(shift))

    def _bind(self, lat: EvenLattice):
        """ch(N) x = (r, c1 + r N, a + (N.c1) + r (N^2)/2) for N of lat's rank, with G N and
        (N^2)/2 formed here.

        (N^2) is even on an even lattice, so the result is integral.
        """
        shift = self.shift
        lat.check_vector(shift)
        gn = _times(lat.gram, shift)
        half = sum(map(mul, shift, gn)) // 2

        def step(r, c1, a):
            return (r, tuple([x + r * n for x, n in zip(c1, shift)]),
                    a + sum(map(mul, c1, gn)) + r * half)
        return step

    def to_json(self) -> dict:
        return {"type": "translate", "N": list(self.shift)}


class Reflect(_Generator):
    __slots__ = ("u",)

    def __init__(self, u: MukaiVector):
        _expect(MukaiVector, u)
        _set(self, "u", u)

    def _bind(self, lat: EvenLattice):
        """v + <v, u> u for u of square -2 on lat, with G c1(u) formed here; v itself when
        <v, u> = 0."""
        if square(self.u, lat) != -2:
            raise InputError("reflection vector must have square -2")
        ur, uc, ua = self.u.r, self.u.c1, self.u.a
        gu = _times(lat.gram, uc)

        def step(r, c1, a):
            k = sum(map(mul, c1, gu)) - r * ua - a * ur
            if not k:
                return r, c1, a
            return r + k * ur, tuple([x + k * y for x, y in zip(c1, uc)]), a + k * ua
        return step

    def to_json(self) -> dict:
        return {"type": "reflect", "u": self.u.to_json()}


class NSAuto(_Generator):
    __slots__ = ("matrix",)

    def __init__(self, matrix):
        _set(self, "matrix", _as_matrix(matrix))

    def _bind(self, lat: EvenLattice):
        """M c1, for M an automorphism of lat with determinant +-1."""
        n = lat.rank
        rows = self.matrix
        if len(rows) != n or any(len(row) != n for row in rows):
            raise InputError("automorphism matrix does not match lattice rank")
        cols = tuple(zip(*rows))
        g_cols = [_times(lat.gram, c) for c in cols]       # G M, by columns
        if tuple(tuple(_times(g_cols, c)) for c in cols) != lat.gram:   # M^T G M
            raise InputError("matrix is not an automorphism of the lattice")
        if abs(_det(rows)) != 1:
            raise InputError("automorphism matrix must have determinant +-1")

        def step(r, c1, a):
            return r, tuple([sum(map(mul, row, c1)) for row in rows]), a
        return step

    def to_json(self) -> dict:
        return {"type": "nsauto", "M": [list(row) for row in self.matrix]}


class Negate(_Generator):
    __slots__ = ()

    def _bind(self, lat: EvenLattice):
        return lambda r, c1, a: (-r, tuple(map(neg, c1)), -a)

    def to_json(self) -> dict:
        return {"type": "negate"}


class Dual(_Generator):
    __slots__ = ()

    def _bind(self, lat: EvenLattice):
        return lambda r, c1, a: (r, tuple(map(neg, c1)), a)

    def to_json(self) -> dict:
        return {"type": "dual"}


_PARSERS = {
    "translate": ("N", Translate),
    "reflect": ("u", lambda doc: Reflect(MukaiVector.from_json(doc))),
    "nsauto": ("M", NSAuto),
    "negate": (None, Negate),
    "dual": (None, Dual),
}


class IsometryWord(Value):
    """Ordered list of generators of one lattice, kept as a tuple; applies right-to-left.

    The constructor refuses a lattice that is no EvenLattice (a TypeError) and elems
    that are no iterable of generators, then checks and binds every element against
    lattice, left to right, so the first element that is no isometry of it is
    the one reported; _steps keeps the bound steps in application order.
    """

    __slots__ = ("elems", "lattice", "_steps")

    def __init__(self, elems: Iterable[_Generator], lattice: EvenLattice):
        _expect(EvenLattice, lattice)
        elems = tuple(elems) if hasattr(elems, "__iter__") else None
        if elems is None or not all(isinstance(elem, _Generator) for elem in elems):
            raise InputError("an isometry word takes only generators, in an iterable")
        _set(self, "elems", elems)
        _set(self, "lattice", lattice)
        _set(self, "_steps", tuple([elem._bind(lattice) for elem in elems][::-1]))

    def apply(self, v: MukaiVector, lat: EvenLattice) -> MukaiVector:
        """Apply right-to-left, on the word's lattice or an equal one."""
        try:
            lat.check_vector(v.c1)
        except AttributeError:      # a foreign operand; the check costs the valid call nothing
            _expect(MukaiVector, v)
            _expect(EvenLattice, lat)
            raise
        if lat is not self.lattice and lat != self.lattice:
            raise InputError("the word was built for another lattice")
        r, c1, a = v.r, v.c1, v.a
        for step in self._steps:
            r, c1, a = step(r, c1, a)
        return _mukai(r, c1, a)

    def to_json(self) -> list:
        return [e.to_json() for e in self.elems]

    @classmethod
    def from_json(cls, doc: list, lat: EvenLattice) -> "IsometryWord":
        """Parse a whole word, then build it on lat."""
        if not isinstance(doc, list):
            raise InputError("isometry word must be a JSON list")
        elems = []
        for item in doc:
            try:
                key, make = _PARSERS[item["type"]]
            except (TypeError, KeyError) as exc:
                raise InputError(f"isometry element needs a known 'type': {item!r}") from exc
            if key is None:
                elems.append(make())
            elif key in item:
                elems.append(make(item[key]))
            else:
                raise InputError(f"isometry element {item['type']!r} needs {key!r}")
        return cls(elems, lat)


def _times(m, x) -> list[int]:
    """The matrix-vector product m x."""
    return [sum(map(mul, row, x)) for row in m]


def _det(m) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def apply_translate(shift, v: MukaiVector, lat: EvenLattice) -> MukaiVector:
    """ch(N) x for a lattice vector N, as a one-element word on lat."""
    return IsometryWord((Translate(shift),), lat).apply(v, lat)


def apply_reflect(u: MukaiVector, v: MukaiVector, lat: EvenLattice) -> MukaiVector:
    """x -> x + <x, u> u for a (-2)-vector u, as a one-element word on lat."""
    return IsometryWord((Reflect(u),), lat).apply(v, lat)
