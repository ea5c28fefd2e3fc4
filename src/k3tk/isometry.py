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
int and store nothing else.  The checks that need the lattice (a Translate has
its rank, a Reflect carries a genuine (-2)-vector, an NSAuto is an invertible
automorphism) are each element's validate, and raise InputError; its
_bind(lat) forms the lattice data once (G N and (N^2)/2, or G c1(u)) and
returns a step on plain (r, c1, a) triples.  A single element (elem.apply,
apply_translate, apply_reflect) is validated and bound per application; the
factories reflect and ns_auto validate.  A word is checked and bound once:
from_json validates every element against its lattice and the word keeps that
lattice, and in the underscore slot _steps the bound steps in application
order.  Applying the word there, or on an equal lattice, runs them; apply_word
on any other lattice (any lattice, for a word built directly) validates and
binds every element once first.  One MukaiVector is built, at the end.
"""

from __future__ import annotations

from operator import mul, neg

from .errors import InputError
from .lattice import (EvenLattice, MukaiVector, Value, _as_ints, _as_matrix, _mukai,
                      _set, dual, square)


class _Generator(Value):
    """Single-element application shared by the generator classes."""

    __slots__ = ()

    def validate(self, lat: EvenLattice) -> None:
        pass

    def apply(self, v: MukaiVector, lat: EvenLattice) -> MukaiVector:
        lat.check_vector(v.c1)
        self.validate(lat)
        return _mukai(*self._bind(lat)(v.r, v.c1, v.a))


class Translate(_Generator):
    __slots__ = ("shift",)

    def __init__(self, shift):
        _set(self, "shift", _as_ints(shift))

    def validate(self, lat: EvenLattice) -> None:
        lat.check_vector(self.shift)

    def _bind(self, lat: EvenLattice):
        """ch(N) x = (r, c1 + r N, a + (N.c1) + r (N^2)/2), with G N and (N^2)/2 formed here.

        (N^2) is even on an even lattice, so the result is integral.
        """
        shift = self.shift
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

    def __init__(self, u):
        if not isinstance(u, MukaiVector):
            raise InputError("reflection vector must be a Mukai vector")
        _set(self, "u", u)

    def validate(self, lat: EvenLattice) -> None:
        if square(self.u, lat) != -2:
            raise InputError("reflection vector must have square -2")

    def _bind(self, lat: EvenLattice):
        """v + <v, u> u, with G c1(u) formed here; v itself when <v, u> = 0."""
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

    def validate(self, lat: EvenLattice) -> None:
        n = lat.rank
        m = self.matrix
        if len(m) != n or any(len(row) != n for row in m):
            raise InputError("automorphism matrix does not match lattice rank")
        cols = tuple(zip(*m))
        g_cols = [_times(lat.gram, c) for c in cols]       # G M, by columns
        if tuple(tuple(_times(g_cols, c)) for c in cols) != lat.gram:   # M^T G M
            raise InputError("matrix is not an automorphism of the lattice")
        if abs(_det(m)) != 1:
            raise InputError("automorphism matrix must have determinant +-1")

    def _bind(self, lat: EvenLattice):
        rows = self.matrix

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


def translate(shift) -> Translate:
    return Translate(shift)


def reflect(u: MukaiVector, lat: EvenLattice) -> Reflect:
    elem = Reflect(u)
    elem.validate(lat)
    return elem


def ns_auto(matrix, lat: EvenLattice) -> NSAuto:
    elem = NSAuto(matrix)
    elem.validate(lat)
    return elem


_PARSERS = {
    "translate": ("N", Translate),
    "reflect": ("u", lambda doc: Reflect(MukaiVector.from_json(doc))),
    "nsauto": ("M", NSAuto),
    "negate": (None, Negate),
    "dual": (None, Dual),
}


class IsometryWord(Value):
    """Ordered list of generators; applies right-to-left.

    lattice is the lattice every element was validated against by from_json
    (None for a word built directly), and _steps the elements bound to it, in
    application order; neither is part of the word's value.  A lattice passed
    here is trusted.
    """

    __slots__ = ("elems", "lattice", "_steps")
    _fields = ("elems",)

    def __init__(self, elems: tuple[_Generator, ...], lattice: EvenLattice | None = None):
        _set(self, "elems", elems)
        _set(self, "lattice", lattice)
        _set(self, "_steps", None if lattice is None else _bind_all(elems, lattice))

    def apply(self, v: MukaiVector, lat: EvenLattice) -> MukaiVector:
        return apply_word(self, v, lat)

    def to_json(self) -> list:
        return [e.to_json() for e in self.elems]

    @classmethod
    def from_json(cls, doc: list, lat: EvenLattice) -> "IsometryWord":
        """Parse a word and validate every element against lat."""
        if not isinstance(doc, list):
            raise InputError("isometry word must be a JSON list")
        elems = []
        for item in doc:
            try:
                key, make = _PARSERS[item["type"]]
            except (TypeError, KeyError) as exc:
                raise InputError(f"isometry element needs a known 'type': {item!r}") from exc
            if key is None:
                elem = make()
            elif key in item:
                elem = make(item[key])
            else:
                raise InputError(f"isometry element {item['type']!r} needs {key!r}")
            elem.validate(lat)
            elems.append(elem)
        return cls(tuple(elems), lat)


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
    """ch(N) x for a lattice vector N, checked for lat."""
    return Translate(shift).apply(v, lat)


def apply_reflect(u: MukaiVector, v: MukaiVector, lat: EvenLattice) -> MukaiVector:
    """x -> x + <x, u> u for a (-2)-vector u, checked for lat."""
    return Reflect(u).apply(v, lat)


def _bind_all(elems, lat: EvenLattice) -> tuple:
    """The elements' steps on lat, in application order (right to left)."""
    return tuple([elem._bind(lat) for elem in reversed(elems)])


def apply_word(word: IsometryWord, v: MukaiVector, lat: EvenLattice) -> MukaiVector:
    """Apply right-to-left; off word.lattice, every element is validated and bound first."""
    lat.check_vector(v.c1)
    steps = word._steps
    if lat is not word.lattice and lat != word.lattice:     # always, for a direct word
        for elem in word.elems:
            elem.validate(lat)
        steps = _bind_all(word.elems, lat)
    r, c1, a = v.r, v.c1, v.a
    for step in steps:
        r, c1, a = step(r, c1, a)
    return _mukai(r, c1, a)


def reflection_target(v: MukaiVector, v1: MukaiVector,
                      lat: EvenLattice) -> tuple[MukaiVector, MukaiVector]:
    """Target vectors of the reflection construction for a (-2)-vector v1.

    Returns (w_plain, w_dual) with w_plain = -(v + <v, v1> v1) and
    w_dual = dual(w_plain); both have the same square as v.
    """
    w_plain = -apply_reflect(v1, v, lat)
    return w_plain, dual(w_plain)
