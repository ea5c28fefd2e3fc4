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

Validation happens once, where data enters.  Every constructor coerces its
entries strictly to int.  The checks that need the lattice (a Translate has
its rank, a Reflect carries a genuine (-2)-vector, an NSAuto is an invertible
automorphism) run in the factories reflect and ns_auto and in
IsometryWord.from_json, which bind each element to the lattice it was
checked against.  Applying an element on its bound lattice is then plain
arithmetic.  An element applied on any other lattice, or one built directly
from its class, is checked for that lattice first, on every application, and
raises InputError if it does not preserve it.  apply_translate and
apply_reflect take raw arguments and check them on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Union

from .errors import InputError
from .lattice import (EvenLattice, MukaiVector, _as_ints, _as_matrix, _mukai,
                      dual)


class _Generator:
    """Validation and binding shared by the generator classes.

    _lattice is the lattice the element was last validated for; it is not
    part of the element's value (equality, hash, repr).
    """

    _lattice = None

    def validate(self, lat: EvenLattice) -> None:
        pass

    def _bind(self, lat: EvenLattice):
        self.validate(lat)
        object.__setattr__(self, "_lattice", lat)
        return self

    def _check_for(self, lat: EvenLattice) -> None:
        bound = self._lattice
        if bound is not lat and bound != lat:
            self.validate(lat)

    def apply(self, v: MukaiVector, lat: EvenLattice) -> MukaiVector:
        lat.check_vector(v.c1)
        self._check_for(lat)
        return self._apply(v, lat)


@dataclass(frozen=True)
class Translate(_Generator):
    shift: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "shift", _as_ints(self.shift))

    def validate(self, lat: EvenLattice) -> None:
        lat.check_vector(self.shift)

    def _apply(self, v: MukaiVector, lat: EvenLattice) -> MukaiVector:
        return _translate(self.shift, v, lat.gram)

    def to_json(self) -> dict:
        return {"type": "translate", "N": list(self.shift)}


@dataclass(frozen=True)
class Reflect(_Generator):
    u: MukaiVector

    def __post_init__(self):
        if not isinstance(self.u, MukaiVector):
            raise InputError("reflection vector must be a Mukai vector")

    def validate(self, lat: EvenLattice) -> None:
        _root_image(self.u, lat)

    def _apply(self, v: MukaiVector, lat: EvenLattice) -> MukaiVector:
        return _reflect(self.u, _times(lat.gram, self.u.c1), v)

    def to_json(self) -> dict:
        return {"type": "reflect", "u": self.u.to_json()}


@dataclass(frozen=True)
class NSAuto(_Generator):
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_matrix(self.matrix))

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

    def _apply(self, v: MukaiVector, lat: EvenLattice) -> MukaiVector:
        return _mukai(v.r, tuple(_times(self.matrix, v.c1)), v.a)

    def to_json(self) -> dict:
        return {"type": "nsauto", "M": [list(row) for row in self.matrix]}


@dataclass(frozen=True)
class Negate(_Generator):
    def _apply(self, v: MukaiVector, lat: EvenLattice) -> MukaiVector:
        return -v

    def to_json(self) -> dict:
        return {"type": "negate"}


@dataclass(frozen=True)
class Dual(_Generator):
    def _apply(self, v: MukaiVector, lat: EvenLattice) -> MukaiVector:
        return dual(v)

    def to_json(self) -> dict:
        return {"type": "dual"}


IsometryElem = Union[Translate, Reflect, NSAuto, Negate, Dual]


def translate(shift) -> Translate:
    return Translate(shift)


def reflect(u: MukaiVector, lat: EvenLattice) -> Reflect:
    return Reflect(u)._bind(lat)


def ns_auto(matrix, lat: EvenLattice) -> NSAuto:
    return NSAuto(matrix)._bind(lat)


_PARSERS = {
    "translate": ("N", Translate),
    "reflect": ("u", lambda doc: Reflect(MukaiVector.from_json(doc))),
    "nsauto": ("M", NSAuto),
    "negate": (None, Negate),
    "dual": (None, Dual),
}


@dataclass(frozen=True)
class IsometryWord:
    """Ordered list of generators; applies right-to-left."""

    elems: tuple[IsometryElem, ...]

    def apply(self, v: MukaiVector, lat: EvenLattice) -> MukaiVector:
        return apply_word(self, v, lat)

    def to_json(self) -> list:
        return [e.to_json() for e in self.elems]

    @classmethod
    def from_json(cls, doc: list, lat: EvenLattice) -> "IsometryWord":
        """Parse and validate a word, binding every element to lat."""
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
            elems.append(elem._bind(lat))
        return cls(tuple(elems))


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


def _translate(shift: tuple[int, ...], v: MukaiVector, gram) -> MukaiVector:
    """ch(N) v for N and v of the lattice's rank; G N is formed once."""
    r, c1 = v.r, v.c1
    gn = _times(gram, shift)
    nn = sum(map(mul, shift, gn))
    return _mukai(r, tuple([x + r * n for x, n in zip(c1, shift)]),
                  v.a + sum(map(mul, c1, gn)) + r * (nn // 2))


def apply_translate(shift, v: MukaiVector, lat: EvenLattice) -> MukaiVector:
    """ch(N) x = (r, c1 + r N, a + (N.c1) + r (N^2)/2).

    (N^2) is even on an even lattice, so the result is integral.
    """
    shift = _as_ints(shift)
    gram = lat.gram
    if len(shift) != len(gram) or len(v.c1) != len(gram):
        raise InputError(f"translation data do not match lattice rank {len(gram)}")
    return _translate(shift, v, gram)


def _root_image(u: MukaiVector, lat: EvenLattice) -> list[int]:
    """G u.c1, after checking that u is a (-2)-vector of the lattice's rank."""
    lat.check_vector(u.c1)
    gu = _times(lat.gram, u.c1)
    if sum(map(mul, u.c1, gu)) - 2 * u.r * u.a != -2:
        raise InputError("reflection vector must have square -2")
    return gu


def _reflect(u: MukaiVector, gu: list[int], v: MukaiVector) -> MukaiVector:
    """v + <v, u> u, with gu = G u.c1."""
    k = sum(map(mul, v.c1, gu)) - v.r * u.a - v.a * u.r
    if not k:
        return v
    return _mukai(v.r + k * u.r, tuple([x + k * y for x, y in zip(v.c1, u.c1)]),
                  v.a + k * u.a)


def apply_reflect(u: MukaiVector, v: MukaiVector, lat: EvenLattice) -> MukaiVector:
    """x -> x + <x, u> u for a (-2)-vector u."""
    gu = _root_image(u, lat)
    lat.check_vector(v.c1)
    return _reflect(u, gu, v)


def apply_word(word: IsometryWord, v: MukaiVector, lat: EvenLattice) -> MukaiVector:
    """Apply right-to-left; an element not bound to lat is validated for it first."""
    lat.check_vector(v.c1)
    for elem in reversed(word.elems):
        elem._check_for(lat)
        v = elem._apply(v, lat)
    return v


def reflection_target(v: MukaiVector, v1: MukaiVector,
                      lat: EvenLattice) -> tuple[MukaiVector, MukaiVector]:
    """Target vectors of the reflection construction for a (-2)-vector v1.

    Returns (w_plain, w_dual) with w_plain = -(v + <v, v1> v1) and
    w_dual = dual(w_plain); both have the same square as v.
    """
    w_plain = -apply_reflect(v1, v, lat)
    return w_plain, dual(w_plain)
