from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3tk import (Dual, EvenLattice, InputError, IsometryWord, MukaiVector,
                  Negate, NSAuto, Reflect, Translate, apply_reflect,
                  apply_translate, apply_word, classify_case, dual,
                  mukai_pairing, ns_auto, reflect, reflection_target, square,
                  translate)
from k3tk.isometry import _det

from .conftest import random_lattice, random_vector
from .oracles import det_brute, translate_brute


def rand_minus_two(rng, lat):
    """Random (-2)-vector: isometries applied to (1, 0, 1) stay (-2)-vectors."""
    u = MukaiVector(1, (0,) * lat.rank, 1)
    for _ in range(rng.randint(0, 3)):
        shift = tuple(rng.randint(-3, 3) for _ in range(lat.rank))
        u = apply_translate(shift, u, lat)
        if rng.random() < 0.3:
            u = -u
        if rng.random() < 0.3:
            u = dual(u)
    return u


def test_translate_zero_identity(rng):
    for _ in range(50):
        lat = random_lattice(rng)
        v = random_vector(rng, lat.rank)
        assert apply_translate((0,) * lat.rank, v, lat) == v


def test_translate_example(gram2):
    assert apply_translate((1,), MukaiVector(1, (0,), 0), gram2) == \
        MukaiVector(1, (1,), 1)


def test_translate_matches_cup_product_oracle(rng):
    for _ in range(300):
        lat = random_lattice(rng)
        v = random_vector(rng, lat.rank)
        shift = tuple(rng.randint(-4, 4) for _ in range(lat.rank))
        got = apply_translate(shift, v, lat)
        assert (got.r, got.c1, got.a) == translate_brute(shift, (v.r, v.c1, v.a), lat.gram)


def test_translate_homomorphism(rng):
    for _ in range(500):
        lat = random_lattice(rng)
        v = random_vector(rng, lat.rank)
        n1 = tuple(rng.randint(-4, 4) for _ in range(lat.rank))
        n2 = tuple(rng.randint(-4, 4) for _ in range(lat.rank))
        nsum = tuple(a + b for a, b in zip(n1, n2))
        assert apply_translate(n1, apply_translate(n2, v, lat), lat) == \
            apply_translate(nsum, v, lat)


def test_reflect_orthogonal_fixed(gram2):
    u = MukaiVector(1, (0,), 1)
    v = MukaiVector(1, (0,), -1)
    assert mukai_pairing(v, u, gram2) == 0
    assert apply_reflect(u, v, gram2) == v


def test_reflect_negates_own_vector(gram2):
    u = MukaiVector(1, (0,), 1)
    assert apply_reflect(u, u, gram2) == -u


def test_reflect_requires_minus_two(gram2):
    with pytest.raises(InputError):
        apply_reflect(MukaiVector(1, (0,), 0), MukaiVector(1, (0,), 1), gram2)
    with pytest.raises(InputError):
        reflect(MukaiVector(1, (0,), 0), gram2)


def test_reflect_involution(rng):
    for _ in range(500):
        lat = random_lattice(rng)
        u = rand_minus_two(rng, lat)
        v = random_vector(rng, lat.rank)
        assert apply_reflect(u, apply_reflect(u, v, lat), lat) == v


def test_generators_preserve_pairing(rng):
    for _ in range(2000):
        lat = random_lattice(rng)
        x = random_vector(rng, lat.rank)
        y = random_vector(rng, lat.rank)
        before = mukai_pairing(x, y, lat)
        choice = rng.randrange(5)
        if choice == 0:
            shift = tuple(rng.randint(-4, 4) for _ in range(lat.rank))
            gx, gy = (apply_translate(shift, w, lat) for w in (x, y))
        elif choice == 1:
            u = rand_minus_two(rng, lat)
            gx, gy = (apply_reflect(u, w, lat) for w in (x, y))
        elif choice == 2:
            m = [[0] * lat.rank for _ in range(lat.rank)]
            sign = rng.choice((1, -1))
            for i in range(lat.rank):
                m[i][i] = sign
            auto = ns_auto(m, lat)
            gx, gy = (auto.apply(w, lat) for w in (x, y))
        elif choice == 3:
            gx, gy = -x, -y
        else:
            gx, gy = dual(x), dual(y)
        assert mukai_pairing(gx, gy, lat) == before


def test_ns_auto_rejects_non_automorphism(gram2):
    with pytest.raises(InputError):
        ns_auto(((2,),), gram2)


def test_word_empty_and_negate_pairs(rng, gram2):
    v = MukaiVector(3, (2,), -1)
    assert apply_word(IsometryWord(()), v, gram2) == v
    assert apply_word(IsometryWord((Negate(), Negate())), v, gram2) == v
    u = MukaiVector(1, (0,), 1)
    w = IsometryWord((reflect(u, gram2), reflect(u, gram2)))
    assert apply_word(w, v, gram2) == v


def test_word_applies_right_to_left(gram2):
    v = MukaiVector(1, (1,), 0)
    t = translate((1,))
    # dual-then-translate differs from translate-then-dual on this vector
    dual_first = apply_word(IsometryWord((t, Dual())), v, gram2)
    translate_first = apply_word(IsometryWord((Dual(), t)), v, gram2)
    assert dual_first == apply_translate((1,), dual(v), gram2)
    assert translate_first == dual(apply_translate((1,), v, gram2))
    assert dual_first != translate_first


def test_word_json_roundtrip(gram2):
    word = IsometryWord((translate((2,)), reflect(MukaiVector(1, (0,), 1), gram2),
                         Negate(), Dual(), ns_auto(((-1,),), gram2)))
    doc = word.to_json()
    again = IsometryWord.from_json(doc, gram2)
    assert again == word
    assert again.to_json() == doc
    with pytest.raises(InputError):
        IsometryWord.from_json([{"type": "nonsense"}], gram2)


def test_reflection_target_examples(gram2):
    v1 = MukaiVector(1, (0,), 1)
    v = MukaiVector(1, (3,), 1)
    assert mukai_pairing(v, v1, gram2) == -2
    w_plain, w_dual = reflection_target(v, v1, gram2)
    assert w_plain == -(v + (-2) * v1)
    assert w_dual == dual(w_plain)
    assert square(w_plain, gram2) == square(v, gram2)
    # orthogonal case: w = -v
    v_orth = MukaiVector(1, (2,), -1)
    assert mukai_pairing(v_orth, v1, gram2) == 0
    assert reflection_target(v_orth, v1, gram2)[0] == -v_orth


def test_reflection_target_preserves_square(rng):
    for _ in range(300):
        lat = random_lattice(rng)
        v1 = rand_minus_two(rng, lat)
        v = random_vector(rng, lat.rank)
        w_plain, w_dual = reflection_target(v, v1, lat)
        assert square(w_plain, lat) == square(v, lat)
        assert square(w_dual, lat) == square(v, lat)


def test_ns_auto_requires_determinant_one():
    with pytest.raises(InputError):
        ns_auto([[0]], EvenLattice(((0,),)))          # M^T G M = G, but singular
    with pytest.raises(InputError):
        ns_auto([[3, 0], [0, 1]], EvenLattice(((0, 0), (0, 2))))
    assert ns_auto([[-1]], EvenLattice(((0,),))).matrix == ((-1,),)
    assert ns_auto([[1, 0], [5, 1]], EvenLattice(((2, 0), (0, 0)))).matrix == \
        ((1, 0), (5, 1))


def test_det_matches_leibniz_oracle(rng):
    for _ in range(300):
        n = rng.randint(0, 4)
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3 and n > 1:
            m[1] = list(m[0])                           # force a singular matrix
        assert _det(m) == det_brute(m)


def test_strict_integer_coercion(gram2):
    v = MukaiVector(1, (0,), 0)
    for bad in ((1.5,), (True,), ("1",), (None,), 3):
        with pytest.raises(InputError):
            translate(bad)
        with pytest.raises(InputError):
            apply_translate(bad, v, gram2)
    with pytest.raises(InputError):
        ns_auto([[1.5]], gram2)
    with pytest.raises(InputError):
        NSAuto(((False,),))
    assert translate((2.0,)).shift == (2,) and type(translate((2.0,)).shift[0]) is int


def test_from_json_rejects_bad_elements(gram2):
    bad_words = [
        [{"type": "translate", "N": [1.5]}],
        [{"type": "translate"}],
        [{"type": "reflect"}],
        [{"type": "nsauto"}],
        [{"type": "reflect", "u": {"r": 1, "c1": [0]}}],
        [{"type": "nsauto", "M": [[2]]}],
        [{"type": "translate", "N": [1, 0]}],
        [{"N": [1]}],
        ["negate"],
        {"type": "negate"},
    ]
    for doc in bad_words:
        with pytest.raises(InputError):
            IsometryWord.from_json(doc, gram2)


def test_direct_elements_are_checked_on_application():
    skew = EvenLattice(((2, 1), (1, 2)))
    flip = NSAuto(((-1, 0), (0, 1)))                    # not an isometry of skew
    v = MukaiVector(1, (1, 0), 0)
    with pytest.raises(InputError):
        flip.apply(v, skew)
    with pytest.raises(InputError):
        apply_word(IsometryWord((flip,)), v, skew)
    diag = EvenLattice(((2, 0), (0, 2)))
    assert flip.apply(v, diag) == MukaiVector(1, (-1, 0), 0)
    with pytest.raises(InputError):
        Reflect(MukaiVector(1, (0, 0), 0)).apply(v, skew)   # square 0, not -2
    with pytest.raises(InputError):
        Translate((1, 2, 3)).apply(v, skew)
    with pytest.raises(InputError):
        Negate().apply(MukaiVector(1, (0,), 0), skew)      # vector of the wrong rank


def test_bound_elements_are_checked_on_another_lattice(gram2):
    gram4 = EvenLattice(((4,),))
    u = MukaiVector(1, (1,), 2)                             # -2 on Gram [2], 0 on Gram [4]
    v = MukaiVector(2, (1,), 0)
    elem = reflect(u, gram2)
    assert elem.apply(v, EvenLattice(((2,),))) == apply_reflect(u, v, gram2)
    with pytest.raises(InputError):
        elem.apply(v, gram4)
    word = IsometryWord.from_json([{"type": "reflect", "u": u.to_json()}], gram2)
    assert word.apply(v, EvenLattice(((2,),))) == apply_reflect(u, v, gram2)
    with pytest.raises(InputError):
        word.apply(v, gram4)
    with pytest.raises(InputError):
        word.apply(MukaiVector(1, (0, 0), 0), gram2)       # vector of the wrong rank
    # a word that does preserve the other lattice is accepted there
    neg = IsometryWord.from_json([{"type": "nsauto", "M": [[-1]]}], gram2)
    assert neg.apply(v, gram4) == MukaiVector(2, (-1,), 0)


def test_word_validates_its_elements_once(monkeypatch):
    skew = EvenLattice(((2, 1), (1, -2)))
    doc = [{"type": "translate", "N": [1, -2]},
           {"type": "reflect", "u": {"r": 1, "c1": [0, 0], "a": 1}},
           {"type": "nsauto", "M": [[-1, 0], [0, -1]]}, {"type": "negate"}, {"type": "dual"}]
    word = IsometryWord.from_json(doc, skew)
    kinds = (Translate, Reflect, NSAuto, Negate, Dual)
    calls = Counter()
    for cls in kinds:
        def counted(self, lat, _validate=cls.validate):
            calls[type(self)] += 1
            return _validate(self, lat)
        monkeypatch.setattr(cls, "validate", counted)
    vectors = [MukaiVector(k, (k - 3, 2 * k), 1 - k) for k in range(10)]
    for lat in (skew, EvenLattice(((2, 1), (1, -2)))):      # its own lattice, then an equal one
        for v in vectors:
            word.apply(v, lat)
    assert calls == {}
    for v in vectors:                                        # another lattice
        word.apply(v, EvenLattice(((2, 0), (0, 4))))
    assert calls == {cls: len(vectors) for cls in kinds}
    fields = {Translate: ("shift",), Reflect: ("u",), NSAuto: ("matrix",), Negate: (), Dual: ()}
    for elem in word.elems:     # its fields only: no room for the lattice it was checked on
        assert type(elem).__slots__ == fields[type(elem)] and not hasattr(elem, "__dict__")


_small = st.integers(-4, 4)


@st.composite
def _lattice_vectors_word(draw):
    n = draw(st.integers(1, 4))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2 * draw(_small)
        for j in range(i):
            g[i][j] = g[j][i] = draw(_small)
    lat = EvenLattice(g)
    vec = st.builds(MukaiVector, _small, st.tuples(*[_small] * n), _small)
    root = apply_translate(draw(st.tuples(*[st.integers(-2, 2)] * n)),
                           MukaiVector(1, (0,) * n, 1), lat)
    sign = draw(st.sampled_from((1, -1)))
    elems = [translate(draw(st.tuples(*[_small] * n))), reflect(root, lat),
             ns_auto([[sign * (i == j) for j in range(n)] for i in range(n)], lat),
             Negate(), Dual()]
    picks = draw(st.lists(st.sampled_from(range(5)), max_size=6))
    return lat, draw(vec), draw(vec), root, IsometryWord(tuple(elems[k] for k in picks))


@settings(max_examples=150, deadline=None)
@given(_lattice_vectors_word(), st.integers(-5, 5))
def test_trusted_results_equal_public_construction(case, n):
    lat, x, y, root, word = case
    results = [x + y, x - y, -x, n * x, x * n, dual(x), (3 * x).divided(3),
               word.apply(x, lat),
               IsometryWord.from_json(word.to_json(), lat).apply(x, lat),
               apply_translate(y.c1, x, lat), apply_reflect(root, x, lat),
               *reflection_target(x, root, lat)]
    if x.r > 0:
        info = classify_case(x, lat)
        if info.v0 is not None:
            results.append(info.v0)
    for got in results:
        again = MukaiVector(got.r, list(got.c1), got.a)
        assert got == again and hash(got) == hash(again)
        assert type(got.c1) is tuple
        assert all(type(c) is int for c in (got.r, got.a, *got.c1))
