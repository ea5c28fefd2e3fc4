import copy
import pickle
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3tk import (Dual, EvenLattice, InputError, IsometryWord, MukaiVector,
                  Negate, NSAuto, Reflect, Translate, apply_reflect,
                  apply_translate, classify_case, dual, mukai_pairing)
from k3tk.isometry import _det

from .conftest import rand_minus_two, random_lattice, random_vector
from .oracles import apply_word_brute, det_brute, pairing_brute, translate_brute


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
        IsometryWord((Reflect(MukaiVector(1, (0,), 0)),), gram2)
    with pytest.raises(TypeError, match="^expected MukaiVector, got tuple$"):
        Reflect((1, (0,), 1))


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
            auto = IsometryWord((NSAuto(m),), lat)
            gx, gy = (auto.apply(w, lat) for w in (x, y))
        elif choice == 3:
            gx, gy = -x, -y
        else:
            gx, gy = dual(x), dual(y)
        assert mukai_pairing(gx, gy, lat) == before


def test_ns_auto_rejects_non_automorphism(gram2):
    with pytest.raises(InputError):
        IsometryWord((NSAuto(((2,),)),), gram2)


def test_word_empty_and_negate_pairs(rng, gram2):
    v = MukaiVector(3, (2,), -1)
    assert IsometryWord((), gram2).apply(v, gram2) == v
    assert IsometryWord((Negate(), Negate()), gram2).apply(v, gram2) == v
    u = MukaiVector(1, (0,), 1)
    assert IsometryWord((Reflect(u), Reflect(u)), gram2).apply(v, gram2) == v


def test_word_applies_right_to_left(gram2):
    v = MukaiVector(1, (1,), 0)
    t = Translate((1,))
    # dual-then-translate differs from translate-then-dual on this vector
    dual_first = IsometryWord((t, Dual()), gram2).apply(v, gram2)
    translate_first = IsometryWord((Dual(), t), gram2).apply(v, gram2)
    assert dual_first == apply_translate((1,), dual(v), gram2)
    assert translate_first == dual(apply_translate((1,), v, gram2))
    assert dual_first != translate_first


def test_word_json_roundtrip(gram2):
    word = IsometryWord((Translate((2,)), Reflect(MukaiVector(1, (0,), 1)),
                         Negate(), Dual(), NSAuto(((-1,),))), gram2)
    doc = word.to_json()
    again = IsometryWord.from_json(doc, gram2)
    assert again == word
    assert again.to_json() == doc
    with pytest.raises(InputError):
        IsometryWord.from_json([{"type": "nonsense"}], gram2)


def test_ns_auto_requires_determinant_one():
    with pytest.raises(InputError):
        IsometryWord((NSAuto([[0]]),), EvenLattice(((0,),)))    # M^T G M = G, but singular
    with pytest.raises(InputError):
        IsometryWord((NSAuto([[3, 0], [0, 1]]),), EvenLattice(((0, 0), (0, 2))))
    assert IsometryWord((NSAuto([[-1]]),), EvenLattice(((0,),))).elems[0].matrix == ((-1,),)
    assert IsometryWord((NSAuto([[1, 0], [5, 1]]),),
                        EvenLattice(((2, 0), (0, 0)))).elems[0].matrix == ((1, 0), (5, 1))


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
            Translate(bad)
        with pytest.raises(InputError):
            apply_translate(bad, v, gram2)
    with pytest.raises(InputError):
        NSAuto([[1.5]])
    with pytest.raises(InputError):
        NSAuto(((False,),))
    assert Translate((2.0,)).shift == (2,) and type(Translate((2.0,)).shift[0]) is int


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
    # apply_translate and apply_reflect build a one-element word on every call
    skew = EvenLattice(((2, 1), (1, 2)))
    flip = NSAuto(((-1, 0), (0, 1)))                    # not an isometry of skew
    v = MukaiVector(1, (1, 0), 0)
    with pytest.raises(InputError):
        IsometryWord((flip,), skew)
    diag = EvenLattice(((2, 0), (0, 2)))
    assert IsometryWord((flip,), diag).apply(v, diag) == MukaiVector(1, (-1, 0), 0)
    with pytest.raises(InputError):
        apply_reflect(MukaiVector(1, (0, 0), 0), v, skew)   # square 0, not -2
    with pytest.raises(InputError):
        apply_translate((1, 2, 3), v, skew)
    with pytest.raises(InputError):
        IsometryWord((Negate(),), skew).apply(MukaiVector(1, (0,), 0), skew)   # wrong rank


def test_bound_elements_are_checked_on_another_lattice(gram2):
    gram4 = EvenLattice(((4,),))
    u = MukaiVector(1, (1,), 2)                             # -2 on Gram [2], 0 on Gram [4]
    v = MukaiVector(2, (1,), 0)
    elem = Reflect(u)
    assert IsometryWord((elem,), gram2).apply(v, EvenLattice(((2,),))) == \
        apply_reflect(u, v, gram2)
    with pytest.raises(InputError):
        IsometryWord((elem,), gram4)
    with pytest.raises(InputError):
        apply_reflect(u, v, gram4)
    word = IsometryWord.from_json([{"type": "reflect", "u": u.to_json()}], gram2)
    assert word.apply(v, EvenLattice(((2,),))) == apply_reflect(u, v, gram2)
    with pytest.raises(InputError):
        word.apply(v, gram4)
    with pytest.raises(InputError):
        word.apply(MukaiVector(1, (0, 0), 0), gram2)       # vector of the wrong rank
    # a word that also preserves the other lattice is still refused there, until built on it
    neg = IsometryWord.from_json([{"type": "nsauto", "M": [[-1]]}], gram2)
    with pytest.raises(InputError, match="another lattice"):
        neg.apply(v, gram4)
    assert IsometryWord(neg.elems, gram4).apply(v, gram4) == MukaiVector(2, (-1,), 0)


_KINDS = (Translate, Reflect, NSAuto, Negate, Dual)
_DOC = [{"type": "translate", "N": [1, -2]},
        {"type": "reflect", "u": {"r": 1, "c1": [0, 0], "a": 1}},
        {"type": "nsauto", "M": [[-1, 0], [0, -1]]}, {"type": "negate"}, {"type": "dual"}]


def _count_binds(monkeypatch) -> Counter:
    """Counts of _bind calls per generator class, from now on."""
    calls = Counter()
    for cls in _KINDS:
        def counted(self, lat, _bind=cls._bind):
            calls[type(self)] += 1
            return _bind(self, lat)
        monkeypatch.setattr(cls, "_bind", counted)
    return calls


def test_word_validates_its_elements_once(monkeypatch):
    skew = EvenLattice(((2, 1), (1, -2)))
    calls = _count_binds(monkeypatch)
    bad = [_DOC[0], {"type": "reflect", "u": {"r": 1, "c1": [0, 0], "a": 0}},
           {"type": "nsauto", "M": [[2, 0], [0, 1]]}]       # two faults: the first is reported
    with pytest.raises(InputError, match="square -2"):
        IsometryWord.from_json(bad, skew)
    assert calls == {Translate: 1, Reflect: 1}
    calls.clear()
    word = IsometryWord.from_json(_DOC, skew)
    assert calls == {cls: 1 for cls in _KINDS}
    calls.clear()
    vectors = [MukaiVector(k, (k - 3, 2 * k), 1 - k) for k in range(10)]
    for lat in (skew, EvenLattice(((2, 1), (1, -2)))):      # its own lattice, then an equal one
        for v in vectors:
            word.apply(v, lat)
    for v in vectors:                                        # another lattice
        with pytest.raises(InputError, match="another lattice"):
            word.apply(v, EvenLattice(((2, 0), (0, 4))))
    assert calls == {}
    fields = {Translate: ("shift",), Reflect: ("u",), NSAuto: ("matrix",), Negate: (), Dual: ()}
    for elem in word.elems:     # its fields only: no room for the lattice it was checked on
        assert type(elem).__slots__ == fields[type(elem)] and not hasattr(elem, "__dict__")


def test_word_binds_its_elements_once(monkeypatch):
    skew = EvenLattice(((2, 1), (1, -2)))
    calls = _count_binds(monkeypatch)
    word = IsometryWord.from_json(_DOC, skew)
    assert calls == {cls: 1 for cls in _KINDS}
    calls.clear()
    vectors = [MukaiVector(k, (k - 3, 2 * k), 1 - k) for k in range(10)]
    for lat in (skew, EvenLattice(((2, 1), (1, -2)))):      # its own lattice, then an equal one
        for v in vectors:
            word.apply(v, lat)
    assert calls == {}
    other = EvenLattice(((2, 0), (0, 4)))
    for v in vectors:                                        # another lattice
        with pytest.raises(InputError):
            word.apply(v, other)
    assert calls == {}
    again = IsometryWord(word.elems, other)                 # the same elements, built on it
    assert calls == {cls: 1 for cls in _KINDS}
    calls.clear()
    for v in vectors:
        again.apply(v, other)
    assert calls == {}
    fields = {Translate: ("shift",), Reflect: ("u",), NSAuto: ("matrix",), Negate: (), Dual: ()}
    for elem in word.elems:     # its fields only: no room for the lattice it was checked on
        assert type(elem).__slots__ == fields[type(elem)] and not hasattr(elem, "__dict__")


def test_word_is_checked_when_it_is_built(gram2):
    with pytest.raises(InputError, match="square -2"):      # (1, 0, 0) has square 0 on Gram [2]
        IsometryWord((Reflect(MukaiVector(1, (0,), 0)),), gram2)
    with pytest.raises(InputError, match="lattice rank 1"):
        IsometryWord((Translate((1, 2)),), gram2)
    with pytest.raises(TypeError):
        IsometryWord((Dual(),))                              # no word without its lattice
    listed = IsometryWord([Translate((1,)), Dual()], gram2)
    assert listed == IsometryWord((Translate((1,)), Dual()), gram2) and hash(listed)
    for lazy in ((e for e in listed.elems), iter(listed.elems)):    # generators and iterators
        assert IsometryWord(lazy, gram2) == listed


@pytest.mark.parametrize("elems, lattice, message", [
    ((1,), EvenLattice(((2,),)), "takes only generators"),
    ((Translate((1,)),), None, "expected EvenLattice, got NoneType"),
    ((Translate((1,)),), ((2,),), "expected EvenLattice, got tuple"),      # a Gram tuple
    ((Dual(),), None, "expected EvenLattice, got NoneType"),       # Dual reads no lattice data
    (Dual(), EvenLattice(((2,),)), "takes only generators"),      # one element, no iterable
    (1, EvenLattice(((2,),)), "takes only generators"),
    ("dual", EvenLattice(((2,),)), "takes only generators"),
    ((NSAuto(((1, 0), (0, 1))),), EvenLattice(((2,),)), "does not match lattice rank"),
])
def test_word_refuses_what_is_not_a_generator_or_a_lattice(elems, lattice, message):
    # a foreign lattice is the TypeError of any foreign operand, anything else an InputError
    with pytest.raises(TypeError if message.startswith("expected") else InputError,
                       match=message):
        IsometryWord(elems, lattice)


def test_copies_keep_the_word_bound(monkeypatch):
    skew = EvenLattice(((2, 1), (1, -2)))
    word = IsometryWord.from_json(_DOC, skew)
    copies = [copy.deepcopy(word), pickle.loads(pickle.dumps(word))]
    calls = _count_binds(monkeypatch)
    v = MukaiVector(3, (1, -1), 2)
    for twin in copies:
        assert twin == word and hash(twin) == hash(word) and twin.lattice == skew
        assert twin.apply(v, skew) == word.apply(v, skew)
    assert calls == {}


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
    elems = [Translate(draw(st.tuples(*[_small] * n))), Reflect(root),
             NSAuto([[sign * (i == j) for j in range(n)] for i in range(n)]),
             Negate(), Dual()]
    picks = draw(st.lists(st.sampled_from(range(5)), max_size=6))
    return lat, draw(vec), draw(vec), root, IsometryWord(tuple(elems[k] for k in picks), lat)


@settings(max_examples=150, deadline=None)
@given(_lattice_vectors_word(), st.integers(-5, 5))
def test_trusted_results_equal_public_construction(case, n):
    lat, x, y, root, word = case
    results = [x + y, x - y, -x, n * x, x * n, dual(x), (3 * x).divided(3),
               word.apply(x, lat),
               IsometryWord.from_json(word.to_json(), lat).apply(x, lat),
               apply_translate(y.c1, x, lat), apply_reflect(root, x, lat),
               IsometryWord((Dual(), Negate(), Reflect(root)), lat).apply(x, lat)]
    if x.r > 0:
        info = classify_case(x, lat)
        if info.v0 is not None:
            results.append(info.v0)
    for got in results:
        again = MukaiVector(got.r, list(got.c1), got.a)
        assert got == again and hash(got) == hash(again)
        assert type(got.c1) is tuple
        assert all(type(c) is int for c in (got.r, got.a, *got.c1))


@st.composite
def _word_case(draw):
    """A lattice of rank 1-4 with Gram[0][0] = +-2, a vector, and a word of 0-6 raw elements
    of every kind, ending (applied first) in a reflection orthogonal to the vector if asked."""
    n = draw(st.integers(1, 4))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2 * draw(_small)
        for j in range(i):
            g[i][j] = g[j][i] = draw(_small)
    g[0][0] = draw(st.sampled_from((-2, 2)))     # e_0 is a root: its reflection is an nsauto
    vec = st.tuples(st.integers(-5, 5), st.tuples(*[st.integers(-5, 5)] * n), st.integers(-5, 5))

    def root():
        shift = draw(st.tuples(*[st.integers(-2, 2)] * n))
        r, c1, a = translate_brute(shift, (1, (0,) * n, 1), g)          # square -2
        sign, flip = draw(st.sampled_from((1, -1))), draw(st.sampled_from((1, -1)))
        return sign * r, tuple(sign * flip * c for c in c1), sign * a

    def element(kind):
        if kind == "translate":
            return kind, draw(st.tuples(*[_small] * n))
        if kind == "reflect":
            return kind, root()
        if kind == "nsauto":
            sign = draw(st.sampled_from((1, -1)))
            m = [[int(i == j) for j in range(n)] for i in range(n)]
            if draw(st.booleans()):                  # x -> x - 2 (e_0.x)/(e_0.e_0) e_0
                for j in range(n):
                    m[0][j] -= 2 // g[0][0] * g[0][j]
            return kind, tuple(tuple(sign * x for x in row) for row in m)
        return (kind,)

    kinds = ("translate", "reflect", "nsauto", "negate", "dual")
    raw = [element(kind) for kind in draw(st.lists(st.sampled_from(kinds), max_size=6))]
    v = draw(vec)
    if raw and draw(st.booleans()):
        u = root()
        k = pairing_brute(v, u, g)
        v = (2 * v[0] + k * u[0], tuple(2 * x + k * y for x, y in zip(v[1], u[1])),
             2 * v[2] + k * u[2])
        assert pairing_brute(v, u, g) == 0
        raw[-1] = ("reflect", u)
    return g, v, raw


def _doc(raw) -> list:
    out = []
    for kind, *data in raw:
        item = {"type": kind}
        if kind == "translate":
            item["N"] = list(data[0])
        elif kind == "reflect":
            r, c1, a = data[0]
            item["u"] = {"r": r, "c1": list(c1), "a": a}
        elif kind == "nsauto":
            item["M"] = [list(row) for row in data[0]]
        out.append(item)
    return out


def _elem(kind, *data):
    if kind == "translate":
        return Translate(data[0])
    if kind == "reflect":
        return Reflect(MukaiVector(*data[0]))
    if kind == "nsauto":
        return NSAuto(data[0])
    return Negate() if kind == "negate" else Dual()


@settings(max_examples=300, deadline=None)
@given(_word_case())
def test_every_way_to_apply_a_word_equals_the_oracle(case):
    g, raw_v, raw = case
    lat, v, doc = EvenLattice(g), MukaiVector(*raw_v), _doc(raw)
    want = apply_word_brute(doc, raw_v, g)
    word = IsometryWord.from_json(doc, lat)
    elems = tuple(_elem(*item) for item in raw)
    stepwise = helpers = v            # one-element words, and the two public helpers
    for elem in reversed(elems):
        stepwise = IsometryWord((elem,), lat).apply(stepwise, lat)
        helpers = (apply_translate(elem.shift, helpers, lat) if isinstance(elem, Translate)
                   else apply_reflect(elem.u, helpers, lat) if isinstance(elem, Reflect)
                   else IsometryWord((elem,), lat).apply(helpers, lat))
    results = [word.apply(v, lat), word.apply(v, EvenLattice(g)),
               IsometryWord.from_json(word.to_json(), lat).apply(v, lat),
               IsometryWord(elems, lat).apply(v, lat), stepwise, helpers]
    for got in results:
        assert (got.r, got.c1, got.a) == want
        assert type(got.c1) is tuple and all(type(c) is int for c in (got.r, got.a, *got.c1))
    # a reflection in u = ch(N)(1, 0, 1) with N_0 != 0 is no isometry once Gram[0][0] grows by 2
    n = len(g)
    shift = (1,) + (0,) * (n - 1)
    u = translate_brute(shift, (1, (0,) * n, 1), g)
    other = EvenLattice([[x + 2 * (i == j == 0) for j, x in enumerate(row)]
                         for i, row in enumerate(g)])
    assert pairing_brute(u, u, other.gram) != -2
    bad = Reflect(MukaiVector(*u))
    outsider = IsometryWord.from_json(doc + [{"type": "reflect", "u": bad.u.to_json()}], lat)
    for attempt in (lambda: outsider.apply(v, other),
                    lambda: IsometryWord(elems + (bad,), other),
                    lambda: IsometryWord((bad,), other),
                    lambda: apply_reflect(bad.u, v, other)):
        with pytest.raises(InputError):
            attempt()
