import copy
import json
import pickle

import pytest

import k3tk

from k3tk import (EvenLattice, InputError, MukaiVector, content, dual, ell,
                  mukai_from_chern, mukai_pairing, primitive, square)

from .conftest import random_lattice, random_vector
from .oracles import pairing_brute


def test_pairing_structure_sheaf(gram2):
    v0 = MukaiVector(1, (0,), 1)
    assert mukai_pairing(v0, v0, gram2) == -2


def test_pairing_omega_unit(gram2):
    assert mukai_pairing(MukaiVector(0, (0,), 1), MukaiVector(1, (0,), 0), gram2) == -1


def test_pairing_hand_expansion(gram2):
    x = MukaiVector(2, (1,), 1)
    y = MukaiVector(1, (0,), 1)
    assert mukai_pairing(x, y, gram2) == 2 * 1 * 0 - 2 * 1 - 1 * 1 == -3


def test_pairing_matches_brute_oracle(rng):
    for _ in range(300):
        lat = random_lattice(rng)
        x = random_vector(rng, lat.rank)
        y = random_vector(rng, lat.rank)
        expect = pairing_brute((x.r, x.c1, x.a), (y.r, y.c1, y.a), lat.gram)
        assert mukai_pairing(x, y, lat) == expect


def test_pairing_symmetric_even_dual_invariant(rng):
    for _ in range(2000):
        lat = random_lattice(rng)
        x = random_vector(rng, lat.rank)
        y = random_vector(rng, lat.rank)
        assert mukai_pairing(x, y, lat) == mukai_pairing(y, x, lat)
        assert mukai_pairing(x, x, lat) % 2 == 0
        assert mukai_pairing(dual(x), dual(y), lat) == mukai_pairing(x, y, lat)


def test_pairing_dimension_mismatch(gram2):
    with pytest.raises(InputError):
        mukai_pairing(MukaiVector(1, (0, 0), 1), MukaiVector(1, (0, 0), 1), gram2)


_V, _W = MukaiVector(2, (4,), 6), MukaiVector(1, (0, 0), 0)


@pytest.mark.parametrize("call, message", [
    (lambda: EvenLattice.from_json({}), "must contain a 'gram' matrix"),
    (lambda: _V + _W, "different c1 length"),
    (lambda: _V.divided(0), "0 does not divide every component"),
    (lambda: _V.divided(4), "4 does not divide every component"),
    (lambda: mukai_pairing(_V, _W, EvenLattice(((2,),))),
     "length 2 does not match lattice rank 1"),
    (lambda: mukai_from_chern(1, (0, 0), 0, EvenLattice(((2,),))),
     "^vector of length 2 does not match lattice rank 1$"),
], ids=["lattice-json-without-gram", "add-other-length", "divided-by-0", "divided-by-non-divisor",
        "pairing-y-wrong-length", "from-chern-wrong-length"])
def test_input_checks_refuse_with_their_message(call, message):
    with pytest.raises(InputError, match=message):
        call()


def test_bilinear_and_quad_read_vectors_strictly(gram2):
    for x in ((1.5,), (True,), ("1",), (None,), 5):
        with pytest.raises(InputError):
            gram2.quad(x)
        with pytest.raises(InputError):
            gram2.bilinear(x, (1,))
        with pytest.raises(InputError):
            gram2.bilinear((1,), x)
    assert gram2.quad((2.0,)) == 8 and type(gram2.quad((2.0,))) is int
    assert gram2.bilinear([3], (2.0,)) == 12 and type(gram2.bilinear([3], (2.0,))) is int
    with pytest.raises(InputError, match="length 2 does not match lattice rank 1"):
        gram2.quad((1, 0))


def test_omega_reads_its_rank_strictly():
    with pytest.raises(InputError, match="rank must be nonnegative"):
        MukaiVector.omega(-1)
    with pytest.raises(InputError, match="expected an integer, got True"):
        MukaiVector.omega(True)
    assert MukaiVector.omega(2.0) == MukaiVector(0, (0, 0), 1)
    assert MukaiVector.omega(0) == MukaiVector(0, (), 1)


def test_a_foreign_operand_is_a_type_error():
    for call in (lambda: _V + 1, lambda: _V - 1, lambda: 1 + _V, lambda: 1 - _V,
                 lambda: _V + "a", lambda: _V - (2,), lambda: _V * _V):
        with pytest.raises(TypeError, match="unsupported operand"):
            call()


_G2 = EvenLattice(((2,),))


@pytest.mark.parametrize("call", [lambda: mukai_pairing(_V, 1, _G2),
                                  lambda: mukai_pairing(1, _V, _G2), lambda: square(1, _G2),
                                  lambda: dual(1), lambda: ell(1), lambda: content(1)],
                         ids=["pairing-right", "pairing-left", "square", "dual", "ell", "content"])
def test_a_foreign_vector_is_a_type_error_naming_mukai_vector(call):
    with pytest.raises(TypeError, match="^expected MukaiVector, got int$"):
        call()


@pytest.mark.parametrize("call", [lambda: mukai_pairing(_V, _V, ((2,),)),
                                  lambda: square(_V, ((2,),))], ids=["pairing", "square"])
def test_a_foreign_lattice_is_a_type_error_naming_even_lattice(call):
    with pytest.raises(TypeError, match="^expected EvenLattice, got tuple$"):
        call()


def test_from_chern_structure_sheaf(gram2):
    assert mukai_from_chern(1, (0,), 0, gram2) == MukaiVector(1, (0,), 1)


def test_from_chern_ideal_sheaf(gram2):
    for n in range(6):
        assert mukai_from_chern(1, (0,), -n, gram2) == MukaiVector(1, (0,), 1 - n)


def test_from_chern_zero_sheaf(gram2):
    assert mukai_from_chern(0, (0,), 0, gram2) == MukaiVector(0, (0,), 0)


def test_chern_roundtrip(rng):
    for _ in range(200):
        lat = random_lattice(rng)
        v = random_vector(rng, lat.rank)
        w = mukai_from_chern(v.r, v.c1, v.a - v.r, lat)
        assert (w.r, w.c1, w.a - w.r) == (v.r, v.c1, v.a - v.r)
        assert w == v


def test_dual_examples(gram2):
    assert dual(MukaiVector(1, (0,), 1)) == MukaiVector(1, (0,), 1)
    assert dual(MukaiVector(2, (3,), -1)) == MukaiVector(2, (-3,), -1)


def test_dual_involution(rng):
    for _ in range(200):
        v = random_vector(rng, 3)
        assert dual(dual(v)) == v


def test_ell_primitive_square(gram2):
    assert ell(MukaiVector(2, (2,), 3)) == 2
    assert primitive(MukaiVector(2, (2,), 3))
    assert not primitive(MukaiVector(2, (2,), 4))
    for n in range(-3, 6):
        v = MukaiVector(1, (0,), 1 - n)
        assert square(v, gram2) == 2 * n - 2
        # cross-check: dim = <v^2> + 2 = 2n
        assert square(v, gram2) + 2 == 2 * n


def test_ell_zero_top(gram2):
    assert ell(MukaiVector(0, (0,), 5)) == 0
    assert content(MukaiVector(0, (0,), 5)) == 5


def test_even_lattice_validation():
    with pytest.raises(InputError):
        EvenLattice(((1,),))                      # odd diagonal
    with pytest.raises(InputError):
        EvenLattice(((2, 1), (0, 2)))             # asymmetric
    with pytest.raises(InputError):
        EvenLattice(((2, 1), (1, 2), (0, 0)))     # not square


def test_json_roundtrip(gram2):
    doc = gram2.to_json()
    assert EvenLattice.from_json(json.loads(json.dumps(doc))) == gram2
    v = MukaiVector(2, (-3,), 7)
    assert MukaiVector.from_json(json.loads(json.dumps(v.to_json()))) == v
    with pytest.raises(InputError):
        EvenLattice.from_json({"rank": 2, "gram": [[2]]})
    with pytest.raises(InputError):
        MukaiVector.from_json({"r": 1})


def test_constructors_coerce_strictly():
    for r, c1, a in ((1.5, (0,), 1), (True, (0,), 1), (1, (0.5,), 1), (1, (0,), "1"),
                     (1, 5, 1), (None, (0,), 1)):
        with pytest.raises(InputError):
            MukaiVector(r, c1, a)
    v = MukaiVector(2.0, [3], 1)
    assert v == MukaiVector(2, (3,), 1) and type(v.r) is int and type(v.c1) is tuple
    for gram in (((None,),), 5, ((2.5,),), ((True,),)):
        with pytest.raises(InputError):
            EvenLattice(gram)
    with pytest.raises(InputError):
        EvenLattice.from_json({"gram": [[2, "x"], [1, 2]]})
    with pytest.raises(InputError):
        3.5 * MukaiVector(1, (0,), 1)


_M = MukaiVector(1, (0,), 1)
_VALUES = [     # (make, field names, repr) for every public value class
    (lambda: EvenLattice(((2, 1), (1, -2))), "gram", "EvenLattice(gram=((2, 1), (1, -2)))"),
    (lambda: MukaiVector(1, (2,), 3), "r c1 a", "MukaiVector(r=1, c1=(2,), a=3)"),
    (lambda: k3tk.Translate((1, -2)), "shift", "Translate(shift=(1, -2))"),
    (lambda: k3tk.Reflect(_M), "u", "Reflect(u=MukaiVector(r=1, c1=(0,), a=1))"),
    (lambda: k3tk.NSAuto(((-1,),)), "matrix", "NSAuto(matrix=((-1,),))"),
    (lambda: k3tk.Negate(), "", "Negate()"),
    (lambda: k3tk.Dual(), "", "Dual()"),
    (lambda: k3tk.IsometryWord((k3tk.Translate((1,)), k3tk.Dual()), EvenLattice(((2,),))),
     "elems lattice",
     "IsometryWord(elems=(Translate(shift=(1,)), Dual()), lattice=EvenLattice(gram=((2,),)))"),
    (lambda: k3tk.CaseInfo("B", _M), "case v0",
     "CaseInfo(case='B', v0=MukaiVector(r=1, c1=(0,), a=1))"),
    (lambda: k3tk.NonLocallyFree("rank_one", "Hilb^2"), "kind model",
     "NonLocallyFree(kind='rank_one', model='Hilb^2')"),
    (lambda: k3tk.QSeries(2, ((-1, 1), (3, 24)), 2), "denom coeffs trunc",
     "QSeries(denom=2, coeffs=((-1, 1), (3, 24)), trunc=Fraction(2, 1))"),
    (lambda: k3tk.build_auxiliary(2, 3, 2, 1), "l r s a r1 d1 dprime q k lattice vprime v1 w",
     "AuxConstruction(l=2, r=3, s=2, a=1, r1=11, d1=7, dprime=2, q=-5, k=68, "
     "lattice=EvenLattice(gram=((136,),)), vprime=MukaiVector(r=6, c1=(4,), a=181), "
     "v1=MukaiVector(r=11, c1=(7,), a=303), w=MukaiVector(r=5, c1=(-3,), a=122))"),
    (lambda: k3tk.FareyCheck(True, False), "holds vacuous",
     "FareyCheck(holds=True, vacuous=False)"),
    (lambda: k3tk.Splitting(EvenLattice(((-2,),)), [[1]], [[0]]), "lattice pl pr",
     "Splitting(lattice=EvenLattice(gram=((-2,),)), pl=((1.0,),), pr=((0.0,),))"),
    (lambda: k3tk.ThetaSum(1j, 0.5, 3), "value tail points",
     "ThetaSum(value=1j, tail=0.5, points=3)"),
    (lambda: k3tk.ZFullSum(1j, 0.5, 3), "value tail terms",
     "ZFullSum(value=1j, tail=0.5, terms=3)"),
]


@pytest.mark.parametrize("make, names, rep", _VALUES, ids=[r.split("(")[0] for *_, r in _VALUES])
def test_public_classes_are_immutable_values(make, names, rep):
    v, names = make(), names.split()
    for name in names + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(v, name, None)
        with pytest.raises(AttributeError):
            delattr(v, name)
    assert repr(v) == rep
    twin = type("Twin", (type(v),), {})     # equal fields, another class
    assert v != twin(*(getattr(v, n) for n in names)) and v == v
    copies = [make(), pickle.loads(pickle.dumps(v)), copy.deepcopy(v)]
    assert all(type(c) is type(v) and c == v and hash(c) == hash(v) for c in copies)
    assert hash(v) == hash(tuple(getattr(v, n) for n in names))


def test_word_value_includes_its_lattice():
    lat = EvenLattice(((2,),))
    word = k3tk.IsometryWord.from_json([{"type": "translate", "N": [1]}], lat)
    same = k3tk.IsometryWord((k3tk.Translate((1,)),), EvenLattice(((2,),)))
    other = k3tk.IsometryWord((k3tk.Translate((1,)),), EvenLattice(((4,),)))
    assert word.lattice is lat and same.lattice == lat and same.lattice is not lat
    assert word == same and hash(word) == hash(same) and repr(word) == repr(same)
    assert word != other and word.elems == other.elems
