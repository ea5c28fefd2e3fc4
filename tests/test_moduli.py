import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3tk import (CaseInfo, ConsistencyError, EvenLattice, InputError, MukaiVector,
                  NonLocallyFree, chi_virtual, classify_case, classify_non_locally_free, content,
                  euler_characteristic, exists_mu_stable, exists_semistable,
                  exists_stable_primitive, hilb_index, moduli, moduli_dim,
                  mu_stable_boundary_flag, mukai_pairing, primitive, square)
from k3tk.errors import MAX_WORK
from k3tk.moduli import HAS_LOCALLY_FREE, RANK_ONE, REFL_POINT, UNIV_EXT

from .conftest import random_lattice, random_vector


def test_exists_stable_examples(gram2):
    assert exists_stable_primitive(MukaiVector(1, (0,), 1), gram2)
    assert not exists_stable_primitive(MukaiVector(2, (0,), 3), gram2)
    assert exists_stable_primitive(MukaiVector(1, (0,), 0), gram2)


def test_exists_stable_preconditions(gram2):
    with pytest.raises(InputError):
        exists_stable_primitive(MukaiVector(2, (0,), 2), gram2)   # not primitive
    with pytest.raises(InputError):
        exists_stable_primitive(MukaiVector(0, (1,), 0), gram2)   # rank 0


def test_exists_semistable_examples(gram2):
    assert exists_semistable(MukaiVector(2, (0,), 2), gram2)      # 2 (1,0,1)
    assert not exists_semistable(MukaiVector(2, (0,), 3), gram2)
    # content 10^30 with primitive part (1, 1, 10^370): decided without a divisor scan
    assert not exists_semistable(MukaiVector(10 ** 30, (10 ** 30,), 10 ** 400), gram2)
    with pytest.raises(InputError):
        exists_semistable(MukaiVector(0, (0,), 1), gram2)


def test_exists_semistable_closed_form(rng):
    # divisor scan agrees with: <v^2> >= 0, or primitive part has square -2
    for _ in range(500):
        lat = random_lattice(rng, max_rank=2)
        v = random_vector(rng, lat.rank, spread=5)
        if v.r <= 0:
            continue
        sq = square(v, lat)
        w0 = v.divided(content(v))
        shortcut = sq >= 0 or square(w0, lat) == -2
        assert exists_semistable(v, lat) == shortcut
        if primitive(v) and exists_stable_primitive(v, lat):
            assert exists_semistable(v, lat)


def test_moduli_dim(gram2):
    assert moduli_dim(MukaiVector(1, (0,), 1), gram2) == 0
    for n in range(4):
        assert moduli_dim(MukaiVector(1, (0,), 1 - n), gram2) == 2 * n
    assert moduli_dim(MukaiVector(2, (1,), 0), gram2) == 4
    with pytest.raises(InputError):
        moduli_dim(MukaiVector(2, (0,), 3), gram2)   # square -12, empty


@pytest.mark.parametrize("fn", [classify_case, chi_virtual], ids=["classify_case", "chi_virtual"])
def test_a_foreign_vector_is_a_type_error_naming_mukai_vector(fn, gram2):
    with pytest.raises(TypeError, match="^expected MukaiVector, got int$"):
        fn(1, gram2)


@pytest.mark.parametrize("fn", [classify_case, chi_virtual], ids=["classify_case", "chi_virtual"])
def test_a_foreign_lattice_is_a_type_error_naming_even_lattice(fn, gram2):
    v = MukaiVector(2, (1,), 1)
    for _ in range(2):      # read first by the pairing, then, once v keeps a record, by _record
        with pytest.raises(TypeError, match="^expected EvenLattice, got tuple$"):
            fn(v, ((2,),))
        fn(v, gram2)


def test_classify_case(gram2):
    for l in (1, 2, 3):
        info = classify_case(MukaiVector(l, (0,), -1), gram2)
        assert info.case == "B" and info.v0 == MukaiVector(1, (0,), 1)
    info = classify_case(MukaiVector(2, (1,), 5), gram2)
    assert info.case == "B" and info.v0 == MukaiVector(2, (1,), 1)
    gram4 = EvenLattice(((4,),))
    assert classify_case(MukaiVector(3, (1,), 0), gram4).case == "B"
    assert classify_case(MukaiVector(3, (1,), 0), gram2).case == "A"


def test_case_b_witness_is_minus_two(rng):
    for _ in range(500):
        lat = random_lattice(rng)
        v = random_vector(rng, lat.rank)
        if v.r <= 0:
            continue
        info = classify_case(v, lat)
        if info.v0 is not None:
            assert square(info.v0, lat) == -2


def test_exists_mu_stable(gram2):
    # case B below the bound: v = 2 v0 - 3 omega, square 4 < 2 l^2 = 8
    assert not exists_mu_stable(MukaiVector(2, (0,), -1), gram2)
    # case A with nonnegative square
    v_a = MukaiVector(3, (1,), 0)
    assert classify_case(v_a, gram2).case == "A"
    assert exists_mu_stable(v_a, gram2)
    # the flagged boundary corner: rigid case-B vectors with l = 1
    v0 = MukaiVector(1, (0,), 1)
    assert not exists_mu_stable(v0, gram2)
    assert mu_stable_boundary_flag(v0, gram2)
    assert not mu_stable_boundary_flag(MukaiVector(1, (0,), 0), gram2)


def test_classify_non_locally_free(gram2):
    for n in range(4):
        res = classify_non_locally_free(MukaiVector(1, (0,), 1 - n), gram2)
        assert res.kind == RANK_ONE and res.model == f"Hilb^{n}"
    v = MukaiVector(4, (2,), 1)          # 2 v0 - omega for v0 = (2, 1, 1)
    res = classify_non_locally_free(v, gram2)
    assert res.kind == REFL_POINT and res.model == "X"
    assert square(v, gram2) == 0 and moduli_dim(v, gram2) == 2
    for l in (2, 3, 4):
        v = MukaiVector(l, (0,), -1)     # l v0 - (l+1) omega for v0 = (1, 0, 1)
        res = classify_non_locally_free(v, gram2)
        assert res.kind == UNIV_EXT and res.model == f"Hilb^{l + 1}"
        assert square(v, gram2) // 2 + 1 == l + 1
    assert classify_non_locally_free(MukaiVector(2, (1,), 0), gram2).kind == \
        HAS_LOCALLY_FREE


def test_hilb_index_and_euler(gram2):
    assert hilb_index(MukaiVector(1, (0,), 1), gram2) == 0
    for n in range(5):
        assert hilb_index(MukaiVector(1, (0,), 1 - n), gram2) == n
    assert hilb_index(MukaiVector(2, (1,), 0), gram2) == 2
    assert euler_characteristic(MukaiVector(1, (0,), 1), gram2) == 1
    assert euler_characteristic(MukaiVector(1, (0,), 0), gram2) == 24
    assert euler_characteristic(MukaiVector(1, (0,), -2), gram2) == 3200


def test_euler_deformation_invariance(rng):
    seen = {}
    for _ in range(400):
        lat = random_lattice(rng, max_rank=2)
        v = random_vector(rng, lat.rank, spread=4)
        if v.r <= 0 or not primitive(v) or square(v, lat) < -2:
            continue
        idx = hilb_index(v, lat)
        chi = euler_characteristic(v, lat)
        if idx in seen:
            assert seen[idx] == chi
        seen[idx] = chi


# every question asked of one vector: the lattice square, the moduli predicates, chi_virtual
_QUESTIONS = (square, classify_case, exists_stable_primitive, exists_semistable,
              exists_mu_stable, moduli_dim, hilb_index, euler_characteristic,
              classify_non_locally_free, mu_stable_boundary_flag, chi_virtual)


def _answer(question, v, lat):
    try:
        return question(v, lat)
    except InputError as exc:
        return type(exc), str(exc)


@st.composite
def _gram(draw, n):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2 * draw(st.integers(-3, 3))
        for j in range(i):
            g[i][j] = g[j][i] = draw(st.integers(-3, 3))
    return g


@st.composite
def _memo_case(draw):
    n = draw(st.integers(1, 4))
    gram = draw(_gram(n))
    a, a_twin = EvenLattice(gram), EvenLattice([list(row) for row in gram])
    b = EvenLattice(draw(_gram(draw(st.integers(1, 4))).filter(lambda g: g != gram)))
    length = draw(st.sampled_from((n, n, n, n - 1, n + 1)))      # sometimes a wrong c1 length
    base = MukaiVector(draw(st.integers(-2, 5)), draw(st.lists(st.integers(-3, 3),
                       min_size=length, max_size=length)), draw(st.integers(-6, 4)))
    scale = draw(st.integers(1, 3))         # built by _mukai; non-primitive if > 1
    asks = draw(st.lists(st.tuples(st.sampled_from(_QUESTIONS), st.sampled_from((a, a_twin, b))),
                         min_size=1, max_size=30))
    return scale * base, asks


@settings(max_examples=300, deadline=None)
@given(_memo_case())
def test_memo_answers_as_a_fresh_vector_would(case):
    v, asks = case
    for question, lat in asks:
        assert _answer(question, v, lat) == _answer(question, MukaiVector(v.r, v.c1, v.a), lat)
    fresh = MukaiVector(v.r, v.c1, v.a)
    assert v == fresh and hash(v) == hash(fresh) and repr(v) == repr(fresh)
    assert pickle.loads(pickle.dumps(v)) == fresh
    assert MukaiVector._fields == ("r", "c1", "a")


def test_one_vector_costs_at_most_two_pairings(monkeypatch):
    lat = EvenLattice(((2, 1), (1, -4)))
    bilinear, calls = EvenLattice._bilinear, []

    def counted(self, x, y):
        calls.append((x, y))
        return bilinear(self, x, y)

    monkeypatch.setattr(EvenLattice, "_bilinear", counted)
    v = MukaiVector(4, (2, 0), 1)           # 2 v0 - omega, v0 = (2, (1, 0), 1): case B, l = 2
    answers = [question(v, lat) for question in _QUESTIONS]
    assert answers[1].case == "B" and answers[8].kind == REFL_POINT
    assert len(calls) <= 2                  # one for <v^2>, at most one for (xi^2)


# vectors with the same constant answer, two on one lattice and two on another
_CASE_A = (((3, (1,), 0), ((2,),)), ((3, (2,), 1), ((2,),)),
           ((3, (1, 0), 0), ((2, 1), (1, -4))), ((2, (1, 1), 0), ((2, 1), (1, -4))))
_SURFACE = (((4, (2,), 1), ((2,),)), ((4, (2, 0), 1), ((2, 1), (1, -4))))   # (rk v0) v0 - omega


@pytest.mark.parametrize("question, asks, fresh", [
    (classify_case, _CASE_A, CaseInfo("A", None)),
    (classify_non_locally_free, _CASE_A, NonLocallyFree(HAS_LOCALLY_FREE, None)),
    (classify_non_locally_free, _SURFACE, NonLocallyFree(REFL_POINT, "X"))],
    ids=["case_a", "has_locally_free", "refl_point"])
def test_a_constant_answer_is_one_shared_immutable_record(question, asks, fresh):
    # every vector with the same constant answer gets the one record built at import; this is
    # safe because a Value cannot change and compares by its fields
    answers = [question(MukaiVector(*v), EvenLattice(gram)) for v, gram in asks]
    assert all(answer is answers[0] for answer in answers)
    assert answers[0] == fresh and hash(answers[0]) == hash(fresh)
    with pytest.raises(AttributeError):
        setattr(answers[0], fresh._fields[0], "B")
    assert answers[0] == fresh
    assert pickle.loads(pickle.dumps(answers[0])) == fresh


def _message(call) -> str:
    with pytest.raises(InputError) as info:
        call()
    return str(info.value)


def test_one_message_per_fault(gram2):
    wrong_length = MukaiVector(2, (1, 0), 1)
    calls = [lambda f=f: f(wrong_length, gram2)
             for f in (classify_case, square, moduli_dim, chi_virtual)]
    calls.append(lambda: mukai_pairing(wrong_length, wrong_length, gram2))
    assert {_message(call) for call in calls} == {
        "vector of length 2 does not match lattice rank 1"}
    rank_zero = MukaiVector(0, (1,), 1)
    assert {_message(lambda f=f: f(rank_zero, gram2))
            for f in _QUESTIONS if f is not square} == {"rank must be at least 1"}


def test_chi_virtual_checks_its_work_between_rank_and_length(gram2):
    # the divisor scan's cap on content(v) is read before the c1 length, after the rank
    huge = (MAX_WORK + 1) * MukaiVector(1, (0, 0), 1)
    assert _message(lambda: chi_virtual(huge, gram2)) == \
        f"chi_virtual would visit more than {MAX_WORK} candidates"
    assert _message(lambda: chi_virtual(-huge, gram2)) == "rank must be at least 1"
    assert {_message(lambda f=f: f(huge, gram2)) for f in _QUESTIONS if f is not chi_virtual} \
        == {"vector of length 2 does not match lattice rank 1"}


def test_a_fractional_euler_number_is_a_consistency_error(monkeypatch):
    # chi(Hilb^2) is 324; from 325 Miller's recurrence divides chi(Hilb^4) with a remainder
    monkeypatch.setattr(moduli, "_hilb_euler", [1, 24, 325])
    with pytest.raises(ConsistencyError) as exc:
        moduli._hilb_table(5)
    assert str(exc.value) == "chi(Hilb^4) is not an integer"
