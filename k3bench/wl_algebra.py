"""Workload ``algebra``: exact lattice, isometry, moduli and construction work.

One operation handles four requests, one on a random even lattice of each
rank 1 to 4, so that every operation has the same make-up.  The last
operation of every round is a large request, with four times the batch; it
sets the latency tail.  A request is a
JSON text holding a lattice, a batch of Mukai vectors and a word of one
translate, reflect, nsauto, negate and dual in random order.  The operation
parses it (the validation boundary), applies the word to the whole batch,
evaluates pairings, the moduli invariants and chi_virtual, checks R^2 = id
and T_N T_M = T_{N+M} through the program, and builds one auxiliary
construction with its triangle count.
"""

from __future__ import annotations

import json
import random
from math import gcd

import oracles
from oracles import require

ROUND = 25          # operations per round; every round repeats the same ones
TAIL_PCT = 98       # inside the large requests, which are 4% of the operations
MIN_ROUNDS = 1
BATCH = 6           # primitive vectors per request
LARGE_BATCH = 4 * BATCH
MAX_INDEX = 15      # largest Hilbert-scheme index of a batch vector
WARM_INDEX = 4 * (MAX_INDEX - 1) + 1    # index of 2v for the divisor sum


def _lattice(rng: random.Random, rank: int) -> list[list[int]]:
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        gram[i][i] = rng.choice((-4, -2, 2, 4))
        for j in range(i):
            gram[i][j] = gram[j][i] = rng.randint(-2, 2)
    gram[0][0] = rng.choice((-2, 2))     # e_0 is a (+-2)-root: its reflection is an nsauto
    return gram


def _vector(rng: random.Random, gram) -> tuple:
    rank = len(gram)
    while True:
        r = rng.randint(1, 4)
        c1 = tuple(rng.randint(-3, 3) for _ in range(rank))
        half_sq = oracles.pairing((0, c1, 0), (0, c1, 0), gram) // 2
        target = rng.randint(0, MAX_INDEX - 3)
        a = (half_sq + 1 - target) // r       # index half_sq + 1 - r a in [target, target + r)
        v = (r, c1, a)
        if oracles.content(v) == 1:
            return v


def _root_reflection(gram, sign: int) -> list[list[int]]:
    """sign * (x -> x - 2 (e_0.x)/(e_0.e_0) e_0), integral since e_0.e_0 = +-2."""
    rank = len(gram)
    unit = 2 // gram[0][0]
    m = [[int(i == j) for j in range(rank)] for i in range(rank)]
    for j in range(rank):
        m[0][j] -= unit * gram[0][j]
    return [[sign * x for x in row] for row in m]


def _vec_json(v) -> dict:
    return {"r": v[0], "c1": list(v[1]), "a": v[2]}


def _request(rng: random.Random, rank: int, size: int) -> dict:
    gram = _lattice(rng, rank)
    batch = [_vector(rng, gram) for _ in range(size)]
    shift = [rng.randint(-2, 2) for _ in range(rank)]
    u = oracles.translate(tuple(rng.randint(-1, 1) for _ in range(rank)),
                          (1, (0,) * rank, 1), gram)          # square -2
    word = [{"type": "translate", "N": shift},
            {"type": "reflect", "u": _vec_json(u)},
            {"type": "nsauto", "M": _root_reflection(gram, rng.choice((1, -1)))},
            {"type": "negate"},
            {"type": "dual"}]
    rng.shuffle(word)
    other = tuple(rng.randint(-2, 2) for _ in range(rank))
    text = json.dumps({"lattice": {"rank": rank, "gram": gram},
                       "batch": [_vec_json(v) for v in batch], "word": word})
    return {"text": text, "gram": gram, "batch": batch, "word": word,
            "u": u, "shift": tuple(shift), "other": other}


def _aux_input(rng: random.Random) -> tuple:
    while True:
        l, r, s, a = rng.randint(1, 3), rng.randint(1, 4), rng.randint(0, 5), rng.randint(-4, 4)
        if gcd(l, a) == 1 and l * s - r * a >= 0:
            return l, r, s, a


def build(seed: int, ctx) -> list[dict]:
    rng = random.Random(f"algebra-{seed}")
    sizes = [BATCH] * (ROUND - 1) + [LARGE_BATCH]
    return [{"requests": [_request(rng, rank, size) for rank in (1, 2, 3, 4)],
             "aux": _aux_input(rng)} for size in sizes]


def warm(k3, ops) -> None:
    k3.hilb_euler(WARM_INDEX)


def oracle(ops, ctx) -> list[int]:
    return oracles.colored_partition_counts(WARM_INDEX + 1)


def _request_op(k3, req, tr) -> dict:
    doc = json.loads(req["text"])
    size = len(doc["batch"])
    with tr.span("lattice.from_json", 1 + size):
        lat = k3.EvenLattice.from_json(doc["lattice"])
        batch = [k3.MukaiVector.from_json(v) for v in doc["batch"]]
    with tr.span("isometry.parse"):
        word = k3.IsometryWord.from_json(doc["word"], lat)
    with tr.span("isometry.apply", size * len(word.elems)):
        moved = [word.apply(v, lat) for v in batch]
    u = k3.MukaiVector(*req["u"])
    with tr.span("isometry.apply", 5):
        twice = k3.apply_reflect(u, k3.apply_reflect(u, batch[0], lat), lat)
        t_nm = k3.apply_translate(req["shift"],
                                  k3.apply_translate(req["other"], batch[0], lat), lat)
        t_sum = k3.apply_translate(tuple(n + m for n, m in zip(req["shift"], req["other"])),
                                   batch[0], lat)
    pairs = size - 1
    with tr.span("lattice.pairing", 2 * pairs):
        before = [k3.mukai_pairing(batch[i], batch[i + 1], lat) for i in range(pairs)]
        after = [k3.mukai_pairing(moved[i], moved[i + 1], lat) for i in range(pairs)]
    with tr.span("moduli.invariants", 7 * size):
        inv = [(k3.classify_case(v, lat), k3.exists_stable_primitive(v, lat),
                k3.exists_semistable(v, lat), k3.exists_mu_stable(v, lat),
                k3.moduli_dim(v, lat), k3.classify_non_locally_free(v, lat),
                k3.euler_characteristic(v, lat)) for v in batch]
    with tr.span("partitions.chi_virtual", size + 1):
        chis = [k3.chi_virtual(v, lat) for v in batch]
        chi2 = k3.chi_virtual(2 * batch[0], lat)
    return {"batch": batch, "moved": moved, "twice": twice, "t_nm": t_nm, "t_sum": t_sum,
            "before": before, "after": after, "inv": inv, "chis": chis, "chi2": chi2}


def run_op(k3, op, tr) -> dict:
    out = {"requests": [_request_op(k3, req, tr) for req in op["requests"]]}
    l, r, s, a = op["aux"]
    with tr.span("constructions.build_auxiliary"):
        aux = k3.build_auxiliary(l, r, s, a)
    with tr.span("constructions.triangle_interior_count"):
        out["interior"] = k3.triangle_interior_count(aux.r1, aux.d1, aux.r, aux.dprime, aux.l)
    out["aux"] = aux.to_json()
    return out


def _raw(v) -> tuple:
    return (v.r, v.c1, v.a)


def _check_request(req, out, euler) -> None:
    gram = req["gram"]
    batch = req["batch"]
    require([_raw(v) for v in out["batch"]] == batch, "parsed batch")
    for i in range(len(batch) - 1):
        want = oracles.pairing(batch[i], batch[i + 1], gram)
        require(out["before"][i] == want, "pairing = hand expansion")
        require(out["after"][i] == want, "word preserves the pairing")
    for v, moved in zip(batch, out["moved"]):
        require(_raw(moved) == oracles.apply_word(req["word"], v, gram),
                "word = generator by generator")
    require(_raw(out["twice"]) == batch[0], "R^2 = id")
    require(out["t_nm"] == out["t_sum"], "T_N T_M = T_{N+M}")
    require(_raw(out["t_sum"]) == oracles.translate(
        tuple(n + m for n, m in zip(req["shift"], req["other"])), batch[0], gram),
        "translation = cup product")
    for v, (case, stable, semistable, mu, dim, nlf, euler_v), chi in zip(
            batch, out["inv"], out["chis"]):
        sq = oracles.pairing(v, v, gram)
        idx = sq // 2 + 1
        require(stable and semistable, "existence for <v^2> >= -2")
        require(dim == sq + 2, "moduli_dim = <v^2> + 2")
        require(euler_v == euler[idx] and chi == euler[idx], "Euler number = partition DP")
        if case.case == "B":
            w = _raw(case.v0)
            require(oracles.pairing(w, w, gram) == -2, "case-B witness is a (-2)-vector")
        if v[0] == 1:
            require(nlf.kind == "rank_one" and nlf.model == f"Hilb^{idx}", "rank-one class")
        ell = gcd(v[0], *v[1])
        require(mu == (sq >= 0 if case.case == "A" else sq >= 2 * ell * ell),
                "mu-stability criterion")
    r, c1, a = batch[0]
    doubled = (2 * r, tuple(2 * c for c in c1), 2 * a)
    require(out["chi2"] == oracles.chi_virtual(doubled, gram, euler), "divisor sum")


def check(op, out, euler) -> None:
    for req, res in zip(op["requests"], out["requests"]):
        _check_request(req, res, euler)
    l, r, s, a = op["aux"]
    doc = out["aux"]
    oracles.aux_invariants(l, r, s, a, doc)
    r1, d1, d = doc["r1"], doc["d1"], doc["dprime"]
    pick = oracles.pick_interior((0, 0), (r1 - l * r, d1 - l * d), (r1, d1))
    require(out["interior"] == 0 and pick == 0, "triangle interior = 0 (Pick)")


def layer_metrics(rows, n_ops: int) -> dict:
    """Per-operation means; times in ms at the yardstick's nominal speed."""
    def total(prefix, field):
        return sum(row[field] for row in rows if row[0].startswith(prefix))

    per_op_ms = lambda prefix: 1000.0 * total(prefix, 1) / n_ops
    return {
        "lattice.calls": (total("lattice.", 2) / n_ops, "count"),
        "lattice.self_ms": (per_op_ms("lattice."), "ms"),
        "isometry.parse_ms": (per_op_ms("isometry.parse"), "ms"),
        "isometry.apply_ms": (per_op_ms("isometry.apply"), "ms"),
        "isometry.applications": (total("isometry.apply", 2) / n_ops, "count"),
        "moduli.calls": (total("moduli.", 2) / n_ops, "count"),
        "moduli.self_ms": (per_op_ms("moduli."), "ms"),
        "constructions.self_ms": (per_op_ms("constructions."), "ms"),
    }
