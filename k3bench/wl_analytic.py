"""Workload ``analytic``: partition functions, q-series evaluation and theta sums.

Every operation computes Z_r^alpha for r = 2 and 3 three ways (direct, Hecke,
literal Hecke), evaluates q^-1 prod (1 - q^n)^-24 at tau and -1/tau, sums a
coset theta series of a diagonal definite rank-2 form written in a skewed
basis, and evaluates the full rank-2 partition function of a toy lattice
directly and factorized.  The skewed basis leaves the points of the theta sum
unchanged but widens the box that the program enumerates.  The toy lattice is
Gram [-2], except in every eighth operation, where it is the rank-2 lattice
Gram diag(-2, -2): those operations cost about 2.5 times as much and set the
latency tail.
"""

from __future__ import annotations

import cmath
import random

import oracles
from oracles import require

ROUND = 16
TAIL_PCT = 95           # inside the rank-2 operations, 12.5% of the total
LARGE_EVERY = 8
MIN_ROUNDS = 1
ORDER = 12              # truncation order of Z_r^alpha
Z1_ORDER = 42           # truncation order of Z_1^0 for the S-law
THETA_DIAG = (1, 2)     # Q = diag(2, 4) in the diagonal basis
SKEW = 4
THETA_RADIUS = 6.0
WARM_INDEX = 128        # beyond every Euler number an operation reads
ZFULL_SIZES = {1: (8.0, 12, 5.0), 2: (6.0, 10, 4.0)}    # toy rank: cutoff, order, radius


def _tau(rng: random.Random) -> complex:
    return cmath.rect(rng.uniform(0.95, 1.05), rng.uniform(1.22, 1.92))    # 70 to 110 degrees


def build(seed: int, ctx) -> list[dict]:
    rng = random.Random(f"analytic-{seed}")
    ops = []
    for i in range(ROUND):
        skew = [[1, rng.choice((SKEW, -SKEW))], [0, 1]]     # either sign costs the same
        ops.append({"k": rng.randint(1, 2), "alpha": rng.randint(0, 1),
                    "tau": _tau(rng), "skew": skew,
                    "coset": (rng.randint(0, 1), rng.randint(0, 1)),
                    "toy_rank": 2 if i % LARGE_EVERY == LARGE_EVERY - 1 else 1})
    return ops


def prepare(k3, ops) -> None:
    """Lattice and splitting objects; part of set-up, as a user would build them once."""
    for op in ops:
        b = op["skew"]
        g = [[-2 * THETA_DIAG[0], 0], [0, -2 * THETA_DIAG[1]]]
        gram = tuple(tuple(sum(b[x][i] * g[x][y] * b[y][j] for x in range(2) for y in range(2))
                           for j in range(2)) for i in range(2))
        op["surface"] = k3.EvenLattice(((2 * op["k"],),))
        op["theta_lat"] = k3.EvenLattice(gram)
        op["theta_split"] = k3.Splitting.identity_positive(op["theta_lat"])
        op["toy"] = k3.EvenLattice(((-2, 0), (0, -2)) if op["toy_rank"] == 2 else ((-2,),))
        op["toy_split"] = k3.Splitting.identity_positive(op["toy"])


def warm(k3, ops) -> None:
    prepare(k3, ops)
    k3.hilb_euler(WARM_INDEX)


def oracle(ops, ctx) -> list[int]:
    return None


def run_op(k3, op, tr) -> dict:
    lat, alpha, tau = op["surface"], (op["alpha"],), op["tau"]
    out = {"series": []}
    for r in (2, 3):
        with tr.span("partitions.z_psu_direct") as sp:
            direct = k3.z_psu_direct(r, alpha, ORDER, lat)
            sp[5] = len(direct.coeffs)
        with tr.span("partitions.z_psu_hecke") as sp:
            hecke = k3.z_psu_hecke(r, alpha, ORDER, lat)
            sp[5] = len(hecke.coeffs)
        with tr.span("partitions.literal") as sp:
            literal = k3.z_psu_hecke_literal(r, alpha, ORDER, lat)
            sp[5] = len(literal.coeffs)
        out["series"].append((direct, hecke, literal))
    with tr.span("qseries.z1_evaluate"):
        z1 = k3.z1_zero(Z1_ORDER)
        out["at_tau"] = k3.qs_evaluate(z1, tau)
        out["at_s_tau"] = k3.qs_evaluate(z1, -1 / tau)
    with tr.span("theta.theta_siegel_narain") as sp:
        out["theta"] = k3.theta_siegel_narain(op["theta_lat"], op["coset"], 2, tau,
                                              op["theta_split"], None, THETA_RADIUS)
        sp[5] = out["theta"].points
    with tr.span("theta.z_full") as sp:
        cutoff, order, radius = ZFULL_SIZES[op["toy_rank"]]
        out["direct"] = k3.z_full_direct(op["toy"], 2, tau, op["toy_split"], None,
                                         cutoff, radius)
        out["factorized"] = k3.z_full_factorized(op["toy"], 2, tau, op["toy_split"], None,
                                                 order, radius)
        sp[5] = out["direct"].terms + out["factorized"].terms
    return out


def check(op, out, _) -> None:
    import mpmath

    for direct, hecke, literal in out["series"]:
        require(direct == hecke, "direct = Hecke exactly")
        exps = {e for e, _ in hecke.items()} | {e for e, _ in literal.items()}
        with mpmath.workdps(80):        # the literal path carries ~60 digits at this order
            for e in exps:
                c, want = literal.coeff(e), hecke.coeff(e)
                exact = mpmath.mpf(want.numerator) / want.denominator
                require(abs(mpmath.im(c)) < 1e-9 and abs(mpmath.re(c) - exact) < 1e-9,
                        "literal within 1e-9 of the exact coefficients")
    tau = op["tau"]
    lhs, rhs = out["at_s_tau"].value, (-1j * tau) ** (-12) * out["at_tau"].value
    require(abs(lhs - rhs) <= 1e-6 * abs(lhs), "Z_1^0 S-law to 1e-6")
    b = op["skew"]
    beta = [sum(b[i][j] * op["coset"][j] for j in range(2)) % 2 for i in range(2)]
    want = oracles.coset_theta(THETA_DIAG, beta, 2, tau)
    th = out["theta"]
    require(abs(th.value - want) <= th.tail + 1e-9, "theta = Jacobi theta_3 product")
    d, f = out["direct"], out["factorized"]
    require(abs(d.value - f.value) <= d.tail + f.tail + 1e-6, "z_full direct = factorized")


def layer_metrics(rows, n_ops: int) -> dict:
    """Per-operation means in ms at nominal speed; rates per nominal second."""
    def total(prefix, field):
        return sum(row[field] for row in rows if row[0].startswith(prefix))

    per_op_ms = lambda prefix: 1000.0 * total(prefix, 1) / n_ops
    return {
        "qseries.self_ms": (per_op_ms("qseries."), "ms"),
        "partitions.self_ms": (per_op_ms("partitions."), "ms"),
        "partitions.literal_ms": (per_op_ms("partitions.literal"), "ms"),
        "partitions.terms": (total("partitions.", 2) / n_ops, "count"),
        "theta.self_ms": (per_op_ms("theta."), "ms"),
        "theta.points_s": (total("theta.theta_", 2) / total("theta.theta_", 1), "1/s"),
        "theta.zfull_terms_s": (total("theta.z_full", 2) / total("theta.z_full", 1), "1/s"),
    }
