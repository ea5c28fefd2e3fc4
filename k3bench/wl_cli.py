"""Workload ``cli``: ``python -m k3tk`` spawned once per operation.

A round is one pass over a fixed cyclic schedule, so every run has the same
mix; the seed only changes the inputs.  Classes:

* int: pair, translate, word, construct, invariants at a small square and
  chivirtual, twice each -- import-bound, they make up the median;
* bad: inputs whose correct outcome is exit 2 with an {"error"} document;
* fault: two such inputs the program gets wrong today (a fractional N is
  truncated, a missing N gives a traceback); they fail on every run;
* float: theta, zseries --method literal, zfull;
* sweep: verify triangle and verify farey;
* cold: gottsche --order ~600 and invariants of a vector with a large
  square, which compute Hilbert-scheme Euler numbers from a cold cache.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

import oracles
from oracles import require

TAIL_PCT = 81           # 54 samples in two rounds: 10.3 beyond, inside the cold class
MIN_ROUNDS = 2
THETA_DIAG = (1, 2)
SKEW = 4
GOTTSCHE_ORDERS = (580, 620)     # the largest Euler index the workload reads is 619
BIG_INDICES = (445, 450)
MAX_INDEX = GOTTSCHE_ORDERS[1] - 1
# Share of each kind of operation spent starting the interpreter and importing,
# at nominal speed: the time of a bare ``pair`` over the kind's own time.
START_SHARE = {"int": 1.0, "bad": 1.0, "fault": 1.0, "float": 0.95, "sweep": 0.8,
               "gottsche": 0.2, "invariants": 0.7}
SCHEDULE = (["int"] * 12 + ["bad"] * 2 + ["fault"] * 2 + ["float"] * 3 + ["sweep"] * 2
            + ["cold"] * 8)


def _write(ctx, name: str, doc) -> str:
    path = os.path.join(ctx.workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _vec(v) -> dict:
    return {"r": v[0], "c1": list(v[1]), "a": v[2]}


def _raw(doc) -> tuple:
    return (doc["r"], tuple(doc["c1"]), doc["a"])


def _small_vector(rng, gram, primitive=True):
    while True:
        r = rng.randint(1, 3)
        c1 = tuple(rng.randint(-2, 2) for _ in gram)
        half_sq = oracles.pairing((0, c1, 0), (0, c1, 0), gram) // 2
        a = (half_sq + 1 - rng.randint(0, 8)) // r
        v = (r, c1, a)
        if not primitive or oracles.content(v) == 1:
            return v


def _ok_doc(rc, out, err):
    require(rc == 0 and not err, "exit 0 with a clean stderr")
    return json.loads(out)


def _int_ops(rng, ctx, tag, gram, surface):
    x, y = _small_vector(rng, gram, False), _small_vector(rng, gram, False)
    xp, yp = _write(ctx, f"x{tag}.json", _vec(x)), _write(ctx, f"y{tag}.json", _vec(y))
    shift = tuple(rng.randint(-2, 2) for _ in gram)
    word = [{"type": "translate", "N": list(shift)}, {"type": "negate"}, {"type": "dual"},
            {"type": "nsauto", "M": [[-1, 0], [0, -1]]}]
    rng.shuffle(word)
    wp = _write(ctx, f"word{tag}.json", word)
    p = _small_vector(rng, gram)
    pp = _write(ctx, f"p{tag}.json", _vec(p))
    p2 = (2 * p[0], tuple(2 * c for c in p[1]), 2 * p[2])
    p2p = _write(ctx, f"p2{tag}.json", _vec(p2))
    while True:
        l, r, s, a = rng.randint(1, 3), rng.randint(1, 4), rng.randint(0, 5), rng.randint(-4, 4)
        if gcd(l, a) == 1 and l * s - r * a >= 0:
            break

    def pair(doc, euler):
        require(doc["pairing"] == oracles.pairing(x, y, gram), "pair = hand expansion")

    def translate(doc, euler):
        require(_raw(doc["vector"]) == oracles.translate(shift, x, gram), "translate")

    def apply_word(doc, euler):
        got = _raw(doc["vector"])
        require(got == oracles.apply_word(word, x, gram), "word = generator by generator")
        require(oracles.pairing(got, got, gram) == oracles.pairing(x, x, gram),
                "word preserves the square")

    def construct(doc, euler):
        oracles.aux_invariants(l, r, s, a, doc)

    def invariants(doc, euler):
        _check_invariants(doc, p, gram, euler)

    def chivirtual(doc, euler):
        want = oracles.chi_virtual(p2, gram, euler)
        require(Fraction(doc["chi_virtual"]["num"], doc["chi_virtual"]["den"]) == want,
                "chi_virtual = divisor sum")

    return [
        (["pair", "--surface", surface, "--x", xp, "--y", yp], pair),
        (["translate", "--surface", surface, "--N=" + ",".join(map(str, shift)), "--v", xp],
         translate),
        (["word", "--surface", surface, "--word", wp, "--v", xp], apply_word),
        (["construct", "--l", str(l), "--r", str(r), "--s", str(s), "--a", str(a)], construct),
        (["invariants", "--surface", surface, "--v", pp], invariants),
        (["chivirtual", "--surface", surface, "--v", p2p], chivirtual),
    ]


def _check_invariants(doc, v, gram, euler):
    sq = oracles.pairing(v, v, gram)
    require(doc["square"] == sq and doc["exists"] is True, "square and existence")
    require(doc["dim"] == sq + 2, "dim = <v^2> + 2")
    require(doc["euler"] == euler[sq // 2 + 1], "Euler number = partition DP")


def _error_check(rc, out, err):
    require(rc == 2 and not err, "bad input exits 2 without a traceback")
    require("error" in json.loads(out), "bad input gives an {\"error\"} document")


def _tau_args(tau: complex) -> list[str]:
    return ["--tau", repr(tau.real), repr(tau.imag)]


def build(seed: int, ctx) -> list[dict]:
    rng = random.Random(f"cli-{seed}")
    gram = [[2, rng.randint(-1, 1)], [0, rng.choice((-2, 2, 4))]]
    gram[1][0] = gram[0][1]
    surface = _write(ctx, "surface.json", {"rank": 2, "gram": gram})
    ints = _int_ops(rng, ctx, "a", gram, surface) + _int_ops(rng, ctx, "b", gram, surface)
    x = _write(ctx, "bad-x.json", _vec(_small_vector(rng, gram)))
    rank0 = _write(ctx, "rank0.json", {"r": 0, "c1": [1, 0], "a": rng.randint(-3, 3)})
    unknown = _write(ctx, "unknown.json", [{"type": "rotate"}])
    frac = _write(ctx, "frac.json", [{"type": "translate", "N": [1.5, 0]}])
    missing = _write(ctx, "missing.json", [{"type": "translate"}])
    bad = [(["invariants", "--surface", surface, "--v", rank0], None),
           (["word", "--surface", surface, "--word", unknown, "--v", x], None)]
    fault = [(["word", "--surface", surface, "--word", frac, "--v", x], None),
             (["word", "--surface", surface, "--word", missing, "--v", x], None)]

    # float: skewed diagonal theta, literal Hecke series, full partition function
    tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.95, 1.1))
    skew = [[1, rng.choice((SKEW, -SKEW))], [0, 1]]
    g = [[-2 * THETA_DIAG[0], 0], [0, -2 * THETA_DIAG[1]]]
    theta_gram = [[sum(skew[p][i] * g[p][q] * skew[q][j] for p in range(2) for q in range(2))
                   for j in range(2)] for i in range(2)]
    theta_surface = _write(ctx, "theta-surface.json", {"rank": 2, "gram": theta_gram})
    coset = (rng.randint(0, 1), rng.randint(0, 1))
    beta = [sum(skew[i][j] * coset[j] for j in range(2)) % 2 for i in range(2)]
    k, r_z, alpha = rng.randint(1, 2), rng.choice((2, 3)), rng.randint(0, 2)
    z_surface = _write(ctx, "z-surface.json", {"rank": 1, "gram": [[2 * k]]})
    toy = _write(ctx, "toy.json", {"rank": 1, "gram": [[-2]]})

    def theta(doc, euler):
        want = oracles.coset_theta(THETA_DIAG, beta, 2, tau)
        require(abs(complex(*doc["value"]) - want) <= doc["tail"] + 1e-9, "theta product")

    def zseries(doc, euler):
        want = oracles.z_series(r_z, (alpha,), 12, [[2 * k]], euler)
        got = {Fraction(t["exp"]["num"], t["exp"]["den"]): t["coeff"] for t in doc["terms"]}
        for e in set(got) | set(want):
            re, im = got.get(e, (0.0, 0.0))
            exact = want.get(e, Fraction(0))
            require(abs(im) <= 1e-9 * max(1, abs(exact)), "literal imaginary part")
            require(abs(re - exact) <= 1e-9 * max(1, abs(exact)), "literal = exact series")

    def zfull(doc, euler):
        d, f = doc["direct"], doc["factorized"]
        require(abs(complex(*d["value"]) - complex(*f["value"])) <= d["tail"] + f["tail"] + 1e-6,
                "z_full direct = factorized")

    floats = [(["theta", "--surface", theta_surface, "--rank", "2",
                "--alpha", f"{coset[0]},{coset[1]}", *_tau_args(tau), "--radius", "4",
                "--splitting", "identity"], theta),
              (["zseries", "--surface", z_surface, "--rank", str(r_z), "--alpha", str(alpha),
                "--order", "12", "--method", "literal"], zseries),
              (["zfull", "--surface", toy, "--rank", "2", *_tau_args(tau),
                "--splitting", "identity"], zfull)]

    def no_counterexamples(doc, euler):
        require(doc["counterexamples"] == 0 and doc["checked"] > 0, "sweep finds nothing")

    sweeps = [(["verify", "triangle", "--bound", "24"], no_counterexamples),
              (["verify", "farey", "--bound", "40"], no_counterexamples)]

    # cold: two Goettsche requests and six invariants with a large square
    colds = []
    for _ in range(2):
        order = rng.randint(*GOTTSCHE_ORDERS)
        colds.append((["gottsche", "--order", str(order)],
                      lambda doc, euler, n=order: require(doc["coeffs"] == euler[:n],
                                                   "Goettsche series = partition DP")))
    for i in range(6):
        idx, d = rng.randint(*BIG_INDICES), rng.randint(5, 15)
        big = (1, (d,), d * d + 1 - idx)       # on Gram [2]: <v^2>/2 + 1 = idx
        path = _write(ctx, f"big{i}.json", _vec(big))
        colds.append((["invariants", "--v", path],
                      lambda doc, euler, v=big: _check_invariants(doc, v, [[2]], euler)))

    pools = {"int": ints, "bad": bad, "fault": fault, "float": floats, "sweep": sweeps,
             "cold": colds}
    ops = []
    for cls in SCHEDULE:
        argv, check_doc = pools[cls].pop(0)
        ops.append({"cls": cls, "kind": argv[0] if cls == "cold" else cls, "ctx": ctx,
                    "argv": [sys.executable, "-m", "k3tk", *argv],
                    "check": check_doc, "fault": cls == "fault"})
    return ops


def slowness(op, reading, nominal) -> float:
    """The host's slowness for this operation, blending the yardstick's two parts."""
    total, compute = reading
    share = START_SHARE[op["kind"]]
    return (share * (total - compute) / nominal["child_start_s"]
            + (1 - share) * compute / nominal["child_compute_s"])


def warm(k3, ops) -> None:
    pass


def oracle(ops, ctx) -> list[int]:
    return oracles.colored_partition_counts(MAX_INDEX + 1)


def spawn(argv, ctx):
    """(exit code, stdout, stderr, peak RSS in KiB) of one child, waited for with wait4."""
    with open(os.path.join(ctx.workdir, "stderr.txt"), "w+b") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=ctx.env,
                                cwd=ctx.root)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return proc.returncode, out.decode(), err.read().decode(), usage.ru_maxrss


def run_op(k3, op, tr):
    ctx = op["ctx"]
    with tr.span(f"cli.{op['cls']}"):
        rc, out, err, maxrss = spawn(op["argv"], ctx)
    ctx.child_maxrss_kb = max(ctx.child_maxrss_kb, maxrss)
    return rc, out, err


def check(op, result, euler) -> None:
    rc, out, err = result
    if op["check"] is None:
        _error_check(rc, out, err)
    else:
        op["check"](_ok_doc(rc, out, err), euler)
