"""The theta kernels give the same bits on every interpreter, over fixed inputs: spectral and
identity splittings of rank 1-4, definite and indefinite, theta sums with x absent or complex,
the rank <= 2 full sums and the a-sum bounds.

What Python computes alone (each splitting's projectors, majorant and pivots, Q x and |Im x|
in that majorant, and each kept point with its (c^2) and M(c)) is hashed against DIGEST.
What passes through libm (cmath.exp's cos and sin, math.exp, math.log1p, float pow: each
sum's value and tail, the a-sum bounds) is compared with the committed theta_bits.json to
ULPS ulps, since IEEE 754 does not require libm to round correctly.  The builtin sum
compensates float rounding from Python 3.12 on, so a float sum taken by it moves the digest
on some interpreters and not on others.

Runs without pytest too: PYTHONPATH=src python tests/test_theta_bits.py checks, and with
--write it rewrites theta_bits.json (print the new DIGEST with it) after a deliberate change.
"""

import hashlib
import json
import math
import random
import sys
from pathlib import Path

from k3tk import EvenLattice, Splitting, theta, theta_siegel_narain, z_full_direct, \
    z_full_factorized

DIGEST = "ea62a02d279c78d92e083221d94bc25cd6f5b5a16782d2d42f78dde6109dd06b"
VALUES = Path(__file__).with_name("theta_bits.json")
ULPS = 16       # a sum of many terms, each an ulp off under another libm, moves by several


def _gram(u, n: int, definite: bool):
    """S^T D S for D = diag(2 d_k), d_k in +-1..3 (all negative when definite, both signs from
    rank 2 on otherwise) and S unit upper triangular with entries in -1..1: even, never
    degenerate, and skewed, so the majorant's pivots are not its diagonal."""
    d = [-1 - int(3 * u()) for _ in range(n)]
    if not definite:
        d[int(n * u())] *= -1
    s = [[int(i == j) if i >= j else int(3 * u()) - 1 for j in range(n)] for i in range(n)]
    return tuple(tuple(sum(s[k][i] * 2 * d[k] * s[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def _inputs():
    """(gram, Splitting factory, r, tau, x, alpha, radius, full) for 160 theta inputs, the
    last 40 of rank <= 2 with their full sums, drawn from random.Random.random alone, whose
    sequence for a seed Python keeps fixed across versions."""
    u = random.Random(41).random
    for i in range(160):
        full = i >= 120
        n = 1 + i % (2 if full else 4)
        definite = i // 4 % 2 == 0
        gram = _gram(u, n, definite)
        factory = "identity_positive" if definite and i // 8 % 2 else "spectral"
        r = 1 + i // 16 % 3
        tau = complex(u() - 0.5, 0.6 + 0.9 * u())
        x = None if i % 3 == 0 else [complex(2 * u() - 1, 0.6 * u() - 0.3) for _ in range(n)]
        alpha = tuple(int(r * u()) for _ in range(n))
        radius = (5.0, 3.5, 2.5, 2.0)[n - 1] * (0.7 + 0.3 * u())
        yield gram, factory, r, tau, x, alpha, radius, full


def _record():
    """The digest of what Python computes alone, and the list of what passes through libm:
    each value as [real, imag], each tail and each a-sum bound."""
    exact, approx = [], []
    for gram, factory, r, tau, x, alpha, radius, full in _inputs():
        lat = EvenLattice(gram)
        split = getattr(Splitting, factory)(lat)
        qx, xnorm = theta._x_forms(lat, split, x)
        kept = [(c, j, sq, theta._quad(split._mj, c))
                for c, j, sq, _ in theta._ball(alpha, r, r, tau, split, qx, radius, 1, "bits")]
        exact.append([gram, split.pl, split.pr, split._mj, split._pivots, qx, xnorm, kept])
        sums = [theta_siegel_narain(lat, alpha, r, tau, split, x, radius)]
        if full:
            sums += [z_full_direct(lat, r, tau, split, x, 4.0, radius / 2),
                     z_full_factorized(lat, r, tau, split, x, 6, radius / 2)]
        approx += [v for s in sums for v in ([s.value.real, s.value.imag], s.tail)]
    approx += [theta._a_sums(r, qabs, start) for r in (1, 2, 3)
               for qabs in (0.01, 0.1, 0.3, 0.6, 0.9) for start in (0, 1, 3, 10, 40)]
    return hashlib.sha256(repr(exact).encode()).hexdigest(), approx


def _near(got, ref) -> bool:
    """got within ULPS ulps of ref, a complex number [real, imag] by its modulus."""
    if isinstance(ref, list):
        got, ref = complex(*got), complex(*ref)
    return got == ref or abs(got - ref) <= ULPS * math.ulp(abs(ref))


def test_theta_keeps_its_bits_on_every_interpreter():
    digest, approx = _record()
    want = json.loads(VALUES.read_text())
    assert len(approx) == len(want) == 2 * 160 + 4 * 40 + 75
    assert [(k, got, ref) for k, (got, ref) in enumerate(zip(approx, want))
            if not _near(got, ref)] == []
    assert digest == DIGEST


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        digest, approx = _record()
        VALUES.write_text("[\n" + ",\n".join(map(json.dumps, approx)) + "\n]\n")
        print(digest)
    else:
        test_theta_keeps_its_bits_on_every_interpreter()
        print("ok", sys.version.split()[0])
