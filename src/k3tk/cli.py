"""Command-line front end: every operation behind JSON-emitting subcommands.

Exit codes: 0 on success (one JSON document on stdout), 2 on input errors
(a machine-readable {"error": ...} document), 1 on internal invariant
failures.  Rationals are serialized as {"num": ..., "den": ...}, never as
floats on exact paths; complex values as [re, im] pairs.  Output is
deterministic for identical inputs.

When no surface file is given, the rank-1 lattice with Gram [2] is used.
K3TK_THREADS caps internal parallelism; the current implementation is
sequential, so any positive value is accepted and trivially honored.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import constructions, isometry, moduli, partitions, theta
from .errors import ConsistencyError, InputError
from .lattice import (EvenLattice, MukaiVector, dual, ell, mukai_pairing,
                      primitive, square)
from .qseries import gottsche_series

DEFAULT_SURFACE = EvenLattice(((2,),))


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


def _surface(args) -> EvenLattice:
    if getattr(args, "surface", None):
        return EvenLattice.from_json(_load_json(args.surface))
    return DEFAULT_SURFACE


def _vector(path: str) -> MukaiVector:
    return MukaiVector.from_json(_load_json(path))


def _ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise InputError(f"expected comma-separated integers, got {text!r}") from exc


def _frac_json(x: Fraction) -> dict:
    x = Fraction(x)
    return {"num": x.numerator, "den": x.denominator}


def _complex_json(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _series_json(series) -> list:
    return [{"exp": _frac_json(e), "coeff": _frac_json(c)} for e, c in series.items()]


def _emit(doc) -> int:
    print(json.dumps(doc, sort_keys=True))
    return 0


def _cmd_pair(args) -> int:
    lat = _surface(args)
    return _emit({"pairing": mukai_pairing(_vector(args.x), _vector(args.y), lat)})


def _cmd_dualize(args) -> int:
    return _emit({"vector": dual(_vector(args.v)).to_json()})


def _cmd_translate(args) -> int:
    lat = _surface(args)
    out = isometry.apply_translate(_ints(args.N), _vector(args.v), lat)
    return _emit({"vector": out.to_json()})


def _cmd_reflect(args) -> int:
    lat = _surface(args)
    out = isometry.apply_reflect(_vector(args.u), _vector(args.v), lat)
    return _emit({"vector": out.to_json()})


def _cmd_word(args) -> int:
    lat = _surface(args)
    word = isometry.IsometryWord.from_json(_load_json(args.word), lat)
    return _emit({"vector": word.apply(_vector(args.v), lat).to_json()})


def _cmd_invariants(args) -> int:
    lat = _surface(args)
    v = _vector(args.v)
    if v.r <= 0:
        raise InputError("rank must be positive")
    is_prim = primitive(v, lat)
    sq = square(v, lat)
    info = moduli.classify_case(v, lat)
    doc = {
        "vector": v.to_json(),
        "square": sq,
        "ell": ell(v, lat),
        "primitive": is_prim,
        "case": info.case,
        "v0": info.v0.to_json() if info.v0 else None,
        "exists_semistable": moduli.exists_semistable(v, lat),
        "mu_stable_boundary_flag": moduli.mu_stable_boundary_flag(v, lat),
    }
    if is_prim:
        exists = moduli.exists_stable_primitive(v, lat)
        doc["exists"] = exists
        if exists:
            doc["dim"] = moduli.moduli_dim(v, lat)
            doc["hilb_index"] = moduli.hilb_index(v, lat)
            doc["euler"] = moduli.euler_characteristic(v, lat)
            doc["mu_stable"] = moduli.exists_mu_stable(v, lat)
            nlf = moduli.classify_non_locally_free(v, lat)
            doc["non_locally_free"] = {"kind": nlf.kind, "model": nlf.model}
        else:
            doc.update({"dim": None, "hilb_index": None, "euler": None,
                        "mu_stable": None, "non_locally_free": None})
    else:
        doc["exists"] = doc["exists_semistable"]
    return _emit(doc)


def _cmd_gottsche(args) -> int:
    series = gottsche_series(args.order)
    coeffs = [int(series.coeff(n)) for n in range(args.order)]
    if args.lines:
        for c in coeffs:
            print(c)
        return 0
    return _emit({"coeffs": coeffs})


def _cmd_chivirtual(args) -> int:
    lat = _surface(args)
    return _emit({"chi_virtual": _frac_json(partitions.chi_virtual(_vector(args.v), lat))})


def _cmd_zseries(args) -> int:
    lat = _surface(args)
    alpha = _ints(args.alpha) if args.alpha else (0,) * lat.rank
    order = Fraction(args.order)
    if args.method == "direct":
        series = partitions.z_psu_direct(args.rank, alpha, order, lat)
        return _emit({"method": "direct", "terms": _series_json(series)})
    if args.method == "hecke":
        series = partitions.z_psu_hecke(args.rank, alpha, order, lat)
        return _emit({"method": "hecke", "terms": _series_json(series)})
    series = partitions.z_psu_hecke_literal(args.rank, alpha, order, lat)
    terms = [{"exp": _frac_json(e), "coeff": _complex_json(c)}
             for e, c in series.items()]
    return _emit({"method": "literal", "terms": terms})


def _split(args, lat: EvenLattice) -> theta.Splitting:
    if args.splitting == "identity":
        return theta.Splitting.identity_positive(lat)
    return theta.Splitting.spectral(lat)


def _x_vector(args, lat: EvenLattice):
    if not args.x:
        return None
    parts = [float(p) for p in args.x.split(",")]
    if len(parts) != 2 * lat.rank:
        raise InputError("x must interleave re,im once per lattice coordinate")
    return [complex(parts[2 * i], parts[2 * i + 1]) for i in range(lat.rank)]


def _cmd_theta(args) -> int:
    lat = _surface(args)
    alpha = _ints(args.alpha) if args.alpha else (0,) * lat.rank
    tau = complex(args.tau[0], args.tau[1])
    result = theta.theta_siegel_narain(lat, alpha, args.rank, tau,
                                       _split(args, lat), _x_vector(args, lat),
                                       args.radius)
    return _emit({"value": _complex_json(result.value), "tail": result.tail,
                  "points": result.points})


def _cmd_zfull(args) -> int:
    lat = _surface(args)
    tau = complex(args.tau[0], args.tau[1])
    split = _split(args, lat)
    x = _x_vector(args, lat)
    doc = {}
    if args.method in ("direct", "both"):
        res = theta.z_full_direct(lat, args.rank, tau, split, x,
                                  args.cutoff, args.radius)
        doc["direct"] = {"value": _complex_json(res.value), "tail": res.tail,
                         "terms": res.terms}
    if args.method in ("factorized", "both"):
        res = theta.z_full_factorized(lat, args.rank, tau, split, x,
                                      args.order, args.radius)
        doc["factorized"] = {"value": _complex_json(res.value), "tail": res.tail,
                             "terms": res.terms}
    if args.method == "both":
        doc["difference"] = abs(complex(*doc["direct"]["value"])
                                - complex(*doc["factorized"]["value"]))
    return _emit(doc)


def _cmd_construct(args) -> int:
    aux = constructions.build_auxiliary(args.l, args.r, args.s, args.a, args.bound)
    return _emit(aux.to_json())


def _cmd_verify(args) -> int:
    if args.what == "triangle":
        checked, bad = constructions.sweep_triangles(args.bound)
    else:
        checked, bad = constructions.sweep_farey(args.bound)
    return _emit({"checked": checked, "counterexamples": len(bad),
                  "examples": [list(t) for t in bad[:10]]})


_LIST_OPTIONS = ("--N", "--alpha", "--x")


def _join_negative_lists(argv: list[str]) -> list[str]:
    """Rewrite `--N -1,1` as `--N=-1,1`.

    argparse reads a separate value such as -1,1 as an unknown option,
    because only plain negative numbers are exempt.
    """
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _LIST_OPTIONS and re.match(r"-[\d.]", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="k3tk",
        description="Exact computations with Mukai vectors on a K3 surface")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--surface", help="JSON lattice file (default: Gram [2])")
        return p

    p = add("pair", _cmd_pair, help="Mukai pairing of two vectors")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)

    p = add("dualize", _cmd_dualize, help="dual vector (r, -c1, a)")
    p.add_argument("--v", required=True)

    p = add("translate", _cmd_translate, help="apply ch(N) to a vector")
    p.add_argument("--N", required=True, help="comma-separated lattice vector")
    p.add_argument("--v", required=True)

    p = add("reflect", _cmd_reflect, help="reflect a vector in a (-2)-vector")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)

    p = add("word", _cmd_word, help="apply an isometry word (right-to-left)")
    p.add_argument("--word", required=True, help="JSON word file")
    p.add_argument("--v", required=True)

    p = add("invariants", _cmd_invariants, help="all moduli invariants of a vector")
    p.add_argument("--v", required=True)

    p = add("gottsche", _cmd_gottsche, help="Euler numbers of the Hilbert schemes")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--lines", action="store_true",
                   help="print one integer per line instead of JSON")

    p = add("chivirtual", _cmd_chivirtual, help="divisor-sum virtual Euler characteristic")
    p.add_argument("--v", required=True)

    p = add("zseries", _cmd_zseries, help="rank-r partition q-series")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--alpha", help="comma-separated c1 (default 0)")
    p.add_argument("--order", required=True, help="truncation order (rational)")
    p.add_argument("--method", choices=["direct", "hecke", "literal"],
                   default="direct")

    p = add("theta", _cmd_theta, help="truncated Siegel-Narain theta sum")
    p.add_argument("--rank", type=int, default=1, help="coset step r")
    p.add_argument("--alpha", help="comma-separated coset representative")
    p.add_argument("--tau", type=float, nargs=2, required=True, metavar=("RE", "IM"))
    p.add_argument("--x", help="interleaved re,im complex coordinates")
    p.add_argument("--radius", type=float, default=5.0)
    p.add_argument("--splitting", choices=["spectral", "identity"],
                   default="spectral")

    p = add("zfull", _cmd_zfull, help="full rank-r partition function value")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--tau", type=float, nargs=2, required=True, metavar=("RE", "IM"))
    p.add_argument("--x", help="interleaved re,im complex coordinates")
    p.add_argument("--method", choices=["direct", "factorized", "both"],
                   default="both")
    p.add_argument("--cutoff", type=float, default=8.0,
                   help="holomorphic exponent cutoff (direct path)")
    p.add_argument("--order", type=int, default=12,
                   help="series truncation order (factorized path)")
    p.add_argument("--radius", type=float, default=5.0)
    p.add_argument("--splitting", choices=["spectral", "identity"],
                   default="spectral")

    p = add("construct", _cmd_construct, help="auxiliary reduction data for (l, r, s, a)")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--bound", type=int, default=500)

    p = add("verify", _cmd_verify, help="exhaustive triangle/Farey sweeps")
    p.add_argument("what", choices=["triangle", "farey"])
    p.add_argument("--bound", type=int, required=True)

    return parser


def main(argv=None) -> int:
    threads = os.environ.get("K3TK_THREADS")
    if threads is not None:
        try:
            if int(threads) < 1:
                raise ValueError
        except ValueError:
            print(json.dumps({"error": "K3TK_THREADS must be a positive integer"}))
            return 2
    parser = _build_parser()
    args = parser.parse_args(_join_negative_lists(sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    except InputError as exc:
        print(json.dumps({"error": str(exc)}))
        return 2
    except ConsistencyError as exc:
        print(json.dumps({"error": str(exc), "internal": True}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
