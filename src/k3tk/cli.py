"""Command-line front end: every operation behind JSON-emitting subcommands.

Every invocation except --help writes exactly one JSON document to stdout.
Exit codes: 0 on success, 2 on input errors, usage errors and non-finite
numbers included (a machine-readable {"error": ...} document; NaN and
Infinity are never written), 1 on internal invariant failures and any other
exception ({"error": ..., "internal": true}).  Rationals are serialized as
{"num": ..., "den": ...}, never as floats on exact paths; complex values as
[re, im] pairs.  Output is deterministic for identical inputs.

One table, _COMMANDS, declares each subcommand once: its help text and its
options.  A spawn builds the subparser of the subcommand it names and no
other (all of them, for --help and the invalid-choice message, when it names
none).  The handler _cmd_<name> returns the document that main writes.
Only the subcommands that read a lattice accept --surface; main loads it
once, and without it the rank-1 lattice with Gram [2] is used.  Only verify
takes --bound: the r1 scan of construct always ends, so it needs none.  Each
subcommand imports only the modules it uses, so a spawn loads little beyond
the interpreter: nothing loads numpy, and only zseries --method literal
loads mpmath.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .errors import InputError
from .lattice import (EvenLattice, MukaiVector, _as_number, _at_least, dual, ell, mukai_pairing,
                      primitive, square)

DEFAULT_SURFACE = EvenLattice(((2,),))


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:     # also bad UTF-8, deep nesting, huge ints
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


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


def _finite_float(text: str) -> float:
    """argparse type: lattice._as_number's finite float, its InputError a usage error."""
    try:
        return _as_number(text, float)
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _finite_floats(text: str) -> list[float]:
    """argparse type: comma-separated finite floats (empty text: none)."""
    return [_finite_float(part) for part in text.split(",")] if text.strip() else []


def _frac_json(x) -> dict:
    """An int or Fraction as {"num", "den"}, the latter reduced with den > 0."""
    return {"num": x.numerator, "den": x.denominator}


def _complex_json(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _sum_json(res, count: str = "terms") -> dict:
    """A theta or partition-function sum: its value, tail and points or terms."""
    return {"value": _complex_json(res.value), "tail": res.tail, count: getattr(res, count)}


def _emit(doc) -> int:
    try:
        text = json.dumps(doc, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise InputError("the result is not finite at this input") from exc
    print(text)
    return 0


def _cmd_pair(args) -> dict:
    return {"pairing": mukai_pairing(_vector(args.x), _vector(args.y), args.lat)}


def _cmd_dualize(args) -> dict:
    return {"vector": dual(_vector(args.v)).to_json()}


def _cmd_translate(args) -> dict:
    from .isometry import apply_translate

    return {"vector": apply_translate(_ints(args.N), _vector(args.v), args.lat).to_json()}


def _cmd_reflect(args) -> dict:
    from .isometry import apply_reflect

    return {"vector": apply_reflect(_vector(args.u), _vector(args.v), args.lat).to_json()}


def _cmd_word(args) -> dict:
    from .isometry import IsometryWord

    word = IsometryWord.from_json(_load_json(args.word), args.lat)
    return {"vector": word.apply(_vector(args.v), args.lat).to_json()}


def _cmd_invariants(args) -> dict:
    from . import moduli

    lat = args.lat
    v = _vector(args.v)
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
    return doc


def _cmd_gottsche(args) -> dict:
    from .qseries import _hilb_table

    order = _at_least(args.order, 1, "order")
    return {"coeffs": _hilb_table(order - 1)[:order]}


def _cmd_chivirtual(args) -> dict:
    from .partitions import chi_virtual

    return {"chi_virtual": _frac_json(chi_virtual(_vector(args.v), args.lat))}


def _cmd_zseries(args) -> dict:
    from . import partitions

    alpha = _ints(args.alpha) if args.alpha else (0,) * args.lat.rank
    fn, coeff = {"direct": (partitions.z_psu_direct, _frac_json),
                 "hecke": (partitions.z_psu_hecke, _frac_json),
                 "literal": (partitions.z_psu_hecke_literal, _complex_json)}[args.method]
    series = fn(args.rank, alpha, args.order, args.lat)
    return {"method": args.method,
            "terms": [{"exp": _frac_json(e), "coeff": coeff(c)} for e, c in series.items()]}


def _tau_split_x(args):
    """tau, the splitting and x of theta and zfull; the splitting is built before x is read."""
    from .theta import Splitting

    lat = args.lat
    split = (Splitting.identity_positive if args.splitting == "identity"
             else Splitting.spectral)(lat)
    if args.x and len(args.x) != 2 * lat.rank:
        raise InputError("x must interleave re,im once per lattice coordinate")
    x = [complex(*args.x[2 * i:2 * i + 2]) for i in range(lat.rank)] if args.x else None
    return complex(*args.tau), split, x


def _cmd_theta(args) -> dict:
    from .theta import theta_siegel_narain

    alpha = _ints(args.alpha) if args.alpha else (0,) * args.lat.rank
    tau, split, x = _tau_split_x(args)
    return _sum_json(theta_siegel_narain(args.lat, alpha, args.rank, tau, split, x,
                                         args.radius), "points")


def _cmd_zfull(args) -> dict:
    from . import theta

    tau, split, x = _tau_split_x(args)
    doc = {}
    if args.method in ("direct", "both"):
        doc["direct"] = _sum_json(theta.z_full_direct(args.lat, args.rank, tau, split, x,
                                                      args.cutoff, args.radius))
    if args.method in ("factorized", "both"):
        doc["factorized"] = _sum_json(theta.z_full_factorized(args.lat, args.rank, tau, split,
                                                              x, args.order, args.radius))
    if args.method == "both":
        doc["difference"] = abs(complex(*doc["direct"]["value"])
                                - complex(*doc["factorized"]["value"]))
    return doc


def _cmd_construct(args) -> dict:
    from .constructions import build_auxiliary

    return build_auxiliary(args.l, args.r, args.s, args.a).to_json()


def _cmd_verify(args) -> dict:
    from . import constructions

    sweep = constructions.sweep_triangles if args.what == "triangle" else constructions.sweep_farey
    checked, bad = sweep(args.bound)
    return {"checked": checked, "counterexamples": len(bad),
            "examples": [list(t) for t in bad[:10]]}


_REQUIRED = {"required": True}
_INT = {"type": int, "required": True}      # a required integer
_SURFACE = {"--surface": {"help": "JSON lattice file (default: Gram [2])"}}
# theta and zfull share these two groups; zfull's --help lists its own options between them
_TAU_X = {"--tau": {"type": _finite_float, "nargs": 2, "required": True,
                    "metavar": ("RE", "IM")},
          "--x": {"type": _finite_floats, "help": "interleaved re,im complex coordinates"}}
_RADIUS_SPLITTING = {"--radius": {"type": _finite_float, "default": 5.0},
                     "--splitting": {"choices": ["spectral", "identity"],
                                     "default": "spectral"}}
_COMMANDS = {       # name: (help, {option: add_argument keywords}), in --help order
    "pair": ("Mukai pairing of two vectors", {**_SURFACE, "--x": _REQUIRED, "--y": _REQUIRED}),
    "dualize": ("dual vector (r, -c1, a)", {"--v": _REQUIRED}),
    "translate": ("apply ch(N) to a vector",
                  {**_SURFACE, "--N": {"required": True, "help": "comma-separated lattice vector"},
                   "--v": _REQUIRED}),
    "reflect": ("reflect a vector in a (-2)-vector",
                {**_SURFACE, "--u": _REQUIRED, "--v": _REQUIRED}),
    "word": ("apply an isometry word (right-to-left)",
             {**_SURFACE, "--word": {"required": True, "help": "JSON word file"},
              "--v": _REQUIRED}),
    "invariants": ("all moduli invariants of a vector", {**_SURFACE, "--v": _REQUIRED}),
    "gottsche": ("Euler numbers of the Hilbert schemes", {"--order": _INT}),
    "chivirtual": ("divisor-sum virtual Euler characteristic", {**_SURFACE, "--v": _REQUIRED}),
    "zseries": ("rank-r partition q-series",
                {**_SURFACE, "--rank": _INT, "--alpha": {"help": "comma-separated c1 (default 0)"},
                 "--order": {"required": True, "help": "truncation order (rational)"},
                 "--method": {"choices": ["direct", "hecke", "literal"], "default": "direct"}}),
    "theta": ("truncated Siegel-Narain theta sum",
              {**_SURFACE, "--rank": {"type": int, "default": 1, "help": "coset step r"},
               "--alpha": {"help": "comma-separated coset representative"},
               **_TAU_X, **_RADIUS_SPLITTING}),
    "zfull": ("full rank-r partition function value",
              {**_SURFACE, "--rank": _INT, **_TAU_X,
               "--method": {"choices": ["direct", "factorized", "both"], "default": "both"},
               "--cutoff": {"type": _finite_float, "default": 8.0,
                            "help": "holomorphic exponent cutoff (direct path)"},
               "--order": {"type": int, "default": 12,
                           "help": "series truncation order (factorized path)"},
               **_RADIUS_SPLITTING}),
    "construct": ("auxiliary reduction data for (l, r, s, a)",
                  {"--l": _INT, "--r": _INT, "--s": _INT, "--a": _INT}),
    "verify": ("exhaustive triangle/Farey sweeps",
               {"what": {"choices": ["triangle", "farey"]}, "--bound": _INT}),
}

_NEGATIVE_NUMBER = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """argparse that reports a usage error as an {"error"} document on stdout.

    A token that starts like a negative number (-1,1 or -1.5e3 or -.5 or
    -inf) is a value, never an option: argparse's own rule exempts only
    plain decimals such as -1 and -1.5, and no option here starts with a
    single dash and a digit.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        print(json.dumps({"error": f"{self.prog}: {message}"}))
        self.exit(2)


def _build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser with the one subcommand argv[0] names, or with all when it names none."""
    parser = _Parser(
        prog="k3tk",
        description="Exact computations with Mukai vectors on a K3 surface")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [argv[0]] if argv and argv[0] in _COMMANDS else _COMMANDS:
        help_text, options = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for option, keywords in options.items():
            p.add_argument(option, **keywords)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv).parse_args(argv)
    try:
        args.lat = (EvenLattice.from_json(_load_json(args.surface))
                    if getattr(args, "surface", None) else DEFAULT_SURFACE)
        return _emit(globals()[f"_cmd_{args.command}"](args))
    except InputError as exc:
        print(json.dumps({"error": str(exc)}))
        return 2
    except Exception as exc:        # ConsistencyError or a fault: still one JSON document
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}", "internal": True}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
