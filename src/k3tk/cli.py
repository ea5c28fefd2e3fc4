"""Command-line front end: every operation behind JSON-emitting subcommands.

Every invocation except --help writes exactly one JSON document to stdout.
Exit codes: 0 on success, 2 on input errors, usage errors, non-finite numbers
and integers past the interpreter's digit limit included (a machine-readable
{"error": ...} document; NaN and Infinity are never written), 1 on internal
invariant failures and any other exception ({"error": ..., "internal": true}),
and 141 (128 + SIGPIPE), with nothing on stderr, when stdout's reader has gone.
Rationals are serialized as {"num": ..., "den": ...}, never as floats on exact
paths; complex values as [re, im] pairs.  Output is deterministic for identical
inputs.

One table, _COMMANDS, declares each subcommand once: its help text and its
options, as add_argument keywords.  _parse reads argv against that table by the
standard library's option rules (a unique prefix names its option, --opt=value,
the last of a repeated option counts, after -- every token is a value) and
_help writes each help page from it, 80 columns wide whatever the terminal, so
a spawn loads no option-parsing, gettext or locale modules.  A token that
starts like a negative number is a value.  The handler _cmd_<name> returns the
document that main writes.
Only the subcommands that read a lattice accept --surface; main loads it
once, and without it the rank-1 lattice with Gram [2] is used.  Only verify
takes --bound: the r1 scan of construct always ends, so it needs none.  Each
subcommand imports only the modules it uses, so a spawn loads little beyond
the interpreter: nothing loads numpy, only zseries --method literal loads
mpmath, and the integer subcommands (pair, translate, word, construct, invariants, gottsche,
chivirtual and verify) load no fractions, decimal or cmath (gottsche and chivirtual read
moduli's integer kernels, not a Fraction).

A spawn's time goes to the interpreter's start with site, the imports, the work
and the shutdown, whose full collections scan every object still alive; for an
integer subcommand the work is the least.  So main, as the process's entry point
(argv None: python -m k3tk and the k3tk script), calls gc.freeze() on every way
out, once the document is flushed.  Nothing is lost: the process frees those
objects at exit anyway, none needs a finalizer (k3tk closes each file in a with
block), and atexit handlers, the std streams' flush and module teardown still
run.  An in-process main(argv) never freezes, so a caller's heap stays collectable.
"""

from __future__ import annotations

import json
import os
import re
import sys
from types import SimpleNamespace

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
    """Option type: lattice._as_number's finite float, its InputError a usage error."""
    return _as_number(text, float)


def _finite_floats(text: str) -> list[float]:
    """Option type: comma-separated finite floats (empty text: none)."""
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
    except ValueError as exc:       # a NaN or infinity, or an int past the digit limit
        if "integer string conversion" in str(exc):
            raise InputError(f"the result is exact, but an integer in it has more than "
                             f"{sys.get_int_max_str_digits()} digits, this interpreter's "
                             f"limit for writing one (PYTHONINTMAXSTRDIGITS)") from exc
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
    is_prim = primitive(v)
    sq = square(v, lat)
    info = moduli.classify_case(v, lat)
    doc = {
        "vector": v.to_json(),
        "square": sq,
        "ell": ell(v),
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
    from .moduli import _hilb_table

    order = _at_least(args.order, 1, "order")
    return {"coeffs": _hilb_table(order - 1)[:order]}


def _cmd_chivirtual(args) -> dict:
    from math import gcd

    from .moduli import _chi_virtual_scaled

    num, den = _chi_virtual_scaled(_vector(args.v), args.lat)     # den = content^2 > 0
    g = gcd(num, den)
    return {"chi_virtual": {"num": num // g, "den": den // g}}      # _frac_json's form


def _cmd_zseries(args) -> dict:
    from . import partitions

    alpha = _ints(args.alpha) if args.alpha is not None else (0,) * args.lat.rank
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
    if args.x is not None and len(args.x) != 2 * lat.rank:
        raise InputError("x must interleave re,im once per lattice coordinate")
    x = None if args.x is None else [complex(*args.x[2 * i:2 * i + 2]) for i in range(lat.rank)]
    return complex(*args.tau), split, x


def _cmd_theta(args) -> dict:
    from .theta import theta_siegel_narain

    alpha = _ints(args.alpha) if args.alpha is not None else (0,) * args.lat.rank
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

_DESCRIPTION = "Exact computations with Mukai vectors on a K3 surface"
_HELP = ("-h", "--help")
_TOP = {"command": {"choices": _COMMANDS}}      # k3tk's own table: its one positional
# a token that starts like a negative number (-1,1 or -1.5e3 or -.5 or -inf) is a value
_NEGATIVE_NUMBER = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def _usage_error(prog: str, message: str):
    # flushed, so a reader that is gone raises BrokenPipeError into main, as a document's does
    print(json.dumps({"error": f"{prog}: {message}"}), flush=True)
    raise SystemExit(2)


def _help_exit(prog: str, option: str, value, name=None):
    """Write the help page and exit 0, unless a value is attached (-hh is -h twice)."""
    if value is not None and not (option == "-h" and value and not value.strip("h")):
        _usage_error(prog, f"argument -h/--help: ignored explicit argument {value!r}")
    print(_help(name), end="", flush=True)
    raise SystemExit(0)


def _option(prog: str, token: str, options):
    """(option, attached value or None) for a token that names one of options exactly, by
    a unique prefix or as option=value; (None, None) for another option; None for a value."""
    if not token.startswith("-") or token == "-":
        return None
    name, eq, value = token.partition("=")
    if name in options:
        return name, value if eq else None
    long = token[1] == "-"
    found = [o for o in options if o.startswith(name)] if long else ["-h"] * (token[1] == "h")
    if len(found) > 1:
        _usage_error(prog, f"ambiguous option: {token} could match {', '.join(found)}")
    if found:
        return found[0], (value if eq else None) if long else token[2:]
    return None if _NEGATIVE_NUMBER.match(token) or " " in token else (None, None)


def _value(prog: str, option: str, keywords: dict, text: str):
    """text read by the option's type, and one of its choices if it has them."""
    kind, choices = keywords.get("type", str), keywords.get("choices", ())
    try:
        value = kind(text)
    except InputError as exc:
        _usage_error(prog, f"argument {option}: {exc}")
    except ValueError:
        _usage_error(prog, f"argument {option}: invalid {kind.__name__} value: {text!r}")
    if choices and value not in choices:
        _usage_error(prog, f"argument {option}: invalid choice: {value!r} "
                           f"(choose from {', '.join(map(repr, choices))})")
    return value


def _parse(argv, name=None, extras=()) -> SimpleNamespace:
    """The namespace of a subcommand's arguments, or of k3tk's own (name None), whose first
    value names the subcommand that reads the rest; extras are the unknown options before
    it.  Tokens are read in order; after a subcommand's first --, each is a value, and its
    positional may take the -- beside it."""
    prog, table = (f"k3tk {name}", _COMMANDS[name][1]) if name else ("k3tk", _TOP)
    cut = argv.index("--") if name and "--" in argv else len(argv)
    options = (*_HELP, *(o for o in table if o[0] == "-"))
    kinds = [None if t == "--" else _option(prog, t, options) for t in argv[:cut]]
    kinds += ["--"] + [None] * len(argv)
    values = {o.lstrip("-"): keywords.get("default") for o, keywords in table.items()}
    positional, extras, i = [o for o in table if o[0] != "-"], list(extras), 0
    while i < len(argv):
        kind, i = kinds[i], i + 1
        if positional and (kind is None or kind == "--" and i < len(argv)):
            i += kind == "--"
            option = positional.pop(0)
            values[option] = _value(prog, option, table[option], argv[i - 1])
            if not name:
                return _parse(argv[i:], values[option], extras)
            i += kinds[i] == "--"
        elif kind is None or kind == "--" or kind[0] is None:
            extras.append(argv[i - 1])
        elif kind[0] in _HELP:
            _help_exit(prog, *kind, name)
        else:       # an option's values are the tokens after it, none an option or --
            (option, value), keywords = kind, table[kind[0]]
            nargs = keywords.get("nargs", 1)
            if value is None and all(k is None for k in kinds[i:i + nargs]):
                texts, i = argv[i:i + nargs], i + nargs
            elif value is None or nargs != 1:
                _usage_error(prog, f"argument {option}: expected "
                                   + ("one argument" if nargs == 1 else f"{nargs} arguments"))
            else:
                texts = [value]
            texts = [_value(prog, option, keywords, text) for text in texts]
            values[option[2:]] = texts if "nargs" in keywords else texts[0]
    missing = [o for o, keywords in table.items()       # no value read is None
               if (keywords.get("required") or o[0] != "-") and values[o.lstrip("-")] is None]
    if missing:
        _usage_error(prog, "the following arguments are required: " + ", ".join(missing))
    if extras:
        _usage_error("k3tk", "unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(command=name, **values)


def _help(name=None) -> str:
    """The help page of k3tk (name None) or of a subcommand, 80 columns wide whatever the
    terminal: the usage wrapped greedily, optionals after prog and positionals on lines of
    their own, and each help text at the longest invocation + 4, or at column 24."""
    import textwrap

    prog, table = (f"k3tk {name}", _COMMANDS[name][1]) if name else ("k3tk", _TOP)
    usage = [["[-h]"], []]      # optionals, positionals
    rows = [[], [(2, "-h, --help", "show this help message and exit")]]
    for option, keywords in table.items():
        metavar = keywords.get("metavar", "{%s}" % ",".join(keywords["choices"])
                               if "choices" in keywords else option.lstrip("-").upper())
        metavar = " ".join([metavar] if isinstance(metavar, str) else metavar)
        dashed = option[0] == "-"
        part = f"{option} {metavar}" if dashed else metavar
        usage[not dashed] += [f"[{part}]"] if dashed and not keywords.get("required") \
            else part.split()
        rows[dashed].append((2, part, keywords.get("help")))
    if not name:        # each subcommand, and then its own arguments
        rows[0] += [(4, command, text) for command, (text, _) in _COMMANDS.items()]
        usage[1].append("...")
    lines, parts = [f"usage: {prog}"], usage[0] + usage[1]
    wrap = len(" ".join(lines + parts)) > 78
    for k, part in enumerate(parts):
        if wrap and (k == len(usage[0]) or len(lines[-1]) + 1 + len(part) > 78):
            lines.append(" " * (len(prog) + 8) + part)
        else:
            lines[-1] += " " + part
    lines += ["", *([] if name else textwrap.wrap(_DESCRIPTION, 78) + [""])]
    column = min(max(len(row[1]) for section in rows for row in section) + 4, 24)
    for title, section in zip(("positional arguments", "options"), rows):
        lines += [f"{title}:"] * bool(section)
        for indent, invocation, text in section:
            wrapped, head = textwrap.wrap(text or "", 78 - column), " " * indent + invocation
            if wrapped and len(invocation) <= column - indent - 2:
                head = head.ljust(column) + wrapped.pop(0)
            lines += [head, *(" " * column + line for line in wrapped)]
        lines += [""] * bool(section)
    return "\n".join(lines)


def main(argv=None) -> int:
    try:
        code = _run(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()      # a reader that is gone shows here, not at exit
    except BrokenPipeError:     # nothing can reach stdout: end silently, as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141      # 128 + SIGPIPE
    finally:
        if argv is None:    # the process's entry point: what is alive now lives to exit,
            import gc       # so the shutdown collections need not scan it

            gc.freeze()
    return code


def _run(argv) -> int:
    args = _parse(argv)
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
