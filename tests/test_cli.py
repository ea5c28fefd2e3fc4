import contextlib
import functools
import gc
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import k3tk

from k3tk import (EvenLattice, IsometryWord, MukaiVector, apply_reflect,
                  apply_translate, build_auxiliary, chi_virtual)
from k3tk.cli import main

from . import oracles
from .test_constructions import check_aux_with_oracle


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def write_vec(tmp_path, name, r, c1, a):
    path = tmp_path / name
    path.write_text(json.dumps({"r": r, "c1": list(c1), "a": a}))
    return str(path)


def test_pair_structure_sheaf(tmp_path, capsys):
    x = write_vec(tmp_path, "x.json", 1, (0,), 1)
    doc = run_json(capsys, "pair", "--x", x, "--y", x)
    assert doc == {"pairing": -2}


def test_pair_with_surface_file(tmp_path, capsys):
    surf = tmp_path / "s.json"
    surf.write_text(json.dumps({"rank": 1, "gram": [[4]]}))
    x = write_vec(tmp_path, "x.json", 2, (1,), 1)
    y = write_vec(tmp_path, "y.json", 1, (1,), 0)
    doc = run_json(capsys, "pair", "--surface", str(surf), "--x", x, "--y", y)
    assert doc == {"pairing": 4 - 0 - 1}


def test_dualize_translate_reflect_word(tmp_path, capsys):
    v = write_vec(tmp_path, "v.json", 1, (3,), 2)
    doc = run_json(capsys, "dualize", "--v", v)
    assert doc["vector"] == {"r": 1, "c1": [-3], "a": 2}

    v0 = write_vec(tmp_path, "v0.json", 1, (0,), 0)
    doc = run_json(capsys, "translate", "--N", "1", "--v", v0)
    assert doc["vector"] == {"r": 1, "c1": [1], "a": 1}

    u = write_vec(tmp_path, "u.json", 1, (0,), 1)
    doc = run_json(capsys, "reflect", "--u", u, "--v", v)
    got = MukaiVector.from_json(doc["vector"])
    lat = EvenLattice(((2,),))
    assert got == apply_reflect(MukaiVector(1, (0,), 1), MukaiVector(1, (3,), 2), lat)

    word = tmp_path / "w.json"
    word.write_text(json.dumps([{"type": "negate"}, {"type": "negate"}]))
    doc = run_json(capsys, "word", "--word", str(word), "--v", v)
    assert doc["vector"] == {"r": 1, "c1": [3], "a": 2}


def test_translate_negative_first_coordinate(tmp_path, capsys):
    surf = tmp_path / "s.json"
    surf.write_text(json.dumps({"gram": [[2, 1], [1, -2]]}))
    v = write_vec(tmp_path, "v.json", 2, (1, 0), -1)
    lat = EvenLattice(((2, 1), (1, -2)))
    want = apply_translate((-1, 3), MukaiVector(2, (1, 0), -1), lat).to_json()
    for argv in (["--N", "-1,3"], ["--N=-1,3"]):
        doc = run_json(capsys, "translate", "--surface", str(surf), *argv, "--v", v)
        assert doc["vector"] == want


def test_translate_refuses_a_non_integer_coordinate(tmp_path, capsys):
    v = write_vec(tmp_path, "v.json", 1, (0,), 1)
    code = main(["translate", "--N", "1,x", "--v", v])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == \
        (2, json.dumps({"error": "expected comma-separated integers, got '1,x'"}) + "\n", "")


def test_bad_word_elements_exit_2(tmp_path, capsys):
    v = write_vec(tmp_path, "v.json", 1, (0,), 1)
    for name, doc in (("frac.json", [{"type": "translate", "N": [1.5]}]),
                      ("missing.json", [{"type": "translate"}])):
        word = tmp_path / name
        word.write_text(json.dumps(doc))
        code = main(["word", "--word", str(word), "--v", v])
        captured = capsys.readouterr()
        assert code == 2
        assert "error" in json.loads(captured.out)
        assert captured.err == ""


def test_word_json_fixpoint(tmp_path, capsys):
    lat = EvenLattice(((2,),))
    doc = [{"type": "translate", "N": [2]}, {"type": "dual"},
           {"type": "reflect", "u": {"r": 1, "c1": [0], "a": 1}}]
    word = IsometryWord.from_json(doc, lat)
    assert IsometryWord.from_json(word.to_json(), lat).to_json() == word.to_json()


def test_invariants_ideal_sheaf_vector(tmp_path, capsys):
    v = write_vec(tmp_path, "v.json", 1, (0,), 0)
    doc = run_json(capsys, "invariants", "--v", v)
    assert doc["exists"] is True
    assert doc["dim"] == 2
    assert doc["euler"] == 24
    assert doc["primitive"] is True
    assert doc["case"] == "B"
    assert doc["non_locally_free"]["kind"] == "rank_one"


def test_invariants_nonprimitive(tmp_path, capsys):
    v = write_vec(tmp_path, "v.json", 2, (0,), 2)
    doc = run_json(capsys, "invariants", "--v", v)
    assert doc["primitive"] is False
    assert doc["exists"] is True and doc["exists_semistable"] is True
    assert "dim" not in doc


def test_invariants_of_a_primitive_vector_below_minus_two(tmp_path, capsys):
    # <v^2> = -4 on Gram [2]: no stable sheaf, so every invariant of one is null
    v = write_vec(tmp_path, "v.json", 1, (0,), 2)
    doc = run_json(capsys, "invariants", "--v", v)
    assert doc == {"vector": {"r": 1, "c1": [0], "a": 2}, "square": -4, "ell": 1,
                   "primitive": True, "case": "B", "v0": {"r": 1, "c1": [0], "a": 1},
                   "exists_semistable": False, "mu_stable_boundary_flag": False,
                   "exists": False, "dim": None, "hilb_index": None, "euler": None,
                   "mu_stable": None, "non_locally_free": None}


def test_gottsche(capsys):
    doc = run_json(capsys, "gottsche", "--order", "4")
    assert doc == {"coeffs": [1, 24, 324, 3200]}
    assert run(capsys, "gottsche", "--order", "0") == \
        (2, '{"error": "order must be at least 1"}\n')


def test_chivirtual(tmp_path, capsys):
    v = write_vec(tmp_path, "v.json", 2, (0,), 2)
    doc = run_json(capsys, "chivirtual", "--v", v)
    assert doc == {"chi_virtual": {"num": 1, "den": 4}}


@st.composite
def _scaled_vector(draw):
    """(Gram rows, c w): a lattice of rank <= 3 and c in 1..6 times a primitive w of
    positive rank whose square lies on either side of -2."""
    rank = draw(st.integers(1, 3))
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        gram[i][i] = 2 * draw(st.integers(-3, 3))
        for j in range(i):
            gram[i][j] = gram[j][i] = draw(st.integers(-3, 3))
    r = draw(st.integers(1, 4))
    c1 = draw(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank))
    half = sum(x * g * y for row, x in zip(gram, c1) for g, y in zip(row, c1)) // 2
    a = (half - draw(st.integers(-7, 5))) // r       # <w^2> = 2 (half - r a), at least -14
    assume(math.gcd(r, a, *c1) == 1)
    c = draw(st.integers(1, 6))
    return gram, MukaiVector(c * r, tuple(c * x for x in c1), c * a)


@settings(max_examples=150, deadline=None)
@given(_scaled_vector())
def test_chivirtual_document_is_chi_virtual_as_a_fraction(tmp_path_factory, case):
    # the handler reduces moduli's (c^2 chi_virtual, c^2) itself, without a Fraction
    gram, v = case
    lat = EvenLattice(tuple(map(tuple, gram)))
    folder = tmp_path_factory.mktemp("chivirtual")
    (folder / "s.json").write_text(json.dumps({"rank": len(gram), "gram": gram}))
    (folder / "v.json").write_text(json.dumps(v.to_json()))
    code, doc = _assert_contract(["chivirtual", "--surface", str(folder / "s.json"),
                                  "--v", str(folder / "v.json")])
    assert code == 0
    assert doc == {"chi_virtual": k3tk.cli._frac_json(chi_virtual(v, lat))}


def test_zseries_rational_order(capsys):
    doc = run_json(capsys, "zseries", "--rank", "2", "--order", "5/2",
                   "--method", "direct")
    exps = [t["exp"]["num"] / t["exp"]["den"] for t in doc["terms"]]
    assert exps and all(e < 2.5 for e in exps)


def test_zseries_methods(capsys):
    direct = run_json(capsys, "zseries", "--rank", "2", "--order", "4",
                      "--method", "direct")
    hecke = run_json(capsys, "zseries", "--rank", "2", "--order", "4",
                     "--method", "hecke")
    assert direct["terms"] == hecke["terms"]
    exact = {(t["exp"]["num"], t["exp"]["den"]): t["coeff"]["num"] / t["coeff"]["den"]
             for t in direct["terms"]}
    literal = run_json(capsys, "zseries", "--rank", "2", "--order", "4",
                       "--method", "literal")
    for t in literal["terms"]:
        key = (t["exp"]["num"], t["exp"]["den"])
        re, im = t["coeff"]
        assert abs(im) < 1e-9
        assert abs(re - exact.get(key, 0.0)) < 1e-9


def test_zseries_writes_an_integral_coefficient_over_den_1(capsys):
    # the series stores 30 as an int and 1/4 as a Fraction; both are written as num and den
    doc = run_json(capsys, "zseries", "--rank", "2", "--order", "3", "--method", "hecke")
    assert [(t["exp"], t["coeff"]) for t in doc["terms"]] == [
        ({"num": e, "den": 1}, {"num": n, "den": d})
        for e, n, d in ((-2, 1, 4), (0, 30, 1), (1, 3200, 1), (2, 176337, 1))]


def test_theta_and_zfull(tmp_path, capsys):
    surf = tmp_path / "s.json"
    surf.write_text(json.dumps({"rank": 1, "gram": [[-2]]}))
    doc = run_json(capsys, "theta", "--surface", str(surf), "--rank", "1",
                   "--tau", "0", "1", "--radius", "0.5")
    assert doc["points"] == 1
    assert doc["value"][0] == pytest.approx(1.0)

    doc = run_json(capsys, "zfull", "--surface", str(surf), "--rank", "2",
                   "--tau", "0", "1", "--method", "both")
    assert doc["difference"] < 1e-6
    assert doc["direct"]["tail"] < 1e-8 and doc["factorized"]["tail"] < 1e-8


def test_construct_matches_library(capsys):
    doc = run_json(capsys, "construct", "--l", "2", "--r", "3", "--s", "2",
                   "--a", "1")
    assert doc == build_auxiliary(2, 3, 2, 1).to_json()


def test_construct_finds_an_r1_above_500(capsys):
    doc = run_json(capsys, "construct", "--l", "30", "--r", "20", "--s", "50", "--a", "1")
    aux = build_auxiliary(30, 20, 50, 1)
    assert doc == aux.to_json()
    assert aux.r1 == 631
    check_aux_with_oracle(aux)


@pytest.mark.parametrize("argv", [
    ["dualize", "--surface", "/nonexistent.json", "--v", "v.json"],
    ["gottsche", "--surface", "s.json", "--order", "4"],
    ["construct", "--surface", "s.json", "--l", "2", "--r", "3", "--s", "2", "--a", "1"],
    ["verify", "triangle", "--surface", "s.json", "--bound", "8"],
    ["gottsche", "--order", "4", "--lines"],
    ["construct", "--l", "2", "--r", "3", "--s", "2", "--a", "1", "--bound", "500"],
], ids=["dualize-surface", "gottsche-surface", "construct-surface", "verify-surface",
        "gottsche-lines", "construct-bound"])
def test_options_a_subcommand_does_not_read_are_usage_errors(tmp_path, monkeypatch, capsys,
                                                              argv):
    write_vec(tmp_path, "v.json", 1, (3,), 2)
    (tmp_path / "s.json").write_text(json.dumps({"rank": 1, "gram": [[2]]}))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert set(json.loads(captured.out)) == {"error"}
    assert captured.err == ""


def test_verify_commands(capsys):
    doc = run_json(capsys, "verify", "triangle", "--bound", "10")
    assert doc["counterexamples"] == 0 and doc["checked"] > 0
    doc = run_json(capsys, "verify", "farey", "--bound", "12")
    assert doc["counterexamples"] == 0 and doc["checked"] > 0


@pytest.mark.parametrize("what, bound", [("triangle", "-4"), ("farey", "-1")])
def test_verify_negative_bound_exits_2(capsys, what, bound):
    assert main(["verify", what, "--bound", bound]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"error": "bound must be nonnegative"}
    assert captured.err == ""
    assert run_json(capsys, "verify", what, "--bound", "0") == {
        "checked": 0, "counterexamples": 0, "examples": []}


def test_output_deterministic(tmp_path, capsys):
    v = write_vec(tmp_path, "v.json", 3, (1,), -2)
    _, first = run(capsys, "invariants", "--v", v)
    _, second = run(capsys, "invariants", "--v", v)
    assert first == second


_PINNED_INPUTS = {
    "v.json": {"r": 2, "c1": [1], "a": -1}, "y.json": {"r": 1, "c1": [1], "a": 0},
    "s.json": {"rank": 1, "gram": [[-2]]}, "u.json": {"rank": 2, "gram": [[0, 1], [1, 0]]},
    "o.json": {"r": 1, "c1": [0], "a": 1},
    "w.json": [{"type": "translate", "N": [1]},
               {"type": "reflect", "u": {"r": 1, "c1": [0], "a": 1}}, {"type": "dual"}],
}
_PINNED_OUTPUTS = [
    ("pair --x v.json --y y.json", '{"pairing": 3}'),
    ("word --word w.json --v v.json", '{"vector": {"a": -3, "c1": [0], "r": 1}}'),
    ("invariants --v v.json",
     '{"case": "B", "dim": 8, "ell": 1, "euler": 25650, "exists": true, '
     '"exists_semistable": true, "hilb_index": 4, "mu_stable": true, '
     '"mu_stable_boundary_flag": false, "non_locally_free": {"kind": "has_locally_free", '
     '"model": null}, "primitive": true, "square": 6, "v0": {"a": 1, "c1": [1], "r": 2}, '
     '"vector": {"a": -1, "c1": [1], "r": 2}}'),
    ("construct --l 2 --r 3 --s 2 --a 1",
     '{"a": 1, "d1": 7, "dprime": 2, "k": 68, "l": 2, "lattice": {"gram": [[136]], "rank": 1}, '
     '"q": -5, "r": 3, "r1": 11, "s": 2, "v1": {"a": 303, "c1": [7], "r": 11}, '
     '"vprime": {"a": 181, "c1": [4], "r": 6}, "w": {"a": 122, "c1": [-3], "r": 5}}'),
    ("chivirtual --v v.json", '{"chi_virtual": {"den": 1, "num": 25650}}'),
    ("gottsche --order 30",
     '{"coeffs": [1, 24, 324, 3200, 25650, 176256, 1073720, 5930496, 30178575, 143184000, '
     '639249300, 2705114880, 10914317934, 42189811200, 156883829400, 563116739584, '
     '1956790259235, 6599620022400, 21651325216200, 69228721526400, 216108718571250, '
     '659641645039360, 1971466420726656, 5776331152550400, 16610409114771900, '
     '46925988716146176, 130362155499200220, 356418628326241024, 959788304511313500, '
     '2547447689037081600]}'),
    # the literal Hecke path: residues with |Im| = 2 |Re|, each part rounded on its own
    ("zseries --rank 3 --alpha 1 --order 2 --method literal",
     '{"method": "literal", "terms": [{"coeff": [-4.561518438557347e-49, 9.123036877114694e-49], '
     '"exp": {"den": 3, "num": -1}}, {"coeff": [-1.0947644252537633e-47, '
     '2.1895288505075267e-47], "exp": {"den": 1, "num": 0}}, {"coeff": [324.0, 0.0], '
     '"exp": {"den": 3, "num": 1}}, {"coeff": [-1.4596859003383512e-45, '
     '2.9193718006767024e-45], "exp": {"den": 3, "num": 2}}, {"coeff": '
     '[-1.1700294794899596e-44, 2.340058958979919e-44], "exp": {"den": 1, "num": 1}}, '
     '{"coeff": [176256.0, 0.0], "exp": {"den": 3, "num": 4}}, {"coeff": '
     '[-4.897793577847795e-43, 9.79558715569559e-43], "exp": {"den": 3, "num": 5}}]}'),
    ("theta --surface s.json --rank 2 --alpha 1 --tau 0.1 1 --x 0.2,0.1 --radius 3 "
     "--splitting identity",
     '{"points": 2, "tail": 2.2808420063028903e-11, '
     '"value": [-0.10094397823264137, -0.11903711523675795]}'),
    # the spectral splitting: Jacobi's projectors and the majorant print this on 3.10 to 3.13
    ("theta --surface u.json --rank 2 --alpha 1,0 --tau 0.1 1 --x 0.2,0.1,0,0 --radius 3",
     '{"points": 8, "tail": 1.0346805064032045e-08, '
     '"value": [0.41383049430133345, -0.0011921482589977693]}'),
    ("zfull --surface s.json --rank 2 --tau 0 1 --splitting identity",
     '{"difference": 2.9103830456733704e-11, "direct": {"tail": 3.165413989930679e-11, '
     '"terms": 66, "value": [71728.36348293131, 0.0]}, "factorized": '
     '{"tail": 5.228703380875687e-15, "terms": 7, "value": [71728.36348293134, 0.0]}}'),
]


@pytest.mark.parametrize("line, expected", _PINNED_OUTPUTS,
                         ids=[line.split()[0] + "-spectral" * ("u.json" in line)
                              for line, _ in _PINNED_OUTPUTS])
def test_output_pinned_byte_for_byte(tmp_path, monkeypatch, capsys, line, expected):
    for name, doc in _PINNED_INPUTS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *line.split()) == (0, expected + "\n")


_PINNED_USAGE_ERRORS = [
    ("frobnicate",
     "k3tk: argument command: invalid choice: 'frobnicate' (choose from 'pair', 'dualize', "
     "'translate', 'reflect', 'word', 'invariants', 'gottsche', 'chivirtual', 'zseries', "
     "'theta', 'zfull', 'construct', 'verify')"),
    ("pair", "k3tk pair: the following arguments are required: --x, --y"),
    ("pair --x v.json --y y.json --z 1", "k3tk: unrecognized arguments: --z 1"),
    ("gottsche --order x", "k3tk gottsche: argument --order: invalid int value: 'x'"),
    ("zseries --rank 2 --order 4 --method bogus",
     "k3tk zseries: argument --method: invalid choice: 'bogus' "
     "(choose from 'direct', 'hecke', 'literal')"),
    ("verify cube --bound 3",
     "k3tk verify: argument what: invalid choice: 'cube' (choose from 'triangle', 'farey')"),
]


@pytest.mark.parametrize("line, expected", _PINNED_USAGE_ERRORS,
                         ids=["unknown-command", "pair-missing", "pair-extra",
                              "gottsche-order", "zseries-method", "verify-what"])
def test_usage_errors_pinned_byte_for_byte(tmp_path, monkeypatch, capsys, line, expected):
    for name, doc in _PINNED_INPUTS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(line.split())
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out, captured.err) == \
        (2, json.dumps({"error": expected}) + "\n", "")


_COMMAND_CHOICES = ("{pair,dualize,translate,reflect,word,invariants,gottsche,chivirtual,"
                    "zseries,theta,zfull,construct,verify}")
_PINNED_HELP = {
    "": f"""usage: k3tk [-h]
            {_COMMAND_CHOICES}
            ...

Exact computations with Mukai vectors on a K3 surface

positional arguments:
  {_COMMAND_CHOICES}
    pair                Mukai pairing of two vectors
    dualize             dual vector (r, -c1, a)
    translate           apply ch(N) to a vector
    reflect             reflect a vector in a (-2)-vector
    word                apply an isometry word (right-to-left)
    invariants          all moduli invariants of a vector
    gottsche            Euler numbers of the Hilbert schemes
    chivirtual          divisor-sum virtual Euler characteristic
    zseries             rank-r partition q-series
    theta               truncated Siegel-Narain theta sum
    zfull               full rank-r partition function value
    construct           auxiliary reduction data for (l, r, s, a)
    verify              exhaustive triangle/Farey sweeps

options:
  -h, --help            show this help message and exit
""",
    "theta": """usage: k3tk theta [-h] [--surface SURFACE] [--rank RANK] [--alpha ALPHA] --tau
                  RE IM [--x X] [--radius RADIUS]
                  [--splitting {spectral,identity}]

options:
  -h, --help            show this help message and exit
  --surface SURFACE     JSON lattice file (default: Gram [2])
  --rank RANK           coset step r
  --alpha ALPHA         comma-separated coset representative
  --tau RE IM
  --x X                 interleaved re,im complex coordinates
  --radius RADIUS
  --splitting {spectral,identity}
""",
}


@pytest.mark.parametrize("command", sorted(_PINNED_HELP), ids=["k3tk", "theta"])
def test_help_pinned_byte_for_byte(monkeypatch, capsys, command):
    # the page is the package's own text at 80 columns, whatever the terminal's width
    for columns in (None, "80", "200"):
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exc:
            main([*command.split(), "--help"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out, captured.err) == (0, _PINNED_HELP[command], ""), \
            columns


def _parsed(parse, argv):
    """(exit code or None, the namespace's attributes or None, stdout) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, args = None, vars(parse(argv))
        except SystemExit as exc:
            code, args = exc.code, None
    assert err.getvalue() == ""
    return code, args, out.getvalue()


@functools.cache
def _reference():
    return oracles.cli_reference(k3tk.cli)


_OLD_HELP = pytest.mark.skipif(
    sys.version_info >= (3, 13), reason="Python 3.13's argparse wraps usage lines otherwise "
    "(--tau RE IM stays on one line, the subcommand choices and ... share one), and the "
    "package's pages keep the layout of 3.10 to 3.12")


@_OLD_HELP
@pytest.mark.parametrize("name", ["", *k3tk.cli._COMMANDS], ids=["k3tk", *k3tk.cli._COMMANDS])
def test_every_help_page_is_the_argparse_reference_page(monkeypatch, name):
    argv = [*name.split(), "--help"]
    monkeypatch.setenv("COLUMNS", "200")
    want = _parsed(_reference().parse_args, argv)
    assert _parsed(k3tk.cli._parse, argv) == want
    assert want[:2] == (0, None) and want[2].startswith(f"usage: k3tk {name}".strip())


@_OLD_HELP
def test_long_help_wraps_as_the_argparse_reference_does(monkeypatch):
    # no help text in the table is long enough to wrap yet; the help column is 24 on the
    # top page and 17 on gottsche's
    long = "a long-winded, hyphen-rich explanation of what this option does " * 3
    monkeypatch.setitem(k3tk.cli._COMMANDS, "gottsche",
                        (long, {"--order": {"type": int, "required": True, "help": long}}))
    reference = oracles.cli_reference(k3tk.cli)
    for argv in (["--help"], ["gottsche", "--help"]):
        want = _parsed(reference.parse_args, argv)
        assert _parsed(k3tk.cli._parse, argv) == want
        wrapped = [line for line in want[2].splitlines() if "winded" in line]
        assert len(wrapped) >= 3 and max(map(len, wrapped)) <= 78


@_OLD_HELP
def test_usage_wraps_at_78_columns_as_the_argparse_reference_does(monkeypatch):
    # metavars of every length put the usage's end, and each wrapped line's, on both sides
    # of column 78
    for k in range(1, 61):
        for options in ({"--order": {"required": True, "metavar": "X" * k},
                         "what": {"choices": ["a", "b"]}},
                        {"--order": {"required": True, "metavar": "X" * k},
                         "--lines": {"metavar": "Y" * (61 - k)}, "--more": {"metavar": "Z" * k},
                         "what": {"choices": ["a" * k, "b"]}}):
            monkeypatch.setitem(k3tk.cli._COMMANDS, "gottsche", ("", options))
            want = _parsed(oracles.cli_reference(k3tk.cli).parse_args, ["gottsche", "-h"])
            assert _parsed(k3tk.cli._parse, ["gottsche", "-h"]) == want, k


_EDGE_ARGV = [      # read alike by argparse from Python 3.10 to 3.13.0
    "-- pair --x a --y b", "pair --x a --y b --", "pair --x a -- --y b", "pair -- --x a --y b",
    "verify triangle --bound 3 --", "verify --bound 3 triangle --",
    "verify --bound 3 -- triangle", "verify -- triangle --bound 3",
    "verify triangle -- --bound 3", "verify --bound 3 -- -- triangle", "verify --bound 3 -",
    "verify --bound 3 -- -1", "verify -- --bound 3", "theta --tau 0 -- 1", "--",
    "pair --x - --y b", "pair --x -x --y b", "pair --x a -hh --y b", "pair --help=1",
    "pair --he", "--bogus -h", "--he", "-h frob", "frob -h", "", "--bogus pair --x a --y b",
    "theta --ra 1 --tau 0 1", "theta --rad=2 --t -1 -.5", "theta --tau=0 1", "theta --tau=0",
    "theta --tau 0 1 --x -inf", "gottsche --order x -h", "gottsche -h --order x",
    "theta -h --ra", "pair --x=-a --y=--z", "pair --x= --y b --s=c", "pair --x a --y b --su",
    "zseries --r 2 --o 3 --m hecke", "zseries --rank 2 --order 3 --alpha --method",
    "verify farey triangle --bound 3", "verify -1 --bound 3",
]


def _assert_parses_as_the_reference(argv):
    """What the reference accepts is read alike, what it refuses is a usage error, and
    help is the reference's page (before Python 3.13); usage errors may differ in wording."""
    want = _parsed(_reference().parse_args, argv)
    got = _parsed(k3tk.cli._parse, argv)
    assert got[:2] == want[:2], (argv, got, want)
    if want[0] == 2:
        assert set(json.loads(want[2])) == set(json.loads(got[2])) == {"error"}
    elif want[0] is None or sys.version_info < (3, 13):     # accepted: nothing written
        assert got[2] == want[2]


@pytest.mark.parametrize("line", _EDGE_ARGV)
def test_edge_cases_parse_as_the_argparse_reference(line):
    _assert_parses_as_the_reference(
        line.split() + (["a b", "-a b"] if line.startswith("pair --x=") else []))


def test_input_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run(capsys, "invariants", "--v", str(bad))
    assert code == 2
    assert "error" in json.loads(out)

    missing = str(tmp_path / "missing.json")
    code, out = run(capsys, "pair", "--x", missing, "--y", missing)
    assert code == 2

    v = write_vec(tmp_path, "v.json", 0, (0,), 1)
    code, out = run(capsys, "invariants", "--v", v)
    assert code == 2


@pytest.mark.parametrize("content", [b"[" * 100000 + b"]" * 100000,
                                     b'{"r": 1, "c1": [0], "a": "\xe9"}', b"1" * 5000],
                         ids=["nested-too-deep", "not-utf-8", "integer-too-long"])
@pytest.mark.parametrize("option", ["--v", "--surface"])
def test_unreadable_json_files_exit_2(tmp_path, capsys, content, option):
    (tmp_path / "bad.json").write_bytes(content)
    (tmp_path / "s.json").write_text(json.dumps({"rank": 1, "gram": [[2]]}))
    files = {"--v": write_vec(tmp_path, "v.json", 1, (0,), 1),
             "--surface": str(tmp_path / "s.json")}
    files[option] = str(tmp_path / "bad.json")
    code = main(["invariants", "--v", files["--v"], "--surface", files["--surface"]])
    captured = capsys.readouterr()
    assert code == 2
    assert set(json.loads(captured.out)) == {"error"}
    assert captured.err == ""


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["theta", "--tau", "nan", "1"],
    ["theta", "--tau", "0", "1", "--radius", "nan"],
    ["theta", "--tau", "0", "1", "--radius", "inf"],
    ["zfull", "--rank", "2", "--tau", "0", "1", "--cutoff", "inf"],
    ["theta", "--tau", "0", "1", "--x", "abc"],
    ["zseries", "--rank", "2", "--order", "abc"],
    ["zseries", "--rank", "2", "--order", "1/0"],
    ["theta", "--tau", "0", "0.001"],           # finite input, unbounded tail
    ["zfull", "--rank", "0", "--tau", "0", "1"],
    ["theta", "--tau", "1e308", "1"],           # an infinite phase
    ["theta", "--tau", "0", "1", "--rank", str(10 ** 30), "--x", "0,1e30"],
    ["zfull", "--rank", "1", "--tau", "1e300", "1e300", "--cutoff", "-1"],  # e(-r tau) overflows
    ["zfull", "--rank", "1", "--tau", "0", "1", "--radius", "-1500", "--method", "direct"],
    ["theta", "--tau", "0", "1", "--rank", str(10 ** 400)],      # past the double range
    ["theta", "--tau", "0", "1", "--alpha", ""],                # empty is not alpha = 0
    ["zseries", "--rank", "2", "--order", "3", "--alpha", ""],
    ["theta", "--tau", "0", "1", "--x", ""],                    # empty is not "no x"
    ["zfull", "--rank", "1", "--tau", "0", "1", "--x", ""],
    ["zfull", "--rank", "2", "--tau", "0", "1", "--cutoff", "-2.5"],     # every exponent >= -r
], ids=["tau-nan", "radius-nan", "radius-inf", "cutoff-inf", "x-abc", "order-abc",
        "order-1/0", "tail-inf", "zfull-rank-0", "tau-phase-inf", "tail-bound-overflow",
        "q-underflow", "zfull-radius-negative", "theta-rank-huge", "theta-alpha-empty",
        "zseries-alpha-empty", "theta-x-empty", "zfull-x-empty", "zfull-cutoff-below-rank"])
def test_bad_numbers_exit_2_with_error_document(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:               # argparse usage errors exit this way
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert set(json.loads(captured.out)) == {"error"}
    assert captured.err == ""


def test_an_integer_past_the_digit_limit_is_not_called_not_finite(tmp_path, capsys):
    # json reads the 4,000-digit entry, but the pairing has about 8,000 digits, more than
    # the interpreter writes; the value is exact, only too long to print
    surface = tmp_path / "s.json"
    surface.write_text(json.dumps({"rank": 2, "gram": [[2, 1], [1, -2]]}))
    x = 10 ** 3999
    v = write_vec(tmp_path, "v.json", 1, (x, 0), 0)
    argv = ["pair", "--surface", str(surface), "--x", v, "--y", v]
    limit = sys.get_int_max_str_digits()
    assert run(capsys, *argv) == (2, json.dumps({"error": (
        f"the result is exact, but an integer in it has more than {limit} digits, "
        f"this interpreter's limit for writing one (PYTHONINTMAXSTRDIGITS)")}) + "\n")
    sys.set_int_max_str_digits(0)       # lifted, as the message says, the value is written
    try:
        assert run_json(capsys, *argv) == {"pairing": 2 * x * x}
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("value", [math.nan, math.inf, [0.0, -math.inf]],
                         ids=["nan", "inf", "nested-minus-inf"])
def test_a_result_that_is_not_finite_keeps_its_message(monkeypatch, capsys, value):
    monkeypatch.setattr(k3tk.cli, "_cmd_gottsche", lambda args: {"value": value})
    assert run(capsys, "gottsche", "--order", "3") == (
        2, '{"error": "the result is not finite at this input"}\n')


def test_theta_reads_alpha_modulo_the_coset_step(capsys):
    # an alpha past the double range names the same coset as its residue mod r
    for rank, alpha in (("1", 0), ("2", 1)):
        want = run_json(capsys, "theta", "--tau", "0", "1", "--rank", rank, "--alpha",
                        str(alpha))
        assert run_json(capsys, "theta", "--tau", "0", "1", "--rank", rank, "--alpha",
                        str(10 ** 400 + alpha)) == want


@pytest.mark.parametrize("gram", [[], [[10 ** 400]]], ids=["rank-0", "huge-entry"])
@pytest.mark.parametrize("command", ["theta", "zfull"])
def test_unusable_surfaces_exit_2(tmp_path, capsys, gram, command):
    surf = tmp_path / "s.json"
    surf.write_text(json.dumps({"gram": gram}))
    for splitting in ("spectral", "identity"):
        code, out = run(capsys, command, "--surface", str(surf), "--rank", "1",
                        "--tau", "0", "1", "--splitting", splitting)
        assert code == 2 and set(json.loads(out)) == {"error"}


# one spawn of each way out of main: a document, an input error, a usage error and --help
_EXITS = {"document": (["gottsche", "--order", "3"], 0),
          "input-error": (["gottsche", "--order", "0"], 2),
          "usage-error": (["gottsche", "--order", "x"], 2),
          "help": (["--help"], 0)}
_BASE = {"k3tk", "k3tk.cli", "k3tk.errors", "k3tk.lattice"}
_LAYERS = {     # the k3tk modules a spawn may load: its subcommand's module and what it imports
    "lattice": _BASE, "isometry": _BASE | {"k3tk.isometry"}, "moduli": _BASE | {"k3tk.moduli"},
    "constructions": _BASE | {"k3tk.isometry", "k3tk.constructions"},
    "partitions": _BASE | {"k3tk.moduli", "k3tk.qseries", "k3tk.partitions"},
    "theta": _BASE | {"k3tk.moduli", "k3tk.qseries", "k3tk.partitions", "k3tk.theta"}}
_NUMBERS = {"fractions", "decimal", "cmath"}        # a Fraction brings decimal along
_ZSERIES = ["zseries", "--rank", "2", "--order", "3"]
_THETA = ["theta", "--surface", "s.json", "--tau", "0", "1"]
_ZFULL = ["zfull", "--surface", "s.json", "--rank", "2", "--tau", "0", "1"]


def _row(argv, layer, may=frozenset(), code=0, entry="runpy", flags=()):
    return argv, code, entry, flags, _LAYERS[layer], may


_SPAWNS = {     # name: a spawn, its layer and the watched modules besides k3tk's it may load
    "pair": _row(["pair", "--x", "v.json", "--y", "v.json"], "lattice"),
    "dualize": _row(["dualize", "--v", "v.json"], "lattice"),
    "translate": _row(["translate", "--N", "-1", "--v", "v.json"], "isometry"),
    "reflect": _row(["reflect", "--u", "o.json", "--v", "v.json"], "isometry"),
    "word": _row(["word", "--word", "w.json", "--v", "v.json"], "isometry"),
    "invariants": _row(["invariants", "--v", "v.json"], "moduli"),
    "gottsche": _row(["gottsche", "--order", "40"], "moduli"),
    "chivirtual": _row(["chivirtual", "--v", "v.json"], "moduli"),
    "zseries": _row(_ZSERIES, "partitions", _NUMBERS),
    "theta": _row(_THETA, "theta", _NUMBERS),
    "zfull": _row(_ZFULL, "theta", _NUMBERS),
    "construct": _row(["construct", "--l", "2", "--r", "3", "--s", "2", "--a", "1"],
                      "constructions"),
    "verify": _row(["verify", "triangle", "--bound", "8"], "constructions"),
    "theta-identity": _row([*_THETA, "--splitting", "identity"], "theta", _NUMBERS),
    "zfull-identity": _row([*_ZFULL, "--splitting", "identity"], "theta", _NUMBERS),
    "zseries-literal": _row([*_ZSERIES, "--method", "literal"], "partitions",
                            _NUMBERS | {"mpmath"}),
    **{f"{kind}-{entry}": _row(argv, "lattice" if kind in ("usage-error", "help") else "moduli",
                               code=code, entry=entry)
       for kind, (argv, code) in _EXITS.items() for entry in ("runpy", "script")},
    # -S, so that no site module preloads typing (none does on 3.10, 3.12 and 3.13)
    "zseries-hecke-S": _row([*_ZSERIES, "--method", "hecke"], "partitions", _NUMBERS,
                            flags=("-S",)),
    "theta-S": _row(_THETA, "theta", _NUMBERS, flags=("-S",)),
    "zfull-S": _row(_ZFULL, "theta", _NUMBERS, flags=("-S",)),
}
_IMPORT_PROBE = """
import gc, json, runpy, sys
code, entry, sys.argv = int(sys.argv[2]), sys.argv[3], ["k3tk", *json.loads(sys.argv[1])]
try:
    if entry == "script":       # what the installed k3tk script runs
        from k3tk.cli import main
        sys.exit(main())
    runpy.run_module("k3tk", run_name="__main__")
except SystemExit as exc:
    assert exc.code == code, exc.code
loaded = set(sys.modules)
print(json.dumps({"floats": sorted({"numpy", "mpmath"} & loaded),
                  "k3tk": sorted(m for m in loaded if m.split(".")[0] == "k3tk"),
                  "records": sorted({"dataclasses", "inspect"} & loaded),
                  "numbers": sorted({"fractions", "decimal", "cmath"} & loaded),
                  "parsing": sorted({"argparse", "gettext", "locale"} & loaded),
                  "frozen": gc.get_freeze_count(), "typing": "typing" in loaded}))
"""


@functools.cache
def _loaded_by(name):
    """The probe's facts, by name, about row name of _SPAWNS, spawned once per session on
    _PINNED_INPUTS: python -m k3tk (entry "runpy") or the k3tk script (entry "script")."""
    argv, code, entry, flags, *_ = _SPAWNS[name]
    with tempfile.TemporaryDirectory() as folder:
        for file, doc in _PINNED_INPUTS.items():
            (pathlib.Path(folder) / file).write_text(json.dumps(doc))
        argv = [os.path.join(folder, a) if a.endswith(".json") else a for a in argv]
        proc = _spawn([json.dumps(argv), str(code), entry], timeout=60, flags=flags,
                      probe=_IMPORT_PROBE)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", _SPAWNS)
def test_each_spawn_loads_only_what_its_row_allows(name):
    # a float library, Fraction, record type or (on the -S rows) typing costs a spawn
    # milliseconds; the package parses argv and writes help without argparse, gettext or
    # locale; and every way out freezes the heap, so shutdown's collections skip its objects
    *_, flags, layer, may = _SPAWNS[name]
    facts = _loaded_by(name)
    assert set(facts["k3tk"]) <= layer
    for watched in ("floats", "records", "numbers", "parsing"):
        assert set(facts[watched]) <= may, watched
    assert facts["frozen"] > 0
    assert not (flags and facts["typing"])


def _folded(*names, **renamed):
    """The table test under the ids of a per-fact test it replaced: each row of names under
    its own name, each row of renamed under its key; the rows spawn no second time."""
    @pytest.mark.parametrize("name", [*names, *renamed.values()], ids=[*names, *renamed])
    def test(name):
        test_each_spawn_loads_only_what_its_row_allows(name)
    return test


_INTEGER = ("pair", "translate", "word", "construct", "invariants", "gottsche", "verify")
test_integer_subcommands_load_no_float_libraries = _folded(*_INTEGER)
test_integer_subcommands_load_no_fractions = _folded(*_INTEGER, "chivirtual")
test_theta_subcommands_load_no_float_libraries = _folded(**{
    "spectral-theta": "theta", "spectral-zfull": "zfull", "identity-theta": "theta-identity",
    "identity-zfull": "zfull-identity"})
test_no_subcommand_loads_dataclasses_or_inspect = _folded(*_INTEGER, **{
    "theta---splitting-spectral": "theta", "zfull---splitting-identity": "zfull-identity",
    "zseries---method-literal": "zseries-literal"})
test_float_subcommands_load_no_typing = _folded(
    zseries="zseries-hecke-S", theta="theta-S", zfull="zfull-S")
test_euler_subcommands_load_only_the_moduli_layer = _folded("invariants", "gottsche",
                                                            "chivirtual")
test_no_spawn_loads_argparse_gettext_or_locale = _folded(
    *k3tk.cli._COMMANDS, **{"usage-error": "usage-error-runpy"})
test_every_spawn_freezes_its_heap_before_exit = _folded(
    *(f"{kind}-{entry}" for kind in _EXITS for entry in ("runpy", "script")))


def test_pair_loads_only_the_lattice_layer():
    test_each_spawn_loads_only_what_its_row_allows("pair")


def test_lattice_import_loads_no_dataclasses():
    proc = _spawn([], timeout=60, probe="import sys, k3tk.lattice; "
                  "print('dataclasses' in sys.modules, 'inspect' in sys.modules)")
    assert proc.stdout.split() == ["False", "False"]


@pytest.mark.parametrize("exit_kind", _EXITS)
def test_in_process_main_never_freezes(capsys, exit_kind):
    argv, code = _EXITS[exit_kind]
    before = gc.get_freeze_count()
    try:
        assert main(argv) == code
    except SystemExit as exc:
        assert exc.code == code
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("exit_kind", _EXITS)
def test_spawns_in_dev_mode_with_warnings_as_errors_exit_cleanly(exit_kind):
    # -X dev shows a ResourceWarning or a finalizer's error at shutdown; -W error fails on it
    argv, code = _EXITS[exit_kind]
    proc = _spawn(argv, timeout=60, flags=("-X", "dev", "-W", "error"))
    assert (proc.returncode, proc.stderr) == (code, "")
    assert proc.stdout.startswith("usage: k3tk") if exit_kind == "help" \
        else len(json.loads(proc.stdout)) == 1


PUBLIC_NAMES = [
    "AuxConstruction", "CaseInfo", "ConsistencyError", "Dual", "EvenLattice", "FareyCheck",
    "InputError", "IsometryWord", "MukaiVector", "NSAuto", "Negate", "NonLocallyFree",
    "QSeries", "Reflect", "Splitting", "ThetaSum", "Translate", "ZFullSum", "apply_reflect",
    "apply_translate", "build_auxiliary", "chi_virtual", "classify_case",
    "classify_non_locally_free", "constructions", "content", "dual", "ell", "errors",
    "euler_characteristic", "exists_mu_stable", "exists_semistable",
    "exists_stable_primitive", "farey_gap_holds", "gottsche_series", "hilb_euler",
    "hilb_index", "isometry", "lattice", "moduli", "moduli_dim", "mu_stable_boundary_flag",
    "mukai_from_chern", "mukai_pairing", "partitions", "primitive", "qs_add",
    "qs_evaluate", "qs_mul", "qs_scale", "qs_substitute_power", "qseries", "square",
    "sweep_farey", "sweep_triangles", "theta", "theta_siegel_narain",
    "triangle_interior_count", "z1_zero",
    "z_full_direct", "z_full_factorized", "z_psu_direct", "z_psu_hecke", "z_psu_hecke_literal",
]

_PACKAGE_PROBE = """
import json, sys
import k3tk
loaded = sorted(m for m in sys.modules if m.startswith("k3tk."))
names = {}
exec("from k3tk import *", names)
print(json.dumps([loaded, k3tk.__all__, sorted(n for n in names if not n.startswith("__")),
                  all(getattr(k3tk, n) is names[n] for n in k3tk.__all__)]))
"""


def test_package_import_loads_no_submodule_and_resolves_every_name():
    loaded, public, star, same = json.loads(_spawn([], timeout=60, probe=_PACKAGE_PROBE).stdout)
    assert loaded == []
    assert public == PUBLIC_NAMES and star == PUBLIC_NAMES and same
    with pytest.raises(AttributeError):
        k3tk.no_such_name


@pytest.mark.parametrize("argv", [
    ["zfull", "--rank", "2", "--tau", "0", "0.01"],
    ["zfull", "--rank", "1", "--tau", "0", "1e300"],
    ["zfull", "--rank", "1", "--tau", "0", "1e300", "--method", "factorized"],
    ["zfull", "--rank", "2", "--tau", "0", "1", "--cutoff", "1e9"],
    ["zfull", "--rank", "2", "--tau", "0", "1", "--radius", "1e6"],
    ["theta", "--tau", "0", "1", "--radius", "1e7"],
    ["zseries", "--rank", "2", "--order", "1e300", "--method", "literal"],
], ids=["tau-uncertified", "tau-overflow", "tau-underflow", "cutoff-1e9", "radius-1e6",
        "theta-radius-1e7", "order-1e300"])
def test_out_of_range_inputs_exit_2_quickly(argv):
    _assert_spawned_input_error(argv, timeout=5)


@pytest.mark.parametrize("argv", [
    ["--rank", "2", "--tau", "0", "1", "--order", "-5"],
    ["--rank", "3", "--tau", "0", "0.5", "--surface", "s.json"],
    ["--rank", "2", "--tau", "0", "0.3", "--surface", "s.json"],
], ids=["empty-series", "rank-3-tau-0.5i", "rank-2-tau-0.3i"])
def test_zfull_tails_cover_the_difference(tmp_path, argv):
    # an empty series (order -5) has a finite tail, the whole a-sum's bound; at Im tau <= 0.5
    # both tails are finite, if loose, on Gram [-2]
    (tmp_path / "s.json").write_text(json.dumps({"rank": 1, "gram": [[-2]]}))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    code, doc = _assert_contract(["zfull", *argv])
    assert code == 0 and 0 < doc["difference"]
    assert doc["difference"] <= doc["direct"]["tail"] + doc["factorized"]["tail"] < math.inf


def test_zfull_at_a_large_im_tau_exits_0_with_a_finite_value(tmp_path):
    surface = tmp_path / "s.json"
    surface.write_text(json.dumps({"rank": 1, "gram": [[-2]]}))
    code, doc = _assert_contract(["zfull", "--surface", str(surface), "--rank", "1",
                                  "--tau", "0", "50"])
    assert code == 0 and doc["difference"] < 1e-12 * abs(doc["direct"]["value"][0])
    assert all(math.isfinite(v) for part in ("direct", "factorized")
               for v in (*doc[part]["value"], doc[part]["tail"]))


def test_unbounded_factorized_tail_exits_2(tmp_path):
    surface = tmp_path / "s.json"
    surface.write_text(json.dumps({"rank": 1, "gram": [[-2]]}))
    _assert_spawned_input_error(["zfull", "--rank", "2", "--tau", "0", "0.02", "--order", "-5",
                                 "--method", "factorized", "--surface", str(surface)], 10)


@pytest.mark.parametrize("argv", [
    ["gottsche", "--order", "100000"],
    ["zfull", "--rank", "1", "--tau", "0", "1", "--cutoff", "4000"],
], ids=["gottsche-order-1e5", "zfull-cutoff-4000"])
def test_goettsche_index_refused_within_2_s(argv):
    # gottsche is refused before the Euler-number table grows (O(n^1.5) products); zfull grows
    # it to n = 4009 and is refused at its first weight past a double, chi(Hilb^3714)
    _assert_spawned_input_error(argv, timeout=2)


_SRC = os.path.dirname(os.path.dirname(os.path.abspath(k3tk.__file__)))


def _spawn(argv, timeout, flags=(), probe=None):
    """python flags -m k3tk argv, or python flags -c probe argv, with the package on its path."""
    return subprocess.run([sys.executable, *flags, *(("-m", "k3tk") if probe is None
                                                      else ("-c", probe)), *argv],
                          env=dict(os.environ, PYTHONPATH=_SRC),
                          capture_output=True, text=True, timeout=timeout)


def _assert_spawned_input_error(argv, timeout):
    proc = _spawn(argv, timeout)
    assert proc.returncode == 2
    assert set(json.loads(proc.stdout)) == {"error"}       # exactly one JSON document
    assert proc.stderr == ""


@pytest.mark.parametrize("argv", [
    ["chivirtual", "--v", "content-1e30.json"],
    ["zseries", "--rank", str(10 ** 30), "--order", "2", "--method", "hecke"],
    ["verify", "triangle", "--bound", "1000000"],
    ["verify", "farey", "--bound", "1000000"],
], ids=["chivirtual-content-1e30", "zseries-hecke-rank-1e30", "triangle-1e6", "farey-1e6"])
def test_work_caps_refuse_in_a_spawned_run(tmp_path, argv):
    # spawned with a timeout, so a missing cap fails the test instead of hanging it
    write_vec(tmp_path, "content-1e30.json", 10 ** 30, (0,), 0)
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    _assert_spawned_input_error(argv, timeout=10)


def test_huge_nonprimitive_invariants_finish_in_a_spawned_run(tmp_path):
    v = write_vec(tmp_path, "v.json", 10 ** 30, (10 ** 30,), 10 ** 400)
    proc = _spawn(["invariants", "--v", v], timeout=10)
    assert proc.returncode == 0 and proc.stderr == ""
    doc = json.loads(proc.stdout)
    assert doc["exists_semistable"] is False and doc["primitive"] is False


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["gottsche", "--order", "5"], ["gottsche", "--order", "0"], ["gottsche", "--order", "x"],
    ["--help"], ["theta", "--help"],
], ids=["result", "input-error", "usage-error", "help", "subcommand-help"])
def test_closed_stdout_exits_141_with_empty_stderr(argv, unbuffered):
    # the reader of stdout is gone before the document is written: no "internal"
    # document, no traceback, and the shell's code for a writer killed by SIGPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "k3tk", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=10,
                              env=dict(os.environ, PYTHONPATH=_SRC, PYTHONUNBUFFERED=unbuffered))
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


@pytest.mark.parametrize("argv, plain", [
    (["zfull", "--rank", "2", "--tau", "0", "1", "--cutoff", "-1.5e0"],
     ["zfull", "--rank", "2", "--tau", "0", "1", "--cutoff=-1.5"]),
    (["theta", "--tau", "-1e-05", "1", "--radius", "3"],
     ["theta", "--tau", "-0.00001", "1", "--radius", "3"]),
    (["theta", "--tau", "-.5", "1", "--x", "-1E-1,0", "--radius", "2"],
     ["theta", "--tau", "-0.5", "1", "--x=-0.1,0", "--radius", "2"]),
], ids=["zfull-cutoff", "theta-tau", "theta-x"])
def test_negative_numbers_in_any_notation_are_values(capsys, argv, plain):
    assert run_json(capsys, *argv) == run_json(capsys, *plain)


def test_unexpected_exception_is_an_internal_error_document(monkeypatch, capsys):
    def broken(args):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(k3tk.cli, "_cmd_gottsche", broken)
    code = main(["gottsche", "--order", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out) == {"error": "ZeroDivisionError: boom", "internal": True}
    assert captured.err == ""


@pytest.mark.parametrize("target, wrong, line, error", [
    ("k3tk.moduli._hilb_euler", [1, 24, 325], "gottsche --order 6",
     "chi(Hilb^4) is not an integer"),
    ("k3tk.constructions.square", lambda v, lat: k3tk.square(v, lat) + 2,
     "construct --l 2 --r 3 --s 2 --a 1", "auxiliary construction invariant failed: <v1^2> = -2"),
    ("k3tk.constructions.ell", lambda w: 2, "construct --l 2 --r 3 --s 2 --a 1",
     "reflected target must have coprime rank and degree"),
    ("k3tk.constructions.Negate", k3tk.Dual, "construct --l 2 --r 3 --s 2 --a 1",
     "reflected target disagrees with its closed form"),
], ids=["gottsche", "construct-square", "construct-ell", "construct-negate"])
def test_a_wrong_formula_exits_1_with_the_internal_document(monkeypatch, capsys, target, wrong,
                                                            line, error):
    monkeypatch.setattr(target, wrong)
    doc = {"error": f"ConsistencyError: {error}", "internal": True}
    assert run(capsys, *line.split()) == (1, json.dumps(doc) + "\n")


def test_a_wrong_inverse_exits_1_with_the_internal_document(monkeypatch, capsys):
    # pow(b, -1, 3) one more than the inverse, mod 3, leaves no positive polarization square
    monkeypatch.setattr("k3tk.constructions.pow", lambda b, e, m: (pow(b, e, m) + 1) % m,
                        raising=False)
    doc = {"error": "ConsistencyError: polarization square k must be positive", "internal": True}
    assert run(capsys, *"construct --l 3 --r 3 --s 1 --a 1".split()) == (1, json.dumps(doc) + "\n")


def test_a_sweep_lists_its_first_ten_counterexamples(monkeypatch, capsys):
    monkeypatch.setattr("k3tk.constructions._interior_points", lambda *corners: 1)
    tuples = oracles.triangle_tuples_brute(6)
    assert run_json(capsys, "verify", "triangle", "--bound", "6") == {
        "checked": 63, "counterexamples": 63, "examples": [list(t) for t in tuples[:10]]}


def _no_constant(name):
    raise AssertionError(f"{name} written into JSON")


def _assert_contract(argv):
    """Run the CLI in process; one JSON document on stdout, an empty stderr, and
    exit 0 or 2, or 1 for a ConsistencyError only.  Returns (code, document)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:           # argparse usage errors exit this way
            code = exc.code
    doc = json.loads(out.getvalue(), parse_constant=_no_constant)
    assert err.getvalue() == ""
    assert code in (0, 2) or (code == 1 and doc.get("internal") is True
                              and doc["error"].startswith("ConsistencyError")), (code, doc)
    return code, doc


_SMALL = st.integers(-3, 3)
_ODD = st.sampled_from([10 ** 30, -10 ** 30, 10 ** 400, 1.5, -0.5, float("nan"),
                        float("inf"), None, True, "1", [], {}])


def _mostly(good, bad):
    """good, with bad one draw in eight."""
    return st.integers(0, 7).flatmap(lambda i: bad if i == 0 else good)


_ENTRY = _mostly(_SMALL, _ODD)
_VECTOR = st.fixed_dictionaries({"r": _ENTRY, "c1": st.lists(_ENTRY, min_size=1, max_size=2),
                                 "a": _ENTRY})


@st.composite
def _surface_doc(draw):
    n = draw(st.integers(0, 3))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = 2 * draw(_SMALL)
        for j in range(i):
            gram[i][j] = gram[j][i] = draw(_SMALL)
    if n and not draw(st.integers(0, 3)):   # odd, asymmetric, huge or non-integral entry
        gram[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(_ENTRY)
    return {"rank": draw(st.sampled_from([n, n, n, n + 1, "2"])), "gram": gram}


_WORD = st.lists(st.fixed_dictionaries(
    {"type": st.sampled_from(["translate", "reflect", "nsauto", "negate", "dual", "spin"])},
    optional={"N": st.lists(_ENTRY, max_size=3), "u": _VECTOR,
              "M": st.lists(st.lists(_ENTRY, max_size=3), max_size=3)}), max_size=3)
_JUNK = st.recursive(st.none() | st.booleans() | _SMALL | _ODD | st.text(max_size=3),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.sampled_from(["r", "c1", "a", "gram", "type"]),
                                       inner, max_size=3), max_leaves=6)
_FILES = {"--x": _VECTOR, "--y": _VECTOR, "--v": _VECTOR, "--u": _VECTOR,
          "--surface": _surface_doc(), "--word": _WORD}

_BAD_NUMBER = st.sampled_from(["1e300", "-1e300", "1e-300", "1e308", str(10 ** 30),
                               str(10 ** 400), str(-10 ** 400), "nan",
                               "NaN", "inf", "-inf", "Infinity", "1/0", "1.5", "abc", ""])
_GOOD = {"int": ["0", "1", "2", "3", "-1", "5"], "float": ["0", "0.5", "2", "3.5", "-1.5e3"],
         "rational": ["3", "5/2", "-1", "0.5"], "re": ["0", "0.25", "-1e-05"],
         "im": ["1", "0.8", "2", "-1", "50"]}
_NUMBER = {kind: _mostly(st.sampled_from(good), _BAD_NUMBER) for kind, good in _GOOD.items()}
_KIND = {"--radius": "float", "--cutoff": "float", "--N": "int", "--alpha": "int",
         "--x": "float"}
_CHOICES = {"--splitting": ["spectral", "identity"], "zseries": ["direct", "hecke", "literal"],
            "zfull": ["direct", "factorized", "both"]}
_OPTIONS = {        # required options first
    "pair": ("--x", "--y", "--surface"), "dualize": ("--v",),
    "translate": ("--N", "--v", "--surface"), "reflect": ("--u", "--v", "--surface"),
    "word": ("--word", "--v", "--surface"), "invariants": ("--v", "--surface"),
    "gottsche": ("--order",), "chivirtual": ("--v", "--surface"),
    "zseries": ("--rank", "--order", "--alpha", "--method", "--surface"),
    "theta": ("--tau", "--rank", "--alpha", "--x", "--radius", "--splitting", "--surface"),
    "zfull": ("--rank", "--tau", "--x", "--method", "--cutoff", "--order", "--radius",
              "--splitting", "--surface"),
    "construct": ("--l", "--r", "--s", "--a"),
    "verify": ("--bound",),
}
_REQUIRED = {"pair": 2, "dualize": 1, "translate": 2, "reflect": 2, "word": 2, "invariants": 1,
             "gottsche": 1, "chivirtual": 1, "zseries": 2, "theta": 1, "zfull": 2,
             "construct": 4, "verify": 1}


def test_generated_options_are_the_command_table():
    assert _OPTIONS.keys() == k3tk.cli._COMMANDS.keys()
    for name, (_, options) in k3tk.cli._COMMANDS.items():
        assert set(_OPTIONS[name]) == {o for o in options if o.startswith("--")}, name


_STRAY = ["--bogus", "extra", "-1", "-x", "--radius", "--", "--s", "--ra"]


@st.composite
def _invocation(draw, with_help=False):
    """(argv, {file name: document}): a subcommand with some of its options in any order,
    each maybe abbreviated, repeated or written --opt=value, and verify's positional on
    either side of --bound; a file option names a generated JSON document of its kind (or
    of any shape), or a missing file.  One draw in ten adds a stray token, -- among them
    (and -h, when with_help), anywhere in argv, before the subcommand too."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    files = {}

    def value(opt):
        if opt in _FILES and not (command in ("theta", "zfull") and opt == "--x"):
            name = f"{len(files)}.json"
            files[name] = draw(_mostly(_FILES[opt], _JUNK))
            # a token with a space is a value, even when it starts with a dash
            return [draw(st.sampled_from([name] * 8 + ["missing.json", "-a missing.json"]))]
        if opt in ("--N", "--alpha", "--x"):
            return [",".join(draw(st.lists(_NUMBER[_KIND[opt]], min_size=1, max_size=4)))]
        if opt == "--tau":
            return [draw(_NUMBER["re"]), draw(_NUMBER["im"])]
        if opt in ("--method", "--splitting"):
            valid = _CHOICES[opt if opt == "--splitting" else command]
            return [draw(_mostly(st.sampled_from(valid), st.sampled_from(["other", "hecke"])))]
        kind = "rational" if command == "zseries" and opt == "--order" else "int"
        return [draw(_NUMBER[_KIND.get(opt, kind)])]

    groups = []
    for i, opt in enumerate(_OPTIONS[command]):
        if not draw(st.integers(0, 9 if i < _REQUIRED[command] else 1)):
            continue
        for _ in range(2 if not draw(st.integers(0, 9)) else 1):    # the last one counts
            # a prefix may name one option or several (--s: --surface or --splitting)
            name = opt if len(opt) == 3 or draw(st.integers(0, 3)) else \
                opt[:draw(st.integers(3, len(opt) - 1))]
            values = value(opt)
            groups.append([name + "=" + values[0], *values[1:]] if draw(st.booleans())
                          else [name, *values])
    groups = draw(st.permutations(groups))
    if command == "verify":     # -- before or after the positional, too
        what = draw(st.sampled_from(["triangle", "farey", "triangle", "sphere"]))
        groups.insert(draw(st.integers(0, len(groups))),
                      draw(st.sampled_from([[what], [what], ["--", what], [what, "--"]])))
    argv = [command, *(token for group in groups for token in group)]
    if not draw(st.integers(0, 9)):
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(_STRAY + ["-h"] * with_help)))
    return argv, files


@settings(max_examples=300, deadline=None)
@given(_invocation())
def test_cli_contract_holds_for_generated_input(tmp_path_factory, case):
    # --help asks for plain text, so it is not generated
    argv, files = case
    folder = tmp_path_factory.mktemp("contract")
    for name, doc in files.items():
        (folder / name).write_text(json.dumps(doc))
    _assert_contract([re.sub(r"^(--\w+=)?(\d+|missing)\.json$",
                             lambda m: (m[1] or "") + str(folder / f"{m[2]}.json"), a)
                      for a in argv])


@settings(max_examples=500, deadline=None)
@given(_invocation(with_help=True))
def test_parser_agrees_with_the_argparse_reference(case):
    _assert_parses_as_the_reference(case[0])


_README_FIXTURES = {
    "v.json": {"r": 2, "c1": [1], "a": 0}, "v1.json": {"r": 1, "c1": [0], "a": 1},
    "v2.json": {"r": 2, "c1": [1], "a": -1}, "u.json": {"r": 1, "c1": [0], "a": 1},
    "s.json": {"rank": 1, "gram": [[-2]]},
    "word.json": [{"type": "translate", "N": [1]}, {"type": "dual"}],
}


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI$.*?^```sh$(.*?)^```$", readme, re.S | re.M)[1]
    lines = [line.split("#")[0].split() for line in block.splitlines() if line.strip()]
    assert lines and all(line[0] == "k3tk" for line in lines)
    assert {line[1] for line in lines} == set(k3tk.cli._COMMANDS)
    for name, doc in _README_FIXTURES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert _assert_contract(line[1:])[0] == 0, line
