import json

import pytest

from k3tk import (EvenLattice, IsometryWord, MukaiVector, apply_reflect,
                  apply_translate, build_auxiliary)
from k3tk.cli import main


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


def test_gottsche(capsys):
    doc = run_json(capsys, "gottsche", "--order", "4")
    assert doc == {"coeffs": [1, 24, 324, 3200]}
    code, out = run(capsys, "gottsche", "--order", "4", "--lines")
    assert code == 0
    assert out.splitlines() == ["1", "24", "324", "3200"]


def test_chivirtual(tmp_path, capsys):
    v = write_vec(tmp_path, "v.json", 2, (0,), 2)
    doc = run_json(capsys, "chivirtual", "--v", v)
    assert doc == {"chi_virtual": {"num": 1, "den": 4}}


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


def test_verify_commands(capsys):
    doc = run_json(capsys, "verify", "triangle", "--bound", "10")
    assert doc["counterexamples"] == 0 and doc["checked"] > 0
    doc = run_json(capsys, "verify", "farey", "--bound", "12")
    assert doc["counterexamples"] == 0 and doc["checked"] > 0


def test_output_deterministic(tmp_path, capsys):
    v = write_vec(tmp_path, "v.json", 3, (1,), -2)
    _, first = run(capsys, "invariants", "--v", v)
    _, second = run(capsys, "invariants", "--v", v)
    assert first == second


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


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_threads_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("K3TK_THREADS", "4")
    doc = run_json(capsys, "gottsche", "--order", "2")
    assert doc == {"coeffs": [1, 24]}
    monkeypatch.setenv("K3TK_THREADS", "zero")
    code, _ = run(capsys, "gottsche", "--order", "2")
    assert code == 2
