import json
import subprocess
import sys
from pathlib import Path

import pytest

import spechtdesigns
from spechtdesigns.cli import main
from spechtdesigns.hemmer import SelfCheckError


def run_cli(capsys, *args):
    rc = main(list(args))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_classify_command(capsys):
    rc, out, err = run_cli(capsys, "classify", "--a", "3", "--b", "3", "--p", "3")
    assert rc == 0 and err == ""
    assert json.loads(out) == {
        "a": 3, "b": 3, "p": 3, "kind": "pointed", "beta": 1, "bhat": 0,
    }


def test_classify_bad_shape_exits_2(capsys):
    rc, out, err = run_cli(capsys, "classify", "--a", "2", "--b", "3", "--p", "3")
    assert rc == 2 and "a >= b" in err


def test_classify_bad_prime_exits_2(capsys):
    rc, _, err = run_cli(capsys, "classify", "--a", "3", "--b", "3", "--p", "9")
    assert rc == 2 and "prime" in err


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_construct_verify_pipeline(tmp_path, capsys):
    out_file = tmp_path / "element.json"
    rc, _, _ = run_cli(
        capsys, "construct", "--a", "4", "--b", "3", "--p", "3",
        "--out", str(out_file),
    )
    assert rc == 0
    doc = json.loads(out_file.read_text())
    assert doc["a"] == 4 and doc["b"] == 3
    rc, out, _ = run_cli(capsys, "verify", "--file", str(out_file))
    assert rc == 0
    report = json.loads(out)
    assert report["is_hemmer"] is True
    assert report["spectrum"]["levels"][0]["mu"] == 1


def test_construct_methods_agree_on_spectrum(capsys):
    rc, auto_out, _ = run_cli(capsys, "construct", "--a", "8", "--b", "3", "--p", "3")
    assert rc == 0
    rc, solve_out, _ = run_cli(
        capsys, "construct", "--a", "8", "--b", "3", "--p", "3", "--method", "solve"
    )
    assert rc == 0
    assert json.loads(auto_out)["b"] == json.loads(solve_out)["b"] == 3


def test_construct_neither_exits_2(capsys):
    rc, _, err = run_cli(capsys, "construct", "--a", "5", "--b", "3", "--p", "3")
    assert rc == 2 and "neither" in err
    rc, _, err = run_cli(
        capsys, "construct", "--a", "5", "--b", "3", "--p", "3", "--method", "solve"
    )
    assert rc == 2


def test_construct_self_check_failure_exits_1(capsys, monkeypatch):
    def boom(a, b, p):
        raise SelfCheckError("forced")

    monkeypatch.setattr("spechtdesigns.cli.construct_auto", boom)
    rc, _, err = run_cli(capsys, "construct", "--a", "4", "--b", "3", "--p", "3")
    assert rc == 1 and "self-check failed" in err


def test_verify_bad_file_exits_2(tmp_path, capsys):
    rc, _, err = run_cli(capsys, "verify", "--file", str(tmp_path / "missing.json"))
    assert rc == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, _ = run_cli(capsys, "verify", "--file", str(bad))
    assert rc == 2
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"p": 3, "a": 2, "b": 2, "entries": [
        {"set": [2, 1], "coeff": 1}
    ]}))
    rc, _, err = run_cli(capsys, "verify", "--file", str(schema))
    assert rc == 2 and "ascending" in err


def test_verify_word_size_prime_exits_2(tmp_path, capsys):
    big = 4294967311  # the least prime above 2^32; big^2 overflows int64
    doc = tmp_path / "big.json"
    doc.write_text(json.dumps({"p": big, "a": 2, "b": 1, "entries": [
        {"set": [1], "coeff": big - 2}
    ]}))
    rc, _, err = run_cli(capsys, "verify", "--file", str(doc))
    assert rc == 2 and "2^31" in err
    # the digit arithmetic behind classify has no word-size limit
    rc, out, _ = run_cli(capsys, "classify", "--a", "3", "--b", "3", "--p", str(big))
    assert rc == 0 and json.loads(out)["kind"] == "neither"


def test_design_fp(capsys):
    rc, out, _ = run_cli(
        capsys, "design", "--g", "9", "--b", "3", "--t", "1", "--p", "3"
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["exists"] is True and doc["element"]["b"] == 3
    rc, out, _ = run_cli(
        capsys, "design", "--g", "5", "--b", "3", "--t", "2", "--p", "3"
    )
    assert json.loads(out) == {"exists": False}


def test_design_fp_needs_p(capsys):
    rc, _, err = run_cli(capsys, "design", "--g", "9", "--b", "3", "--t", "1")
    assert rc == 2 and "--p" in err


def test_design_integral(capsys):
    rc, out, _ = run_cli(
        capsys, "design", "--g", "4", "--b", "2", "--t", "1",
        "--mode", "integral", "--mu", "6,3",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["ratio_ok"] is True and doc["exists"] is True
    assert len(doc["coeffs"]) == 6
    rc, out, _ = run_cli(
        capsys, "design", "--g", "4", "--b", "2", "--t", "1",
        "--mode", "integral", "--mu", "6,2",
    )
    doc = json.loads(out)
    assert doc == {"ratio_ok": False, "exists": False}
    rc, _, err = run_cli(
        capsys, "design", "--g", "4", "--b", "2", "--t", "1", "--mode", "integral"
    )
    assert rc == 2 and "--mu" in err


def test_poset_command(capsys):
    rc, out, _ = run_cli(capsys, "poset", "--a", "3", "--b", "3", "--p", "3")
    assert rc == 0
    assert json.loads(out) == {"members": [0, 1, 2], "components": [[0], [1, 2]]}


def test_h1dim_command(capsys):
    rc, out, _ = run_cli(capsys, "h1dim", "--a", "3", "--b", "3", "--p", "3")
    assert rc == 0
    doc = json.loads(out)
    assert doc["dim_S"] == 5 and doc["dim_D"] == 7 and doc["match"] is True
    rc, _, err = run_cli(
        capsys, "h1dim", "--a", "14", "--b", "4", "--p", "3", "--budget", "100"
    )
    assert rc == 2 and "budget" in err


def test_survey_command(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "survey", "--nmax", "6", "--p", "3,5")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("a,b,p,kind")
    assert len(lines) > 1
    out_file = tmp_path / "survey.csv"
    rc, stdout, _ = run_cli(
        capsys, "survey", "--nmax", "6", "--p", "3,5", "--out", str(out_file)
    )
    assert rc == 0 and stdout == ""
    assert out_file.read_text().strip() == out.strip()


def test_pretty_flag(capsys):
    rc, plain, _ = run_cli(capsys, "classify", "--a", "3", "--b", "3", "--p", "3")
    rc, pretty, _ = run_cli(
        capsys, "--pretty", "classify", "--a", "3", "--b", "3", "--p", "3"
    )
    assert json.loads(plain) == json.loads(pretty)
    assert "\n  " in pretty


def test_determinism(capsys):
    runs = [
        run_cli(capsys, "construct", "--a", "8", "--b", "3", "--p", "3")[1]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_module_entry_point():
    r = subprocess.run(
        [sys.executable, "-m", "spechtdesigns.cli",
         "classify", "--a", "8", "--b", "3", "--p", "3"],
        capture_output=True, text=True,
        cwd=Path(spechtdesigns.__file__).parent.parent,  # finds the package uninstalled
    )
    assert r.returncode == 0
    assert json.loads(r.stdout)["kind"] == "james"
