import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spechtdesigns
from spechtdesigns import cli
from spechtdesigns.cli import main
from spechtdesigns.designs import wilson_exists
from spechtdesigns.hemmer import SelfCheckError, construct_auto
from spechtdesigns.tabloid import element_to_json, element_to_text


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


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    fresh = cli.build_parser
    assert fresh() is not fresh()
    main(["classify", "--a", "3", "--b", "3", "--p", "3"])
    capsys.readouterr()

    def unbuilt():
        raise AssertionError("main rebuilt its parser")
    monkeypatch.setattr(cli, "build_parser", unbuilt)
    rc, out, _ = run_cli(capsys, "classify", "--a", "3", "--b", "3", "--p", "3")
    assert rc == 0 and json.loads(out)["kind"] == "pointed"
    # help, usage errors and their exit codes match a fresh parser's
    for argv in (["--help"], ["h1dim", "--help"], ["frobnicate"], ["h1dim", "--a", "x"], []):
        outcomes = []
        for parse in (main, fresh().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            outcomes.append((exc.value.code, capsys.readouterr()))
        assert outcomes[0] == outcomes[1], argv


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


def test_verify_non_universal_element(tmp_path, capsys):
    # one block of (3, 3): level 0 is constant, levels 1 and 2 are not
    doc = tmp_path / "block.json"
    doc.write_text('{"p": 3, "a": 3, "b": 3, "entries": [{"set": [1, 2, 3], "coeff": 1}]}')
    rc, out, err = run_cli(capsys, "verify", "--file", str(doc))
    assert rc == 0 and err == ""
    report = json.loads(out)
    assert [row["constant"] for row in report["spectrum"]["levels"]] == [True, False, False]
    assert (report["condition1"], report["condition2"], report["is_hemmer"]) == (False, True, False)


def test_construct_out_bytes(tmp_path, capsys):
    # the (4,3) mod 3 base witness: every 3-subset of {3..7}, in colex order
    sets = [[3, 4, 5], [3, 4, 6], [3, 5, 6], [4, 5, 6], [3, 4, 7],
            [3, 5, 7], [4, 5, 7], [3, 6, 7], [4, 6, 7], [5, 6, 7]]
    plain = ('{"p": 3, "a": 4, "b": 3, "entries": ['
             + ", ".join(f'{{"set": {s}, "coeff": 1}}' for s in sets) + "]}\n")
    out_file = tmp_path / "plain.json"
    rc, _, _ = run_cli(capsys, "construct", "--a", "4", "--b", "3", "--p", "3",
                       "--out", str(out_file))
    assert rc == 0 and out_file.read_bytes() == plain.encode()
    out_file = tmp_path / "pretty.json"
    rc, _, _ = run_cli(capsys, "--pretty", "construct", "--a", "4", "--b", "3", "--p", "3",
                       "--out", str(out_file))
    pretty = out_file.read_bytes()
    assert rc == 0 and len(pretty) == 912 and pretty.endswith(b"\n  ]\n}\n")
    assert hashlib.sha256(pretty).hexdigest() == (
        "aa05643e8b7c9681dd376a259697bfd056b667ae6b8ca3516eef97f2d20c6f0f")


def test_construct_bytes_match_json_dumps(tmp_path, capsys):
    doc = element_to_json(construct_auto(9, 9, 3))
    for flags, indent in (((), None), (("--pretty",), 2)):
        want = json.dumps(doc, indent=indent) + "\n"
        out_file = tmp_path / "witness.json"
        argv = [*flags, "construct", "--a", "9", "--b", "9", "--p", "3"]
        rc, _, _ = run_cli(capsys, *argv, "--out", str(out_file))
        assert rc == 0 and out_file.read_text(encoding="utf-8") == want
        rc, out, _ = run_cli(capsys, *argv)
        assert rc == 0 and out == want


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


def test_every_construct_method_dispatches_to_its_entry(capsys, monkeypatch):
    table = {"auto": "construct_auto", "base": "construct_base_case",
             "james": "construct_james", "pointed": "construct_pointed",
             "solve": "find_hemmer_by_solver"}
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    method = next(a for a in sub.choices["construct"]._actions if a.dest == "method")
    assert method.choices == list(table)
    u = construct_auto(4, 3, 3)
    calls = []
    for name in table.values():
        monkeypatch.setattr(cli, name, lambda a, b, p, name=name: calls.append((name, a, b, p)) or u)
    for choice, name in table.items():
        rc, out, err = run_cli(capsys, "construct", "--a", "4", "--b", "3", "--p", "3",
                               "--method", choice)
        assert (rc, out, err) == (0, element_to_text(u) + "\n", "")
        assert calls.pop() == (name, 4, 3, 3) and not calls
    monkeypatch.setattr(cli, "find_hemmer_by_solver", lambda a, b, p: None)
    rc, out, err = run_cli(capsys, "construct", "--a", "4", "--b", "3", "--p", "3",
                           "--method", "solve")
    assert (rc, out) == (2, "")
    assert err == "error: no qualifying element exists for (a=4, b=3) mod 3\n"


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


def test_verify_invalid_utf8_exits_2(tmp_path, capsys):
    doc = tmp_path / "latin1.json"
    doc.write_bytes(b'{"p": 3, "a": 2, "b": 1, "entries": [{"set": [1], "coeff": 1}]}\xff\n')
    with pytest.raises(UnicodeDecodeError) as exc:
        doc.read_text(encoding="utf-8")
    rc, out, err = run_cli(capsys, "verify", "--file", str(doc))
    assert rc == 2 and out == "" and err == f"error: {exc.value}\n"


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


def test_verify_prime_above_int64_exits_2(tmp_path, capsys):
    # the coefficient does not fit int64; the modulus is refused before it is read
    p = 100000000000000000039
    doc = tmp_path / "huge_p.json"
    doc.write_text(json.dumps({"p": p, "a": 2, "b": 1, "entries": [
        {"set": [1], "coeff": p - 40}
    ]}))
    rc, _, err = run_cli(capsys, "verify", "--file", str(doc))
    assert rc == 2 and "2^31" in err


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


def test_survey_command(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "survey", "--nmax", "6", "--p", "3,5")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a,b,p,kind,beta,bhat,dim_S,dim_D,f_in_S,quotient,predicted,match"
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


def test_package_exports_every_layer_name():
    # the package __all__ is the union of the layers' __all__ (cli excepted)
    from spechtdesigns import designs, h1, hemmer, linalg, numtheory, tabloid
    layers = (numtheory, linalg, tabloid, designs, h1, hemmer)
    names = set().union(*(m.__all__ for m in layers))
    assert sorted(spechtdesigns.__all__) == sorted(names)
    for m in layers:
        for name in m.__all__:
            assert getattr(spechtdesigns, name) is getattr(m, name)
    for gone in ("kernel_basis_fp", "solve_affine_fp", "rank_fp_prefix",
                 "inclusion_matrix"):
        assert gone not in names and not hasattr(spechtdesigns, gone)


def test_module_entry_point():
    r = subprocess.run(
        [sys.executable, "-m", "spechtdesigns.cli",
         "classify", "--a", "8", "--b", "3", "--p", "3"],
        capture_output=True, text=True,
        cwd=Path(spechtdesigns.__file__).parent.parent,  # finds the package uninstalled
    )
    assert r.returncode == 0
    assert json.loads(r.stdout)["kind"] == "james"


# Runs the CLI in a child process whose address space is capped, so an
# unguarded allocation fails there instead of in the test process.
CAPPED_CHILD = (
    "import resource, runpy, sys; "
    "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
    "sys.argv[0] = 'spechtdesigns'; "
    "runpy.run_module('spechtdesigns.cli', run_name='__main__')"
)


def run_capped(*args, timeout=60):
    return subprocess.run(
        [sys.executable, "-c", CAPPED_CHILD, *args],
        capture_output=True, text=True, timeout=timeout,
        cwd=Path(spechtdesigns.__file__).parent.parent,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )


def test_classify_huge_prime_is_quick():
    r = run_capped("classify", "--a", "3", "--b", "2", "--p", "1000000000000000003", timeout=20)
    assert r.returncode == 0
    assert json.loads(r.stdout)["kind"] == "neither"


def test_classify_uncertifiable_prime_exits_2():
    # 2^89 - 1 is prime, but no fixed Miller-Rabin base set is proven there
    r = run_capped("classify", "--a", "3", "--b", "2", "--p", str(2**89 - 1), timeout=20)
    assert r.returncode == 2
    assert "cannot certify" in r.stderr


def test_classify_huge_composite_exits_2():
    # (2^31 - 1)(2^61 - 1) has no small factor; a Miller-Rabin base rejects it
    r = run_capped("classify", "--a", "3", "--b", "2", "--p", str((2**31 - 1) * (2**61 - 1)),
                   timeout=20)
    assert r.returncode == 2
    assert "must be a prime" in r.stderr


def test_survey_over_budget_exits_2_at_once():
    # solving every shape with n <= 16 before this refusal takes over 10 s
    r = run_capped("survey", "--nmax", "17", "--p", "3", timeout=10)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == ("error: level system of n=17, b=7: 14756 rows x 19450 columns in int8 "
                        "with its elimination mod 3 needs 296656424 bytes, over the limit of "
                        "268435456\n")


def test_design_integral_oversized_exits_2():
    r = run_capped("design", "--g", "16", "--b", "6", "--t", "2", "--mode", "integral",
                   "--mu", "8008,3003,1001", timeout=20)
    assert r.returncode == 2
    assert "C(16, 6) = 8008" in r.stderr


def test_construct_oversized_shape_exits_2():
    r = run_capped("construct", "--a", "27", "--b", "27", "--p", "3")
    assert r.returncode == 2
    assert "C(54, 27)" in r.stderr


def test_construct_solve_refuses_before_the_orbit_walk():
    # the orbit builder must refuse at the listing limit before its first
    # canonical form: a walk up over 54 points first does not end within the cap
    r = run_capped("construct", "--a", "27", "--b", "27", "--p", "3", "--method", "solve",
                   timeout=20)
    assert r.returncode == 2 and r.stdout == ""
    assert re.fullmatch(r"error: C\(54, 27\) = \d+ subsets exceed the limit of 4194304\n",
                        r.stderr), r.stderr


@pytest.mark.parametrize("a,b,p", [
    (1000000006, 1000000006, 1000000007),
    (3**20 - 1, 3**19, 3),
])
def test_classify_huge_james_shape_is_quick(a, b, p):
    r = run_capped("classify", "--a", str(a), "--b", str(b), "--p", str(p), timeout=20)
    assert r.returncode == 0
    assert json.loads(r.stdout)["kind"] == "james"


@pytest.mark.parametrize("method", ["auto", "james"])
def test_construct_huge_james_shape_exits_2(method):
    r = run_capped("construct", "--a", "1000000006", "--b", "1000000006",
                   "--p", "1000000007", "--method", method, timeout=20)
    assert r.returncode == 2
    assert "n <= 62" in r.stderr


def test_poset_huge_shape_exits_2():
    r = run_capped("poset", "--a", "1000000", "--b", "1000000", "--p", "3", timeout=20)
    assert r.returncode == 2
    assert "C(1000000, 2) = 499999500000 level pairs" in r.stderr


def test_h1dim_oversized_level_system_exits_2():
    # the kept-level system of (9, 8, 3) would be 25636 x 24312 int8 cells,
    # 623 MB before its elimination's temporaries
    r = run_capped("h1dim", "--a", "9", "--b", "8", "--p", "3", timeout=20)
    assert r.returncode == 2 and r.stdout == ""
    assert "25636 rows x 24312 columns in int8 with its elimination mod 3 needs 638485216 bytes" \
        in r.stderr


def test_design_on_orbits_answers_past_the_cell_limit():
    # the (16, 8, 7) design system, 11440 x 12871 cells over all blocks, was
    # refused before designs were solved on G-orbits
    r = run_capped("design", "--g", "16", "--b", "8", "--t", "7", "--mode", "fp",
                   "--p", "3", "--target", "1", timeout=20)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == {"exists": False}
    assert not wilson_exists(16, 8, 7, 3)


@pytest.mark.parametrize("g,b,t,p,k,size", [(62, 61, 30, 3, 30, 450883717216034179),
                                            (39, 33, 6, 3, 7, 15380937)])
def test_design_refuses_an_unlistable_level(g, b, t, p, k, size):
    # refused before the solve: level 30 of 62 points lists too many
    # subsets, and so would level 7 of 39 points in the psi walk from
    # level 33 down to 6 that checks a solution
    r = run_capped("design", "--g", str(g), "--b", str(b), "--t", str(t), "--mode", "fp",
                   "--p", str(p), "--target", "1", timeout=20)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == f"error: C({g}, {k}) = {size} subsets exceed the limit of 4194304\n"


def test_construct_solve_on_orbits_answers_past_the_cell_limit(tmp_path):
    # the solver's kept-level system, 15808 x 12872 cells over all blocks,
    # was refused before it was solved on G-orbits
    out = tmp_path / "w.json"
    r = run_capped("construct", "--a", "8", "--b", "8", "--p", "3", "--method", "solve",
                   "--out", str(out), timeout=20)
    assert r.returncode == 0, r.stderr
    r = run_capped("verify", "--file", str(out), timeout=20)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["is_hemmer"] is True


def test_construct_james_on_orbits_answers_past_the_cell_limit(tmp_path):
    # its level system on the kept levels, 15808 x 12872 cells, was refused
    # before the witness was solved on G-orbits, a 45 x 37 system
    out = tmp_path / "w.json"
    r = run_capped("construct", "--a", "8", "--b", "8", "--p", "3", "--out", str(out), timeout=20)
    assert r.returncode == 0, r.stderr
    r = run_capped("verify", "--file", str(out), timeout=20)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["is_hemmer"] is True


def test_poset_large_prime_is_quick():
    r = run_capped("poset", "--a", "1200", "--b", "1200", "--p", "1000000007", timeout=20)
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"members": list(range(1200)),
                                    "components": [list(range(1200))]}


def test_verify_huge_ground_exits_2(tmp_path):
    doc = tmp_path / "huge.json"
    doc.write_text(json.dumps({"p": 3, "a": 100000000, "b": 100000000, "entries": []}))
    r = run_capped("verify", "--file", str(doc), timeout=20)
    assert r.returncode == 2
    assert "n <= 62" in r.stderr


def test_verify_oversized_element_exits_2(tmp_path):
    doc = tmp_path / "big.json"
    doc.write_text(json.dumps({"p": 3, "a": 40, "b": 20, "entries": []}))
    r = run_capped("verify", "--file", str(doc))
    assert r.returncode == 2
    assert "C(60, 20)" in r.stderr


def test_verify_deep_nesting_exits_2(tmp_path):
    # json.loads raised an uncaught RecursionError here: a traceback and exit 1
    doc = tmp_path / "deep.json"
    doc.write_text("[" * 100000 + "]" * 100000)
    r = run_capped("verify", "--file", str(doc), timeout=20)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == "error: element JSON is nested too deeply\n"


def test_memory_error_exits_2(monkeypatch, tmp_path, capsys):
    def exhausted(text):
        raise MemoryError
    monkeypatch.setattr("spechtdesigns.cli.element_from_text", exhausted)
    doc = tmp_path / "element.json"
    doc.write_text("{}")
    rc, _, err = run_cli(capsys, "verify", "--file", str(doc))
    assert rc == 2 and "memory" in err
