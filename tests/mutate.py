"""Mutation checks: each mutant of the library must fail the tests named for it.

MUTANTS holds (name, file under src/spechtdesigns/, exact snippet,
replacement, tests). For each mutant the script copies src/, tests/ and
pyproject.toml into a temporary directory, replaces the snippet there and
runs the named tests in a child pytest on that copy, with one BLAS thread,
its address space capped at ADDRESS_CAP and its time at TIME_CAP. The
mutant is killed when the run fails or times out, and survives when every
named test passes. A snippet that does not occur exactly once, or a run
that pytest ends with an error of its own (a test not found, say), is an
error, so the table cannot go stale unseen. Not collected by pytest;
stdlib only:

    python tests/mutate.py [NAME ...]

NAME runs only the mutants of that name; by default all run. Prints one
line per mutant and exits 2 on an error, else 1 if any mutant survives.
"""

from __future__ import annotations

import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ADDRESS_CAP = 3 << 30  # bytes
TIME_CAP = 900  # seconds

TABLOID, LINALG, DESIGNS = "tabloid.py", "linalg.py", "designs.py"
ORBIT_SYSTEM = ["tests/test_tabloid.py::test_orbit_system_entries_are_psi_of_orbit_indicators",
                "tests/test_tabloid.py::test_orbit_system_of_the_trivial_group_is_the_level_system"]
ORBIT_CANON = ["tests/test_tabloid.py::test_orbit_canon_is_fixed_by_every_generator",
               "tests/test_tabloid.py::test_orbit_canon_counts_the_orbits"]

# the listing guard and the walk up of tabloid._orbit_level_system, verbatim
GUARD = "    listing = subsets_colex(n, b)  # refuses past the listing limit before any form\n"
WALK = """\
    points = np.int64(1) << np.arange(n, dtype=np.int64)
    forms, lifts = [np.zeros(1, dtype=np.int64)], []  # the empty set's form
    for k in range(b):
        i, x = np.nonzero((forms[k][:, None] & points) == 0)  # each form, a point outside it
        above, j = np.unique(_orbit_canon(n, p, forms[k][i] | points[x]), return_inverse=True)
        forms.append(above)
        lifts.append(j.reshape(len(forms[k]), n - k).T)  # lifts[k][t, i]: form i, its t-th point
"""

MUTANTS = [
    ("walk-takes-inside-points", TABLOID,
     "np.nonzero((forms[k][:, None] & points) == 0)",
     "np.nonzero((forms[k][:, None] & points) >= 0)", ORBIT_SYSTEM),
    ("walk-divisor-off-by-one", TABLOID,
     "d, c = rows[k + 1][lifts[k][0]], b - k\n",
     "d, c = rows[k + 1][lifts[k][0]], b - k + 1\n", ORBIT_SYSTEM),
    ("walk-skips-a-lift", TABLOID,
     "d, c = rows[k + 1][lifts[k][0]], b - k\n",
     "d, c = 0 * rows[k + 1][lifts[k][0]], b - k\n", ORBIT_SYSTEM),
    ("walk-keeps-every-level", TABLOID,
     "        rows = {s: r for s, r in rows.items() if s in levels or s == k}  # and the one walked\n",
     "",
     ["tests/test_tabloid.py::test_orbit_walk_holds_only_the_requested_levels"]),
    ("orbit-ids-by-form-alone", TABLOID,
     'order = np.argsort(np.argsort(np.bincount(ids), kind="stable"))',
     "order = np.arange(len(forms[b]))",
     ["tests/test_tabloid.py::test_orbit_ids_run_by_size_then_form"]),
    ("walk-before-listing-guard", TABLOID, GUARD + WALK, WALK + GUARD,
     ["tests/test_cli.py::test_construct_solve_refuses_before_the_orbit_walk"]),
    ("panel-drops-pivot-rows", LINALG,
     "    keep[:w] = True  # pivot j lands in row r0 + j\n", "",
     ["tests/test_linalg.py::test_eliminate_matches_reference"]),
    ("accumulator-a-type-narrower", LINALG,
     "return max(chunk, 1), dtype, _narrowest_int(bound)\n",
     "return max(chunk, 1), dtype, _narrowest_int(bound >> 8)\n",
     ["tests/test_linalg.py::test_matmul_mod_routes"]),
    ("orbit-group-of-s-p", TABLOID,
     "m, tree, first, k = p - 1, [], 0, 0\n",
     "m, tree, first, k = p, [], 0, 0\n",
     ORBIT_CANON + ["tests/test_h1.py::test_orbit_gap_matches_brute_force"]),
    ("canon-sorts-the-root-only", TABLOID,
     "            width = 1\n            for fan in fans:\n",
     "            width = size // fans[-1]\n            for fan in fans[-1:]:\n", ORBIT_CANON),
    ("t-design-unchecked", DESIGNS,
     "    if u is not None and (psi(u, t) != target % p).any():\n",
     "    if False:\n",
     ["tests/test_designs.py::test_find_t_design_checks_its_solution"]),
    ("psi-walk-unguarded", TABLOID,
     "    _require_walkable(n, b, v)\n", "",
     ["tests/test_tabloid.py::test_psi_refuses_a_walk_past_the_listing_limit"]),
    ("drop-plan-offsets-swapped", TABLOID,
     "        dst = np.concatenate([dst0, own, dst1 + below])\n"
     "        src = np.concatenate([src0, own + without, src1 + without])\n",
     "        dst = np.concatenate([dst0, own, dst1 + without])\n"
     "        src = np.concatenate([src0, own + below, src1 + below])\n",
     ["tests/test_tabloid.py::test_drop_plan_pairs_are_the_inclusion_pairs",
      "tests/test_tabloid.py::test_level_walk_needs_no_rank_or_listing"]),
    ("psi-int-keeps-every-level", TABLOID,
     "    return deque(_psi_walk(n, b, vec, v), maxlen=1)[0]\n",
     "    return psi_levels(n, b, vec, v)[0]\n",
     ["tests/test_tabloid.py::test_psi_int_holds_one_level_of_its_walk"]),
]


def mutated_tree(where: Path, file: str, snippet: str, replacement: str) -> None:
    """Copy the tree into where and apply one mutant; refuse a snippet that
    does not occur exactly once."""
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, where / part, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", where)
    path = where / "src" / "spechtdesigns" / file
    text = path.read_text()
    if text.count(snippet) != 1:
        raise LookupError(f"snippet occurs {text.count(snippet)} times in {file}")
    path.write_text(text.replace(snippet, replacement))


def cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_CAP, ADDRESS_CAP))


def run(file: str, snippet: str, replacement: str, tests: list[str]) -> tuple[str, str]:
    """(verdict, pytest's last line) of one mutant: killed, survived or error."""
    with tempfile.TemporaryDirectory() as tmp:
        try:
            mutated_tree(Path(tmp), file, snippet, replacement)
        except LookupError as err:
            return "error", str(err)
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"), OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        # a session of its own, so that a timeout also ends the CLI children
        proc = subprocess.Popen([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                                 *tests], cwd=tmp, env=env, text=True, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, preexec_fn=cap_address_space,
                                start_new_session=True)
        try:
            out = proc.communicate(timeout=TIME_CAP)[0]
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return "killed", f"timed out after {TIME_CAP} s"
    last = (out.strip().splitlines() or ["no output"])[-1]
    return {0: "survived", 1: "killed"}.get(proc.returncode, "error"), last


if __name__ == "__main__":
    chosen = sys.argv[1:]
    unknown = set(chosen) - {m[0] for m in MUTANTS}
    if unknown:
        sys.exit(f"unknown mutants: {', '.join(sorted(unknown))}")
    verdicts = []
    for name, file, snippet, replacement, tests in MUTANTS:
        if chosen and name not in chosen:
            continue
        verdict, last = run(file, snippet, replacement, tests)
        verdicts.append(verdict)
        print(f"{verdict:8} {name}: {last}", flush=True)
    sys.exit(2 if "error" in verdicts else 1 if "survived" in verdicts else 0)
