#!/usr/bin/env python3
"""Benchmark of the spechtdesigns command line, run in process.

Run from the root of a checkout:

    python3 bench/run.py --workload {sweep,pointed,james} --seed N \
        --seconds S --trace {0,1}

Each workload is a fixed list of CLI commands (see WORKLOADS and
bench/METRICS.md for why each was chosen), sent one after the other
through `spechtdesigns.cli.main(argv)` in this single process: a closed
loop with one client. The seed shuffles the order of the commands and
drives the perturbations of the witnesses; the shape lists are fixed,
because they set the cost. The list is run as repeated passes until
--seconds have gone by. Every command's output is checked against a route
that does not go through the library (the classification from its digit
definition, level sums computed directly over block bitmasks), and the
checks are not timed.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes and prints the per-layer metrics: self time and counters of
each layer, recorded by wrapping the library's public functions (see
spans.py), and the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The library is imported from src/ of the
checkout and nowhere else; without it the benchmark exits with code 1
and prints no result.
"""

from __future__ import annotations

import os

# numpy starts its BLAS thread pool on import; the benchmark is one
# single-threaded process per run, so pin it before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

SWEEP_NMAX = 13
SWEEP_PRIMES = (3, 5)
POINTED = ((9, 9, 3), (10, 9, 3), (11, 10, 3), (13, 5, 5), (16, 5, 5), (18, 3, 3))
JAMES = ((8, 3, 3), (8, 4, 3), (9, 3, 5), (9, 4, 5), (14, 3, 5), (4, 4, 5),
         (11, 2, 3), (14, 2, 5), (17, 2, 3))
WORKLOADS = ("sweep", "pointed", "james")

PERTURB_GENERATORS = 3  # null designs added to each witness before verify
SPOT_SUBSETS = 3  # random v-subsets per level whose sums the harness checks
SETUP_PROBES = 5  # fresh processes timed for setup_s
HARD_LIMIT_S = 140.0  # no new pass starts past this point, to exit within 180 s

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "solve_s": "s", "verify_s": "s",
    "slowest_op_s": "s", "peak_rss_mb": "MB",
}

# Span names (layer.function) grouped into the per-layer timing metrics.
GROUPS = {
    "linalg.rank": ("linalg.rank_fp", "linalg.rank_fp_prefix"),
    "linalg.kernel": ("linalg.kernel_basis_fp",),
    "linalg.affine": ("linalg.solve_affine_fp",),
    "linalg.integer": ("linalg.solve_integer",),
    "tabloid.psi": ("tabloid.psi", "tabloid.psi_int"),
    "tabloid.subsets": ("tabloid.subsets_colex",),
    "tabloid.index": ("tabloid.colex_rank", "tabloid.mask_from_members",
                      "tabloid.members_from_mask"),
    "tabloid.inclusion": ("tabloid.inclusion_matrix", "tabloid.inclusion_stack"),
    "tabloid.json": ("tabloid.element_to_json", "tabloid.element_from_json"),
    "designs.spectrum": ("designs.spectrum",),
    "designs.level_system": ("designs.constant_level_system",),
    "designs.t_design": ("designs.find_t_design_fp",),
    "designs.integral": ("designs.construct_integral_design",),
    "hemmer.construct": ("hemmer.construct_auto", "hemmer.construct_base_case",
                         "hemmer.construct_pointed", "hemmer.construct_james"),
    "hemmer.adjoin": ("hemmer.adjoin",),
    "hemmer.verify": ("hemmer.verify_hemmer",),
    "hemmer.solver": ("hemmer.find_hemmer_by_solver",),
    "h1.brute_force": ("h1.brute_force_h1",),
}
MODULE_TOTALS = ("numtheory", "linalg", "tabloid", "designs", "hemmer", "h1", "cli")
COUNTERS = (
    "linalg.rank.calls", "linalg.rank.cells", "linalg.integer.calls",
    "linalg.integer.cells", "linalg.kernel.cells", "linalg.affine.calls",
    "linalg.affine.cells", "tabloid.psi.calls", "tabloid.psi.drop_steps",
    "tabloid.psi.object_calls", "tabloid.subsets.misses",
    "designs.spectrum.calls", "hemmer.adjoin.calls", "numtheory.calls",
)

# Which solver each workload is predicted to reach (checked on traced runs).
ROUTING = {
    "sweep": {"linalg.rank.calls": True, "linalg.integer.calls": False,
              "linalg.affine.calls": False},
    "pointed": {"linalg.affine.calls": True, "linalg.integer.calls": False},
    "james": {"linalg.integer.calls": True, "linalg.affine.calls": False},
}


def per_layer_units() -> dict[str, str]:
    units = {f"{g}.s": "s" for g in GROUPS}
    units.update({f"{m}.s": "s" for m in MODULE_TOTALS})
    units.update({c: "count" for c in COUNTERS})
    units["linalg.rank.pivot_ratio"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    return units


# ---------------------------------------------------------------- library


def import_library():
    """Import spechtdesigns from this checkout's src/, refusing any other copy."""
    init = SRC / "spechtdesigns" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"run.py: {init} not found; run from a spechtdesigns checkout")
    sys.path.insert(0, str(SRC))
    import spechtdesigns
    from spechtdesigns import cli, designs, tabloid

    if Path(spechtdesigns.__file__).resolve() != init.resolve():
        raise SystemExit(f"run.py: imported {spechtdesigns.__file__}, not {init}")
    return cli, designs, tabloid


# ------------------------------------------------ independent arithmetic


def bhat_of(b: int, p: int) -> int:
    """b minus the largest power of p not above b."""
    top = 1
    while top * p <= b:
        top *= p
    return b - top


def kind_of(a: int, b: int, p: int) -> str:
    """The classification, from its digit definition with exact binomials."""
    if all(math.comb(a + j, j) % p == 0 for j in range(1, b + 1)):
        return "james"
    bhat = bhat_of(b, p)
    top = b - bhat  # p^beta
    pnu = 1  # p^nu, the power of p in a + 1
    while (a + 1) % (pnu * p) == 0:
        pnu *= p
    return "pointed" if bhat < top and bhat < pnu and pnu < top else "neither"


def james_levels(a: int, b: int, p: int) -> list[int]:
    """C(n-s, b-s) / p^d mod p, d the least valuation over the levels."""
    exact = [math.comb(a + b - s, b - s) for s in range(b)]
    d = 0
    while all(x % p ** (d + 1) == 0 for x in exact):
        d += 1
    return [x // p**d % p for x in exact]


def mask_of(members) -> int:
    m = 0
    for x in members:
        m |= 1 << (x - 1)
    return m


def members_of(mask: int) -> list[int]:
    out, pos = [], 1
    while mask:
        if mask & 1:
            out.append(pos)
        mask >>= 1
        pos += 1
    return out


@dataclass
class Support:
    """An element as parallel arrays of block masks and coefficients."""

    a: int
    b: int
    p: int
    masks: np.ndarray
    coeffs: np.ndarray

    @classmethod
    def from_doc(cls, doc: dict) -> "Support":
        ms = [mask_of(e["set"]) for e in doc["entries"]]
        cs = [e["coeff"] for e in doc["entries"]]
        return cls(doc["a"], doc["b"], doc["p"], np.array(ms, dtype=np.int64),
                   np.array(cs, dtype=np.int64))

    def level_sum(self, y: int) -> int:
        """Sum of the coefficients of the blocks containing the subset y, mod p."""
        return int(self.coeffs[(self.masks & y) == y].sum()) % self.p

    def level_values(self, v: int) -> set[int]:
        """Every level-v sum, over all v-subsets (small shapes only)."""
        n = self.a + self.b
        ys = np.array([mask_of(c) for c in combinations(range(1, n + 1), v)], dtype=np.int64)
        inside = (self.masks[None, :] & ys[:, None]) == ys[:, None]
        return set((inside.astype(np.int64) @ self.coeffs % self.p).tolist())


def proportional(s: list[int], f: list[int], p: int) -> bool:
    """Whether s = c * f mod p for some scalar c."""
    ref = next((v for v, x in enumerate(f) if x % p), None)
    if ref is None:
        return not any(s)
    c = s[ref] * pow(f[ref], p - 2, p) % p
    return all((x - c * y) % p == 0 for x, y in zip(s, f))


# ---------------------------------------------------------------- workload


@dataclass
class Op:
    cmd: str  # h1dim, construct or verify
    a: int
    b: int
    p: int
    argv: list[str]
    times: list[float] = field(default_factory=list)


@dataclass
class Unit:
    """Ops on one shape that run back to back: a construct feeds its verify."""

    a: int
    b: int
    p: int
    kind: str
    ops: list[Op]
    perturb: dict[int, int] = field(default_factory=dict)  # mask -> delta mod p
    spot: list[list[int]] = field(default_factory=list)  # per level, subset masks
    f_hash: int | None = None  # of the witness file already checked
    expect: list[int] | None = None


def shape_argv(a, b, p):
    return ["--a", str(a), "--b", str(b), "--p", str(p)]


def witness_unit(a, b, p, method, work: Path) -> Unit:
    f = work / f"F-{a}-{b}-{p}-{method}.json"
    g = work / f"G-{a}-{b}-{p}-{method}.json" if method == "auto" else f
    ops = [Op("construct", a, b, p, ["construct", *shape_argv(a, b, p), "--method", method,
                                     "--out", str(f)]),
           Op("verify", a, b, p, ["verify", "--file", str(g)])]
    return Unit(a, b, p, kind_of(a, b, p), ops)


def build_units(workload: str, seed: int, work: Path, designs, tabloid) -> list[Unit]:
    """The workload's ops, shuffled by the seed, with seeded perturbations."""
    rng = random.Random(f"{workload}:{seed}")
    units: list[Unit] = []
    if workload == "sweep":
        for p in SWEEP_PRIMES:
            for n in range(2, SWEEP_NMAX + 1):
                for b in range(1, n // 2 + 1):
                    a = n - b
                    kind = kind_of(a, b, p)
                    units.append(Unit(a, b, p, kind, [Op("h1dim", a, b, p,
                                                         ["h1dim", *shape_argv(a, b, p)])]))
                    if kind != "neither":
                        units.append(witness_unit(a, b, p, "solve", work))
    else:
        for a, b, p in POINTED if workload == "pointed" else JAMES:
            u = witness_unit(a, b, p, "auto", work)
            n = a + b
            masks = tabloid.subsets_colex(n, b)
            for _ in range(PERTURB_GENERATORS):
                pts = rng.sample(range(1, n + 1), 2 * b)
                gen = designs.null_design_generator(n, b, b - 1, list(zip(pts[::2], pts[1::2])))
                c = rng.randrange(1, p)
                for i in np.nonzero(gen.coeffs)[0]:
                    m = int(masks[i])
                    u.perturb[m] = (u.perturb.get(m, 0) + c * gen.coeffs[i]) % p
            u.spot = [[mask_of(rng.sample(range(1, n + 1), v)) for _ in range(SPOT_SUBSETS)]
                      for v in range(b)]
            units.append(u)
    rng.shuffle(units)
    return units


def setup(workload: str, seed: int, work: Path):
    cli, designs, tabloid = import_library()
    return cli, tabloid, build_units(workload, seed, work, designs, tabloid)


# ---------------------------------------------------------------- checks


def check_h1dim(unit: Unit, out: dict) -> str | None:
    gap = 2 if unit.kind == "pointed" else 1
    if (out["a"], out["b"], out["p"]) != (unit.a, unit.b, unit.p):
        return "shape echoed wrongly"
    if out["kind"] != unit.kind:
        return f"kind {out['kind']} != {unit.kind}"
    if not out["match"]:
        return "quotient does not match the prediction"
    if out["dim_D"] - out["dim_S"] != gap:
        return f"dim_D - dim_S = {out['dim_D'] - out['dim_S']}, want {gap}"
    if out["f_in_S"] != (unit.kind == "james"):
        return "f_in_S disagrees with the kind"
    return None


def read_witness(unit: Unit, op: Op) -> str | None:
    """Check a constructed witness and prepare the document verify reads."""
    path = Path(op.argv[op.argv.index("--out") + 1])
    data = path.read_bytes()
    digest = hash(data)
    if digest == unit.f_hash:
        return None  # same witness as the previous pass; checks already done
    unit.f_hash = None
    f = Support.from_doc(json.loads(data))
    if (f.a, f.b, f.p) != (unit.a, unit.b, unit.p):
        return "witness has the wrong shape"
    p, n, b = unit.p, unit.a + unit.b, unit.b
    if not unit.perturb:
        # solver witness on a small shape: every level sum, by direct summation
        levels = []
        for v in range(b):
            vals = f.level_values(v)
            if len(vals) != 1:
                return f"level {v} is not constant"
            levels.append(vals.pop())
        fspec = [math.comb(n - v, b - v) % p for v in range(b)]
        if not any(levels) or proportional(levels, fspec, p):
            return f"spectrum {levels} does not qualify"
    else:
        levels = []
        for v, ys in enumerate(unit.spot):
            vals = {f.level_sum(y) for y in ys}
            if len(vals) != 1:
                return f"level {v} is not constant"
            levels.append(vals.pop())
        if unit.kind == "pointed":
            bh = bhat_of(b, p)
            if [v for v, mu in enumerate(levels) if mu] != [bh]:
                return f"pointed spectrum {levels} not supported exactly at {bh}"
        elif levels != james_levels(unit.a, b, p):
            return f"james spectrum {levels} != {james_levels(unit.a, b, p)}"
        coeff = dict(zip(f.masks.tolist(), f.coeffs.tolist()))
        for m, d in unit.perturb.items():
            coeff[m] = (coeff.get(m, 0) + d) % p
        entries = [{"set": members_of(m), "coeff": c} for m, c in sorted(coeff.items()) if c]
        g = {"p": p, "a": unit.a, "b": b, "entries": entries}
        gsup = Support.from_doc(g)
        for v, ys in enumerate(unit.spot):
            if any(gsup.level_sum(y) != levels[v] for y in ys):
                return f"perturbation moved level {v}"
        gpath = Path(unit.ops[1].argv[-1])
        gpath.write_text(json.dumps(g) + "\n", encoding="utf-8")
    unit.expect = levels
    unit.f_hash = digest
    return None


def check_verify(unit: Unit, out: dict) -> str | None:
    if not out["is_hemmer"]:
        return "verify reports is_hemmer false"
    levels = [lv.get("mu") for lv in out["spectrum"]["levels"]]
    if levels != unit.expect:
        return f"verified spectrum {levels} != constructed {unit.expect}"
    return None


# ---------------------------------------------------------------- passes


def call_cli(cli, argv) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code if isinstance(exc.code, int) else 2
        dt = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), dt


def run_pass(cli, tabloid, units, tracer=None) -> tuple[int, int, float, list[str]]:
    """One pass over every op; returns (attempted, failed, timed seconds, errors)."""
    tabloid.subsets_colex.cache_clear()  # each pass starts as a fresh process would
    attempted = failed = 0
    total = 0.0
    errors = []
    for unit in units:
        for op in unit.ops:
            attempted += 1
            gc.collect()  # every call starts from the same collector state
            if tracer is not None:
                tracer.op = attempted
                tracer.install()
            try:
                code, out, err, dt = call_cli(cli, op.argv)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            op.times.append(dt)
            total += dt
            try:
                if code != 0:
                    why = f"exit {code}: {err.strip()}"
                elif op.cmd == "h1dim":
                    why = check_h1dim(unit, json.loads(out))
                elif op.cmd == "construct":
                    why = read_witness(unit, op)
                else:
                    why = check_verify(unit, json.loads(out))
            except (ValueError, KeyError, TypeError, OSError) as exc:
                why = f"unreadable output: {exc!r}"
            if why:
                failed += 1
                errors.append(f"{op.cmd} {op.a},{op.b},{op.p}: {why}")
                unit.f_hash = None
    return attempted, failed, total, errors


# ---------------------------------------------------------------- metrics


def end_to_end(units, setup_times, peak_rss_mb) -> dict[str, float]:
    ops = [op for u in units for op in u.ops]
    med = {id(op): statistics.median(op.times) for op in ops}
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(med.values()),
        "solve_s": sum(med[id(op)] for op in ops if op.cmd != "verify"),
        "verify_s": sum(med[id(op)] for op in ops if op.cmd == "verify"),
        "slowest_op_s": max(med.values()),
        "peak_rss_mb": peak_rss_mb,
    }


def count_hooks():
    def rank(c, args, kw, res):
        rows, cols = args[0].shape
        c["linalg.rank.calls"] += 1
        c["linalg.rank.cells"] += rows * cols
        c["linalg.rank.rows"] += rows
        c["linalg.rank.rank"] += res[0] if isinstance(res, tuple) else res

    def cells(metric):
        def hook(c, args, kw, res):
            rows, cols = args[0].shape
            c[f"{metric}.calls"] += 1
            c[f"{metric}.cells"] += rows * cols
        return hook

    def psi_int(c, args, kw, res):
        c["tabloid.psi.calls"] += 1
        c["tabloid.psi.drop_steps"] += args[1] - args[3]
        c["tabloid.psi.object_calls"] += res.dtype == object

    def calls(metric):
        def hook(c, args, kw, res):
            c[metric] += 1
        return hook

    hooks = {
        "linalg.rank_fp": rank,
        "linalg.rank_fp_prefix": rank,
        "linalg.kernel_basis_fp": cells("linalg.kernel"),
        "linalg.solve_affine_fp": cells("linalg.affine"),
        "linalg.solve_integer": cells("linalg.integer"),
        "tabloid.psi_int": psi_int,
        "designs.spectrum": calls("designs.spectrum.calls"),
        "hemmer.adjoin": calls("hemmer.adjoin.calls"),
    }
    mod = sys.modules["spechtdesigns.numtheory"]
    for name in mod.__all__:
        hooks.setdefault(f"numtheory.{name}", calls("numtheory.calls"))
    return hooks


def layer_metrics(self_times: dict[str, float], counts: dict[str, int]) -> dict[str, float]:
    m: dict[str, float] = {}
    for g, names in GROUPS.items():
        m[f"{g}.s"] = sum(self_times.get(n, 0.0) for n in names)
    for mod in MODULE_TOTALS:
        m[f"{mod}.s"] = sum(t for n, t in self_times.items() if n.split(".")[0] == mod)
    for c in COUNTERS:
        m[c] = counts.get(c, 0)
    rows = counts.get("linalg.rank.rows", 0)
    m["linalg.rank.pivot_ratio"] = counts.get("linalg.rank.rank", 0) / rows if rows else 0.0
    return m


# ---------------------------------------------------------------- main


def probe_setup(args) -> list[float]:
    """Seconds from spawning a fresh interpreter until its setup is done."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic_ns()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        times.append((int(done.stdout.split()[-1]) - t0) / 1e9)
    return times


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    work = WORK / f"{args.workload}-{os.getpid()}"
    if args.setup_probe:
        setup(args.workload, args.seed, work)
        print(time.monotonic_ns())
        return 0

    start = time.monotonic()
    cli, tabloid, units = setup(args.workload, args.seed, work)
    setup_times = [] if args.trace else probe_setup(args)
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(count_hooks()) if args.trace else None
    attempted = failed = 0
    errors: list[str] = []
    plain_walls, traced_walls, traced_layers, traced_counts = [], [], [], []
    peak_rss_mb = None
    try:
        while True:
            traced = tracer is not None and len(plain_walls) > len(traced_walls)
            first_row = len(tracer.table()) if traced else 0
            if traced:
                tracer.counts.clear()
            t0 = time.monotonic()
            att, fail, wall, errs = run_pass(cli, tabloid, units, tracer if traced else None)
            last = time.monotonic() - t0
            if peak_rss_mb is None:
                # the first pass is what one fresh process sees; later passes
                # would add the heap the earlier ones left behind
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            attempted += att
            failed += fail
            errors.extend(errs)
            if traced:
                traced_walls.append(wall)
                tracer.counts["tabloid.subsets.misses"] = tabloid.subsets_colex.cache_info().misses
                traced_layers.append(tracer.self_times(first_row))
                traced_counts.append(dict(tracer.counts))
                for op in (op for u in units for op in u.ops):
                    op.times.pop()  # traced timings stay out of the end-to-end figures
            else:
                plain_walls.append(wall)
            elapsed = time.monotonic() - start
            balanced = tracer is None or len(traced_walls) == len(plain_walls)
            if balanced and (elapsed >= args.seconds or elapsed + last > HARD_LIMIT_S):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for e in errors[:20]:
        print(f"FAILED {e}", file=sys.stderr)
    correct = failed == 0
    units_of = per_layer_units() if args.trace else END_TO_END
    if args.trace:
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}.npz")
        if any(c != traced_counts[0] for c in traced_counts):
            correct = False
            print("counters differ between identical traced passes", file=sys.stderr)
        per_pass = [layer_metrics(t, c) for t, c in zip(traced_layers, traced_counts)]
        metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        metrics["trace.overhead_frac"] = (statistics.median(traced_walls)
                                          / statistics.median(plain_walls) - 1)
        for name, want in ROUTING[args.workload].items():
            if (metrics[name] > 0) != want:
                print(f"routing: {name} = {metrics[name]} on {args.workload}, predicted "
                      f"{'> 0' if want else '0'}; revisit the workload's reason",
                      file=sys.stderr)
    else:
        metrics = end_to_end(units, setup_times, peak_rss_mb)
    passes = len(plain_walls) + len(traced_walls)
    print(f"# {args.workload} seed={args.seed} passes={passes} attempted={attempted} "
          f"failed={failed} failed_frac={failed / attempted:.4f}")
    print("# pass walls (s): untraced " + " ".join(f"{w:.3f}" for w in plain_walls)
          + ("; traced " + " ".join(f"{w:.3f}" for w in traced_walls) if traced_walls else ""))
    for k, v in metrics.items():
        print(f"# {k:28s} {v:.6g} {units_of[k]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
