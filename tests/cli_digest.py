"""One sha256 over the outputs of a fixed corpus of CLI commands.

Runs each command through cli.main in this process and hashes its argv,
exit code, stdout, stderr and the file it writes with --out, if any. Two
trees that print the same digest answer, refuse and fail the corpus alike,
byte for byte. Not collected by pytest; stdlib only. Run it against the
tree whose package is first on the path:

    PYTHONPATH=src python tests/cli_digest.py [--verbose]

--verbose also prints one line per command: its digest, exit code and argv.

The corpus: classify, h1dim and poset on the 126 shapes a >= b >= 1 with
a + b <= 13 and p in {3, 5, 7}; construct --method auto (a + b <= 11)
and --method solve (a + b <= 13), plain to stdout and --pretty through
--out; design --mode fp on every 0 <= t < b <= g <= 11 with targets 0, 1
and 2; survey --nmax 10 --p 3,5,7; and refusals of each command.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

from spechtdesigns.cli import main

PRIMES = (3, 5, 7)

REFUSALS = [
    ["classify", "--a", "2", "--b", "3", "--p", "3"],
    ["classify", "--a", "3", "--b", "3", "--p", "9"],
    ["classify", "--a", "3", "--b", "2", "--p", str(2**89 - 1)],
    ["classify", "--a", "3", "--b", "2", "--p", str((2**31 - 1) * (2**61 - 1))],
    ["construct", "--a", "27", "--b", "27", "--p", "3"],
    ["construct", "--a", "1000000006", "--b", "1000000006", "--p", "1000000007"],
    ["construct", "--a", "4", "--b", "2", "--p", "3", "--method", "james"],
    ["poset", "--a", "1000000", "--b", "1000000", "--p", "3"],
    ["h1dim", "--a", "9", "--b", "8", "--p", "3"],
    ["survey", "--nmax", "17", "--p", "3"],
    ["design", "--g", "9", "--b", "3", "--t", "1"],
    ["design", "--g", "16", "--b", "6", "--t", "2", "--mode", "integral",
     "--mu", "8008,3003,1001"],
    ["design", "--g", "62", "--b", "61", "--t", "30", "--mode", "fp", "--p", "3"],
    ["design", "--g", "58", "--b", "55", "--t", "53", "--mode", "fp", "--p", "7"],
]


def shapes(nmax: int):
    return [(a, n - a) for n in range(2, nmax + 1) for a in range(n - 1, (n - 1) // 2, -1)]


def corpus() -> list[list[str]]:
    """Every command as argv; the token OUT stands for a fresh --out path."""
    out = []
    for cmd in ("classify", "h1dim", "poset"):
        out += [[cmd, "--a", str(a), "--b", str(b), "--p", str(p)]
                for a, b in shapes(13) for p in PRIMES]
    for method, nmax in (("auto", 11), ("solve", 13)):
        for a, b in shapes(nmax):
            for p in PRIMES:
                args = ["construct", "--a", str(a), "--b", str(b), "--p", str(p),
                        "--method", method]
                out += [args, ["--pretty", *args, "--out", "OUT"]]
    out += [["design", "--g", str(g), "--b", str(b), "--t", str(t), "--mode", "fp",
             "--p", str(p), "--target", str(target)]
            for g in range(1, 12) for b in range(1, g + 1) for t in range(b)
            for p in PRIMES for target in (0, 1, 2)]
    out.append(["survey", "--nmax", "10", "--p", "3,5,7"])
    return out + REFUSALS


def run(argv: list[str], path: str) -> tuple[int, bytes]:
    """The exit code of one command and its record: argv (with OUT, so the
    record names no temporary path), exit code, stdout, stderr and the
    --out file, each prefixed by its length."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main([path if arg == "OUT" else arg for arg in argv])
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    written = b""
    if os.path.exists(path):
        with open(path, "rb") as fh:
            written = fh.read()
        os.remove(path)
    parts = [repr(argv).encode(), str(code).encode(), stdout.getvalue().encode(),
             stderr.getvalue().encode(), written]
    return code, b"".join(len(part).to_bytes(8, "big") + part for part in parts)


def digest(verbose: bool = False) -> str:
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        for argv in corpus():
            code, record = run(argv, path)
            total.update(record)
            if verbose:
                print(hashlib.sha256(record).hexdigest()[:12], code, " ".join(argv))
    return total.hexdigest()


if __name__ == "__main__":
    print(digest(verbose="--verbose" in sys.argv[1:]))
