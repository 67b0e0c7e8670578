"""Seconds and peak RSS of the library calls at the edge of what it settles.

Runs each call in a fresh Python process, with the tree's src first on
the path and one BLAS thread, and prints one line per call: the seconds
the call took (imports excluded), the process's peak RSS in MB and the
call. No workload of the benchmark reaches these calls; this script is how
their numbers are measured again. Not collected by pytest; stdlib only:

    python tests/frontier.py [TREE]

TREE is the root of the tree to run, by default the one holding this
script. An error is printed in place of the numbers, and the script goes on.
"""

from __future__ import annotations

import os
import subprocess
import sys

CALLS = [
    "hemmer.find_hemmer_by_solver(12, 12, 3)",
    "hemmer.find_hemmer_by_solver(12, 12, 5)",
    "hemmer.find_hemmer_by_solver(12, 12, 7)",
    "hemmer.find_hemmer_by_solver(12, 11, 3)",
    "hemmer.construct_james(17, 8, 3)",
    "designs.find_t_design_fp(designs.DesignParams(24, 22, 11, 3), 1)",
    "designs.find_t_design_fp(designs.DesignParams(24, 22, 11, 5), 1)",
    "designs.find_t_design_fp(designs.DesignParams(23, 16, 5, 3), 1)",
    "h1.brute_force_h1(7, 7, 3)",
    "h1.brute_force_h1(7, 7, 5)",
]

# ru_maxrss is in kB on Linux
CHILD = """\
import resource, time
from spechtdesigns import designs, h1, hemmer
start = time.perf_counter()
{call}
print(time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""

THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def measure(tree: str, call: str) -> str:
    """'<seconds> s <peak> MB' of call in a fresh process on tree, or its error."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), **dict.fromkeys(THREADS, "1"))
    proc = subprocess.run([sys.executable, "-c", CHILD.format(call=call)],
                          env=env, capture_output=True, text=True)
    if proc.returncode:
        return "error: " + (proc.stderr.strip().splitlines() or ["no output"])[-1]
    seconds, peak = map(float, proc.stdout.split())
    return f"{seconds:7.2f} s {peak:7.1f} MB"


if __name__ == "__main__":
    tree = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else
                           os.path.join(os.path.dirname(__file__), os.pardir))
    for call in CALLS:
        print(measure(tree, call), call, flush=True)
