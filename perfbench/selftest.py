"""Must-fail check of the benchmark's output verification.

    python3 perfbench/selftest.py

Runs ``run.py`` once with ``--perturb-expected``, which corrupts one
expected output (one ``OUT`` value of the first generated kernel, or one
paper kernel's reference digest), and requires the run to report failed
points and exit non-zero.  Exits 0 when every check caught the fault.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def caught(workload: str) -> bool:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--perturb-expected"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=300)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    failed_frac = 1.0 - result["metrics"]["passed_frac"]["value"]
    ok = proc.returncode != 0 and failed_frac > 0 and not result["correct"]
    print(f"{workload}: exit {proc.returncode}, failed_frac "
          f"{failed_frac:.4f} -> {'caught' if ok else 'MISSED'}")
    return ok


def main() -> int:
    workloads = sys.argv[1:] or ["gen-kernels"]
    return 0 if all([caught(w) for w in workloads]) else 1


if __name__ == "__main__":
    sys.exit(main())
