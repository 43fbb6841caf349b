"""Regenerate ``reference_digests.json``: the final data of each paper
kernel, from the unscheduled base compile on the reference interpreter.

    python3 perfbench/make_reference.py

Each digest is cross-checked against the fast engine before it is
written.  Run it only when a kernel's source changes on purpose; the
benchmark compares every grid point against this file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.harness.compile import Options, compile_source  # noqa: E402
from repro.machine import Simulator  # noqa: E402
from repro.workloads.programs import WORKLOADS  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    digests = {}
    for name, workload in WORKLOADS.items():
        program = compile_source(workload.source, Options(scheduler="none"),
                                 name).program
        engines = {}
        for mode in ("reference", "fast"):
            sim = Simulator(program, mode=mode)
            sim.run()
            engines[mode] = workloads.data_digest(program, sim.memory)
        if engines["reference"] != engines["fast"]:
            print(f"{name}: reference {engines['reference']} != fast "
                  f"{engines['fast']}", file=sys.stderr)
            return 1
        digests[name] = engines["reference"]
        print(f"{name} {digests[name]}", file=sys.stderr)
    workloads.REFERENCE_FILE.write_text(json.dumps({
        "about": "sha256[:16] of every data symbol's final contents "
                 "(workloads.data_digest), scheduler=none, base config, "
                 "Simulator(mode='reference'); cross-checked on the fast "
                 "engine",
        "digests": digests}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
