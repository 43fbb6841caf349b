"""The benchmark's three workloads and the reference checks for their
outputs.

Imported by ``worker.py`` and ``make_reference.py`` after ``src/`` is on
``sys.path``.  Nothing here comes from the compiler under test except the
kernel *sources*: the expected outputs are either committed digests
(paper kernels) or computed directly from the kernel formula
(generated kernels).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace
from pathlib import Path

from repro.workloads.generator import KernelSpec

SCHEDULERS = ("balanced", "traditional")
PAPER_CONFIGS = ("base", "lu4", "lu8")
ILP_CONFIGS = ("trs4", "trs8", "la+trs8", "swp", "la+swp")
GEN_CONFIGS = ("base", "lu8")

REFERENCE_FILE = Path(__file__).resolve().parent / "reference_digests.json"

#: Working set per tier, in KB: inside the 8 KB L1, between the L1 and
#: the 96 KB L2, and beyond the L2 (inside the 2 MB board cache).  The
#: generator rounds each array to a power of two, so the exact size
#: also depends on the loads per iteration.
GEN_TIERS_KB = (4, 32, 128)
#: Kernels per (tier, chain, flops) cell: 3 x 2 x 4 x 2 = 48 kernels.
GEN_PER_CELL = 2
#: Target simulated instructions per kernel: small working sets sweep
#: their arrays more often, so every kernel does a similar amount of
#: work and the workload's totals stay steady from seed to seed.
GEN_INSTRUCTION_BUDGET = 400_000


def point_key(program: str, scheduler: str, config: str) -> str:
    return f"{program}/{scheduler}/{config}"


def data_digest(program, memory) -> str:
    """Digest of every data symbol's final contents, by name.

    ``repr`` keeps the exact value and type of every word, so two runs
    share a digest only if their outputs are bit-identical.
    """
    digest = hashlib.sha256()
    for name in sorted(program.symbols):
        symbol = program.symbols[name]
        base = symbol.address // 8
        words = memory[base:base + symbol.size_bytes // 8]
        digest.update(f"{name}={words!r};".encode())
    return digest.hexdigest()[:16]


def values_digest(values: list) -> str:
    return hashlib.sha256(repr(list(values)).encode()).hexdigest()[:16]


def program_key(program) -> str:
    """Identity of a linearized program: everything the simulator reads."""
    digest = hashlib.sha256(program.format().encode())
    for name in sorted(program.symbols):
        digest.update(repr(program.symbols[name]).encode())
    digest.update(f"{program.data_size}/{program.stack_base}/"
                  f"{program.stack_size}".encode())
    return digest.hexdigest()


def load_reference() -> dict[str, str]:
    """Committed per-kernel digests of the paper kernels' final data."""
    return json.loads(REFERENCE_FILE.read_text())["digests"]


# ---------------------------------------------------------------- grids
def paper_grid(workloads) -> list[tuple[str, str, str]]:
    """The points ``ExperimentRunner.sweep`` visits, in its order."""
    return [(name, scheduler, config) for name in workloads
            for scheduler in SCHEDULERS for config in PAPER_CONFIGS]


def ilp_grid(workloads) -> list[tuple[str, str, str]]:
    return [(name, scheduler, config) for name in workloads
            for scheduler in SCHEDULERS for config in ILP_CONFIGS]


# ------------------------------------------------------- generated kernels
def _elements(spec: KernelSpec) -> int:
    """Elements per array, by the generator's sizing rule."""
    wanted = max(spec.array_kb * 1024 // 8 // spec.loads_per_iteration, 64)
    size = 1
    while size < wanted:
        size *= 2
    return size


def _instructions_per_element(spec: KernelSpec) -> tuple[int, int]:
    """(initialisation, one sweep) instructions per array element of the
    base compile, as counted on the simulator."""
    width, flops = spec.loads_per_iteration, spec.flops_per_load
    chain = 4 + 4 * width if spec.serial_chain else 0
    return 4 + 6 * width, 4 + 2 * width + 4 * width * flops + chain


def draw_kernels(seed: int) -> list[tuple[str, KernelSpec]]:
    """A seeded, stratified draw of :class:`KernelSpec` kernels.

    Every (working-set tier, serial/parallel chain, flops per load 1-4)
    cell gets :data:`GEN_PER_CELL` kernels, because those three factors
    set most of a kernel's stall behaviour.  The seed picks the loads
    per iteration: a shuffle of 1-8 over the eight cells of a tier, so
    every count appears equally often in every tier.  A tier's rounds
    give every cell a different count, so no two kernels are the same.
    """
    rng = random.Random(seed)
    cells = [(serial, flops) for serial in (False, True)
             for flops in range(1, 5)]
    kernels = []
    for array_kb in GEN_TIERS_KB:
        rounds: list[list[int]] = []
        while len(rounds) < GEN_PER_CELL:
            loads = list(range(1, 9))
            rng.shuffle(loads)
            if any(a == b for earlier in rounds
                   for a, b in zip(earlier, loads)):
                continue
            rounds.append(loads)
        for loads in rounds:
            for (serial, flops), width in zip(cells, loads):
                spec = KernelSpec(loads_per_iteration=width,
                                  flops_per_load=flops, array_kb=array_kb,
                                  serial_chain=serial)
                init, sweep = _instructions_per_element(spec)
                per_array = GEN_INSTRUCTION_BUDGET / _elements(spec)
                sweeps = max(1, round((per_array - init) / sweep))
                kernels.append((f"k{len(kernels):02d}",
                                replace(spec, sweeps=sweeps)))
    return kernels


def expected_out(spec: KernelSpec) -> list[float]:
    """``OUT`` computed straight from the kernel formula, in the same
    floating-point operation order as the generated source."""
    n = _elements(spec)
    width = spec.loads_per_iteration
    sources = [[float(i % (61 + 2 * k)) * 0.01 for i in range(n)]
               for k in range(width)]
    muls = [[float(f"0.{5 + (f + k) % 4}")
             for f in range(spec.flops_per_load)] for k in range(width)]
    adds = [float(f"{k}.125") for k in range(width)]
    out = [0.0] * n
    acc = 0.0
    # A parallel kernel writes the same OUT on every sweep.
    sweeps = spec.sweeps if spec.serial_chain else min(spec.sweeps, 1)
    for _ in range(sweeps):
        for i in range(n):
            terms = []
            for k in range(width):
                value = sources[k][i]
                for mul in muls[k]:
                    value = value * mul + adds[k]
                terms.append(value)
            if spec.serial_chain:
                for term in terms:
                    acc = acc * 0.5 + term
                out[i] = acc
            else:
                total = terms[0]
                for term in terms[1:]:
                    total = total + term
                out[i] = total
    return out
