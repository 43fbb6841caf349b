"""Spans around the public calls into each layer of ``repro``.

The traced run patches the module attributes that the pipeline looks up
at call time (``repro.harness.compile`` imports every pass by name, so
its globals are the layer boundaries), records one span per call —
name, start, end and parent — in memory, and restores the originals
afterwards.  No file under ``src/`` changes.

A layer's *self* time is its spans' duration minus the part their child
spans cover.  ``point`` spans wrap whole grid points; their self time is
``harness.other_s``.  ``sched.trace.profile`` is opaque: the profiling
compile and simulation beneath it are charged to it, not to the
regalloc/verify/machine layers they call.
"""

from __future__ import annotations

import importlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

#: Span name -> per-layer self-time metric.
LAYERS = {
    "frontend": "frontend.self_s",
    "opt.ast": "opt.ast.self_s",
    "opt.cleanups": "opt.cleanups.self_s",
    "codegen.lower": "codegen.lower.self_s",
    "sched.block": "sched.block.self_s",
    "sched.trace": "sched.trace.self_s",
    "sched.trace.profile": "sched.trace.profile_s",
    "sched.modulo": "sched.modulo.self_s",
    "codegen.regalloc": "codegen.regalloc.self_s",
    "codegen.verify": "codegen.verify.self_s",
    "machine.decode": "machine.decode.self_s",
    "machine.codegen": "machine.codegen.self_s",
    "machine.simulate": "machine.simulate.self_s",
    "harness.store": "harness.store.self_s",
    "point": "harness.other_s",
}
#: Spans the benchmark itself adds (output digests); excluded from the
#: traced sweep time exactly as the untraced run excludes them.
BENCH_SPAN = "bench.digest"


def _count_call(counts, args, result):
    counts["frontend.calls"] += 1


def _count_unrolled(counts, args, stats):
    counts["opt.unroll.loops_unrolled"] += stats.unrolled


def _count_ir(counts, args, cfg):
    counts["codegen.lower.ir_instrs"] += sum(len(b.instrs) for b in cfg)


def _count_modulo(counts, args, stats):
    counts["sched.modulo.attempted"] += stats.attempted
    counts["sched.modulo.pipelined"] += stats.pipelined


def _count_spills(counts, args, allocation):
    counts["codegen.regalloc.spill_slots"] += allocation.n_slots


def _count_instructions(counts, args, metrics):
    counts["machine.simulate.instructions"] += metrics.instructions


#: (module, attribute path, span name, opaque, counter)
PATCHES = (
    ("repro.harness.compile", "frontend", "frontend", False, _count_call),
    ("repro.harness.compile", "analyze_locality", "opt.ast", False, None),
    ("repro.harness.compile", "unroll_program", "opt.ast", False,
     _count_unrolled),
    ("repro.harness.compile", "predicate_program", "opt.ast", False, None),
    ("repro.harness.compile", "lower", "codegen.lower", False, _count_ir),
    ("repro.harness.compile", "fold_constants", "opt.cleanups", False,
     None),
    ("repro.harness.compile", "propagate_copies", "opt.cleanups", False,
     None),
    ("repro.harness.compile", "eliminate_dead_code", "opt.cleanups", False,
     None),
    ("repro.harness.compile", "schedule_cfg", "sched.block", False, None),
    ("repro.harness.compile", "_collect_profile", "sched.trace.profile",
     True, None),
    ("repro.harness.compile", "trace_schedule", "sched.trace", False,
     None),
    ("repro.harness.compile", "pipeline_loops", "sched.modulo", False,
     _count_modulo),
    ("repro.harness.compile", "allocate_registers", "codegen.regalloc",
     False, _count_spills),
    ("repro.harness.compile", "verify_pipelined_kernels", "codegen.verify",
     False, None),
    ("repro.harness.compile", "verify_program", "codegen.verify", False,
     None),
    ("repro.ir.cfg", "Cfg.linearize", "codegen.verify", False, None),
    ("repro.machine.simulator", "Simulator.__init__", "machine.decode",
     False, None),
    ("repro.machine.fastsim", "build_engine", "machine.codegen", False,
     None),
    ("repro.machine.simulator", "Simulator.run", "machine.simulate", False,
     _count_instructions),
    ("repro.harness.store", "ResultStore.load", "harness.store", False,
     None),
    ("repro.harness.store", "ResultStore.store", "harness.store", False,
     None),
    ("repro.harness.experiment", "ExperimentRunner._write_manifest",
     "harness.store", False, None),
)


class Tracer:
    """In-memory span recorder.  Disabled, it only keeps bookkeeping."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        #: One ``[name, start, end, parent index]`` list per span.
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._opaque = 0
        self._undo: list = []

    @contextmanager
    def span(self, name: str, opaque: bool = False):
        if not self.enabled or self._opaque:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        record = [name, perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        self._opaque += opaque
        try:
            yield
        finally:
            self._opaque -= opaque
            self._stack.pop()
            record[2] = perf_counter()

    def wrap(self, fn, name: str, opaque: bool = False, counter=None):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._opaque:
                return fn(*args, **kwargs)
            with tracer.span(name, opaque):
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(tracer.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every layer boundary in :data:`PATCHES`."""
        for module_name, path, name, opaque, counter in PATCHES:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            setattr(owner, attr, self.wrap(original, name, opaque, counter))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ summary
    def self_times(self) -> dict[str, float]:
        """Self seconds per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Counter = Counter()
        for (name, start, end, _), covered in zip(self.spans, child_time):
            totals[name] += (end - start) - covered
        return dict(totals)

    def span_records(self) -> list[dict]:
        return [{"name": name, "start": start, "end": end, "parent": parent}
                for name, start, end, parent in self.spans]
