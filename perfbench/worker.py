"""One benchmark process: set up, run one repeat of a workload, check it.

``run.py`` starts one of these per repeat, so every repeat starts cold
(fresh interpreter, empty simulator code cache, empty result store),
which is what a user's ``repro bench`` does.  The worker writes one JSON
result file; it prints nothing on stdout.

    python3 perfbench/worker.py --workload paper-grid --seed 1 \
        --spawned-at <time.monotonic()> --out result.json --memo memo.json \
        [--trace] [--setup-only] [--perturb-expected]

``--memo`` names a JSON file of verification results from earlier
repeats of the same run; it is read, never written (``run.py`` merges
the worker's new entries into it).
"""

from __future__ import annotations

import argparse
import json
import pickle
import resource
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--memo", required=True, type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--perturb-expected", action="store_true")
    return parser.parse_args(argv)


def _import_repro():
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"repro imported from {repro.__file__}, "
                         f"not from {SRC}")


def _counter_values() -> dict[str, int]:
    from repro.obs.metrics import REGISTRY

    names = ("repro_fastsim_code_cache_hits_total",
             "repro_fastsim_code_cache_misses_total",
             "repro_fastsim_replay_hits_total",
             "repro_fastsim_replay_misses_total")
    return {name: REGISTRY.counter(name).value for name in names}


class Run:
    """State of one repeat: per-point records and the tracer."""

    def __init__(self, args, tracer) -> None:
        self.args = args
        self.tracer = tracer
        #: point key -> {"time_s", "cycles", "interlocks", "digest", ...}
        self.points: dict[str, dict] = {}
        #: Seconds spent in :meth:`untimed` blocks.
        self.untimed_s = 0.0
        self.memo: dict = json.loads(args.memo.read_text())
        self.memo_new: dict = {}

    @contextmanager
    def untimed(self):
        """A block the sweep time excludes: the benchmark's own output
        digests, traced as ``bench.digest``."""
        start = time.perf_counter()
        with self.tracer.span(tracing.BENCH_SPAN):
            yield
        self.untimed_s += time.perf_counter() - start

    def fail(self, key: str, message: str) -> None:
        self.points.setdefault(key, {})["error"] = message


# ------------------------------------------------------------- paper-grid
def setup_paper_grid(run: Run, work: Path):
    from repro.harness import experiment
    from repro.harness.experiment import ExperimentRunner
    from repro.workloads.programs import WORKLOADS

    import workloads

    cache = Path(tempfile.mkdtemp(prefix="cache-", dir=work))
    runner = ExperimentRunner(cache_dir=cache, jobs=1)
    grid = workloads.paper_grid(WORKLOADS)
    current = {}

    original_point = experiment._execute_grid_point

    def point(workload, scheduler, config, *args, **kwargs):
        current["key"] = workloads.point_key(workload.name, scheduler,
                                             config)
        with run.tracer.span("point"):
            return original_point(workload, scheduler, config,
                                  *args, **kwargs)

    class DigestingSimulator(experiment.Simulator):
        """Records the final data digest of each grid point's run."""

        def run(self, *args, **kwargs):
            metrics = super().run(*args, **kwargs)
            record = run.points.setdefault(current["key"], {})
            before = run.untimed_s
            with run.untimed():
                record["digest"] = workloads.data_digest(self.program,
                                                         self.memory)
            record["untimed_s"] = run.untimed_s - before
            return metrics

    experiment._execute_grid_point = point
    experiment.Simulator = DigestingSimulator

    def timed():
        try:
            results = runner.sweep(configs=list(workloads.PAPER_CONFIGS),
                                   jobs=1)
        except Exception:
            # One raising point aborts the sweep: every point fails.
            traceback.print_exc()
            for name, scheduler, config in grid:
                run.fail(workloads.point_key(name, scheduler, config),
                         "sweep raised")
            return
        for (name, scheduler, config), result in zip(grid, results):
            record = run.points[workloads.point_key(name, scheduler,
                                                    config)]
            timing = runner.timings[(name, scheduler, config)]
            # The output digest ran inside the point; take it back out.
            record["time_s"] = (timing.total_seconds
                                - record.pop("untimed_s"))
            record["cycles"] = result.total_cycles
            record["interlocks"] = result.load_interlock_cycles

    def check():
        reference = workloads.load_reference()
        if run.args.perturb_expected:
            reference[next(iter(reference))] = "perturbed"
        for key, record in run.points.items():
            if "error" in record:
                continue
            want = reference.get(key.split("/")[0])
            if record.get("digest") != want:
                run.fail(key, f"output digest {record.get('digest')} "
                              f"!= reference {want}")

    return timed, check


# ------------------------------------------------------------ ilp-compile
def simulate(program) -> dict:
    """Cycles and output digest of one compiled program, or the error
    its simulation raised."""
    from repro.machine import Simulator

    import workloads

    try:
        sim = Simulator(program)
        metrics = sim.run()
    except Exception as exc:
        return {"error": f"simulation raised {exc!r}"}
    return {"cycles": metrics.total_cycles,
            "interlocks": metrics.load_interlock_cycles,
            "digest": workloads.data_digest(program, sim.memory)}


def setup_ilp_compile(run: Run, work: Path):
    from repro.harness.compile import compile_source
    from repro.harness.experiment import options_for
    from repro.workloads.programs import WORKLOADS

    import workloads

    grid = [(WORKLOADS[name], scheduler, config) for name, scheduler, config
            in workloads.ilp_grid(WORKLOADS)]
    #: point key -> program id of its compiled program.
    program_of: dict[str, str] = {}
    # Programs the memo does not know yet are pickled to disk, so the
    # timed window's peak RSS holds no copy of them.
    pending = tempfile.NamedTemporaryFile(prefix="programs-", dir=work,
                                          delete=False)
    pending_ids: set[str] = set()

    def timed():
        for workload, scheduler, config in grid:
            key = workloads.point_key(workload.name, scheduler, config)
            start = time.perf_counter()
            try:
                with run.tracer.span("point"):
                    program = compile_source(
                        workload.source, options_for(scheduler, config),
                        workload.name).program
            except Exception as exc:
                run.fail(key, f"compile raised {exc!r}")
                continue
            run.points[key] = {"time_s": time.perf_counter() - start}
            with run.untimed():
                program_id = workloads.program_key(program)
                program_of[key] = program_id
                if (program_id not in run.memo
                        and program_id not in pending_ids):
                    pending_ids.add(program_id)
                    pickle.dump((program_id, program), pending)
            del program
        pending.close()

    def check():
        with open(pending.name, "rb") as stream:
            for _ in pending_ids:
                program_id, program = pickle.load(stream)
                run.memo[program_id] = run.memo_new[program_id] = \
                    simulate(program)
        reference = workloads.load_reference()
        if run.args.perturb_expected:
            reference[next(iter(reference))] = "perturbed"
        for key, program_id in program_of.items():
            verdict = run.memo[program_id]
            if "error" in verdict:
                run.fail(key, verdict["error"])
                continue
            run.points[key].update(verdict)
            want = reference.get(key.split("/")[0])
            if verdict["digest"] != want:
                run.fail(key, f"output digest {verdict['digest']} "
                              f"!= reference {want}")

    return timed, check


# ------------------------------------------------------------ gen-kernels
def setup_gen_kernels(run: Run, work: Path):
    from repro.harness.compile import compile_source
    from repro.harness.experiment import options_for
    from repro.machine import Simulator
    from repro.workloads.generator import generate_kernel

    import workloads

    kernels = [(name, spec, generate_kernel(spec))
               for name, spec in workloads.draw_kernels(run.args.seed)]

    def timed():
        for name, spec, source in kernels:
            for scheduler in workloads.SCHEDULERS:
                for config in workloads.GEN_CONFIGS:
                    key = workloads.point_key(name, scheduler, config)
                    start = time.perf_counter()
                    try:
                        with run.tracer.span("point"):
                            result = compile_source(
                                source, options_for(scheduler, config),
                                name)
                            sim = Simulator(result.program)
                            metrics = sim.run()
                    except Exception as exc:
                        run.fail(key, f"point raised {exc!r}")
                        continue
                    record = run.points[key] = {
                        "time_s": time.perf_counter() - start,
                        "cycles": metrics.total_cycles,
                        "interlocks": metrics.load_interlock_cycles}
                    with run.untimed():
                        record["digest"] = workloads.data_digest(
                            result.program, sim.memory)
                        record["out"] = workloads.values_digest(
                            sim.get_symbol("OUT"))

    def check():
        for _, spec, _ in kernels:
            memo_key = f"expected:{spec!r}"
            if memo_key not in run.memo:
                run.memo[memo_key] = run.memo_new[memo_key] = \
                    workloads.values_digest(workloads.expected_out(spec))
        expected = {name: run.memo[f"expected:{spec!r}"]
                    for name, spec, _ in kernels}
        if run.args.perturb_expected:
            name, spec, _ = kernels[0]
            values = workloads.expected_out(spec)
            values[0] += 1e-9
            expected[name] = workloads.values_digest(values)
        for key, record in run.points.items():
            if "out" in record and record["out"] != expected[
                    key.split("/")[0]]:
                run.fail(key, "OUT differs from the kernel formula")

    return timed, check


SETUPS = {"paper-grid": setup_paper_grid,
          "ilp-compile": setup_ilp_compile,
          "gen-kernels": setup_gen_kernels}


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_repro()
    work = args.out.parent
    tracer = tracing.Tracer(enabled=args.trace)
    run = Run(args, tracer)
    timed, check = SETUPS[args.workload](run, work)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if not args.setup_only:
        counters = _counter_values()
        if args.trace:
            tracer.install()
        start = time.perf_counter()
        with tracer.span("sweep"):
            timed()
        sweep_s = time.perf_counter() - start - run.untimed_s
        tracer.uninstall()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        after = _counter_values()
        check()
        result.update(
            sweep_s=sweep_s, peak_rss_mb=rss_mb, points=run.points,
            memo_new=run.memo_new,
            counters={k: after[k] - counters[k] for k in counters})
        if args.trace:
            result["self_s"] = tracer.self_times()
            result["counts"] = dict(tracer.counts)
            result["spans"] = tracer.span_records()
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
