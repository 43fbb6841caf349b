"""Experiment runner: the paper's scheduler x optimization grid.

One *configuration* is a named point of the evaluation grid (paper
section 4): a scheduler (balanced/traditional) combined with loop
unrolling (0/4/8), trace scheduling, and locality analysis.  The runner
compiles every workload under a configuration, simulates it, and
returns a compact :class:`RunResult`.

Results are cached on disk (keyed by a hash of the package sources,
the workload program and the configuration), so regenerating all
tables after the first full run is cheap.  Cache writes are atomic
(temp file + ``os.replace``) so concurrent or interrupted runs never
leave a torn entry; corrupt entries are discarded and recomputed.
Set ``REPRO_CACHE_DIR`` to relocate the cache and ``REPRO_NO_CACHE=1``
to disable it.

The grid points are embarrassingly parallel: ``sweep(jobs=N)`` fans
the uncached points out over a :class:`ProcessPoolExecutor` (one
worker call per ``(benchmark, scheduler, config)`` point) and returns
results in deterministic grid order regardless of completion order.
Every executed point records per-phase wall-clock timings (compile /
schedule / regalloc / simulate) and simulated-instruction throughput;
``sweep`` writes a structured JSON *run manifest* next to the cache.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import signal
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

from ..machine import (
    DEFAULT_CONFIG,
    MachineConfig,
    Simulator,
    config_from_json,
    config_hash,
    config_to_json,
)
from ..obs import NULL_OBSERVER, Observer
from ..obs.metrics import REGISTRY as _METRICS
from ..workloads.programs import WORKLOADS, Workload
from .compile import Options, compile_source
from .store import ResultStore, StoreKey, atomic_write_json, source_hash

#: Harness-level metrics (repro.obs.metrics): grid points counted by
#: how they were satisfied.
_M_GRID_POINTS = _METRICS.counter(
    "repro_grid_points_total", "grid points satisfied, by status")

#: The paper's configuration axes, by short name.
CONFIGS: dict[str, dict] = {
    "base": {},
    "lu4": {"unroll": 4},
    "lu8": {"unroll": 8},
    "trs4": {"unroll": 4, "trace": True},
    "trs8": {"unroll": 8, "trace": True},
    "la": {"locality": True},
    "la+lu4": {"locality": True, "unroll": 4},
    "la+lu8": {"locality": True, "unroll": 8},
    "la+trs4": {"locality": True, "unroll": 4, "trace": True},
    "la+trs8": {"locality": True, "unroll": 8, "trace": True},
    "swp": {"swp": True},
    "la+swp": {"locality": True, "swp": True},
}

SCHEDULERS = ("balanced", "traditional")

#: Cache roots already swept for orphaned temp files this process.
_REAPED_ROOTS: set[Path] = set()

MANIFEST_NAME = "run-manifest.json"

#: Manifest schema version.  v3 added the ``partial`` flag (graceful
#: shutdown writes a well-formed manifest for the completed prefix of
#: the grid) and machine-config-aware cache keys.  v4 added the
#: optional ``oracle`` section (heuristic-gap summary from
#: ``repro.oracle``, attached by the ``--oracle`` CLI flag and gated
#: by ``repro obs-diff``).  v5 added the ``metrics`` section (the
#: folded :mod:`repro.obs.metrics` counters of the sweep: a compact
#: summary plus the raw mergeable snapshot).  v6 added the optional
#: ``analysis`` section (dependence/pressure summary from
#: ``repro analyze --attach``/``--emit-manifest``, gated by
#: ``repro obs-diff``: losing proving power or growing MAXLIVE is a
#: regression).
MANIFEST_VERSION = 6


@dataclass
class RunResult:
    """Everything the paper's tables need from one simulated run."""

    benchmark: str
    scheduler: str
    config: str
    total_cycles: int
    instructions: int
    load_interlock_cycles: int
    fixed_interlock_cycles: int
    icache_stall_cycles: int
    branch_stall_cycles: int
    mshr_stall_cycles: int
    spill_loads: int
    spill_stores: int
    loads: int
    stores: int
    branches: int
    short_int: int
    long_int: int
    short_fp: int
    long_fp: int
    l1d_misses: int
    l2_misses: int
    l3_misses: int
    branch_mispredicts: int
    static_instructions: int
    spill_slots: int
    #: Software-pipelining outcome (all zero/empty when swp is off).
    #: ``swp_loops`` keeps the per-loop detail (one
    #: :meth:`~repro.sched.modulo.LoopPipelineStats.to_json` dict per
    #: candidate loop) so reports can audit II against MII from cache.
    swp_attempted: int = 0
    swp_pipelined: int = 0
    swp_mean_ii_over_mii: float = 0.0
    swp_max_ii_over_mii: float = 0.0
    swp_loops: list = field(default_factory=list)

    @property
    def load_interlock_fraction(self) -> float:
        return (self.load_interlock_cycles / self.total_cycles
                if self.total_cycles else 0.0)


@dataclass
class RunTiming:
    """Wall-clock observability for one grid point (not part of the
    deterministic :class:`RunResult`, so it never enters the cache key
    or result equality)."""

    benchmark: str
    scheduler: str
    config: str
    cached: bool
    #: Seconds per phase: ``compile`` (frontend + AST transforms +
    #: lowering + cleanups), ``schedule``, ``regalloc``, ``simulate``.
    phase_seconds: dict[str, float] = field(default_factory=dict)
    total_seconds: float = 0.0
    simulated_instructions: int = 0
    #: Full software-pipelining record (ModuloStats.to_json()) for
    #: executed points of swp configurations; None otherwise.
    modulo: Optional[dict] = None
    #: Which simulator engine executed this point ("fast", "reference",
    #: "profile"); None for cached points that were never re-simulated.
    sim_mode: Optional[str] = None

    @property
    def instructions_per_second(self) -> float:
        """Simulated-instruction throughput of the simulate phase."""
        sim = self.phase_seconds.get("simulate", 0.0)
        return self.simulated_instructions / sim if sim > 0 else 0.0

    def to_json(self) -> dict:
        data = asdict(self)
        data["instructions_per_second"] = round(
            self.instructions_per_second, 1)
        return data


@dataclass
class ManifestRun:
    """One grid point of a run manifest (RunTiming + result extras)."""

    benchmark: str
    scheduler: str
    config: str
    cached: bool
    phase_seconds: dict = field(default_factory=dict)
    total_seconds: float = 0.0
    simulated_instructions: int = 0
    modulo: Optional[dict] = None
    sim_mode: Optional[str] = None
    instructions_per_second: float = 0.0
    total_cycles: int = 0
    load_interlock_cycles: int = 0

    def timing(self) -> RunTiming:
        """The :class:`RunTiming` this entry was serialized from."""
        return RunTiming(
            benchmark=self.benchmark, scheduler=self.scheduler,
            config=self.config, cached=self.cached,
            phase_seconds=dict(self.phase_seconds),
            total_seconds=self.total_seconds,
            simulated_instructions=self.simulated_instructions,
            modulo=self.modulo, sim_mode=self.sim_mode)

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class Manifest:
    """A parsed run manifest; round-trips through JSON losslessly."""

    version: int
    fingerprint: str
    jobs: int
    grid_points: int
    executed: int
    cached: int
    wall_seconds: float
    simulated_instructions: int
    runs: list[ManifestRun] = field(default_factory=list)
    modulo: Optional[dict] = None
    trace: Optional[dict] = None
    #: Heuristic-gap summary (:func:`repro.oracle.gap.oracle_summary`),
    #: attached after the sweep when ``--oracle`` is given (v4).
    oracle: Optional[dict] = None
    #: Folded metrics counters of the sweep (v5): ``{"summary": ...,
    #: "snapshot": ...}``; None in manifests older than v5.
    metrics: Optional[dict] = None
    #: True when the sweep was interrupted (SIGTERM/SIGINT, a worker
    #: death) and the manifest covers only the completed grid points.
    partial: bool = False

    def to_json(self) -> dict:
        data = asdict(self)
        data["runs"] = [run.to_json() for run in self.runs]
        if self.modulo is None:
            del data["modulo"]
        if self.trace is None:
            del data["trace"]
        if self.oracle is None:
            del data["oracle"]
        if self.metrics is None:
            del data["metrics"]
        return data

    def run_for(self, benchmark: str, scheduler: str,
                config: str) -> Optional[ManifestRun]:
        for run in self.runs:
            if (run.benchmark, run.scheduler, run.config) == \
                    (benchmark, scheduler, config):
                return run
        return None


def parse_manifest(data: dict) -> Manifest:
    """Build a :class:`Manifest` from a manifest JSON dict."""
    runs = [ManifestRun(**entry) for entry in data.get("runs", [])]
    return Manifest(
        version=data.get("version", 1),
        fingerprint=data.get("fingerprint", ""),
        jobs=data.get("jobs", 1),
        grid_points=data.get("grid_points", len(runs)),
        executed=data.get("executed", 0),
        cached=data.get("cached", 0),
        wall_seconds=data.get("wall_seconds", 0.0),
        simulated_instructions=data.get("simulated_instructions", 0),
        runs=runs,
        modulo=data.get("modulo"),
        trace=data.get("trace"),
        oracle=data.get("oracle"),
        metrics=data.get("metrics"),
        partial=data.get("partial", False))


def load_manifest(path: str | Path) -> Manifest:
    """Load a run manifest written by :meth:`ExperimentRunner.sweep`."""
    return parse_manifest(json.loads(Path(path).read_text()))


def options_for(scheduler: str, config: str,
                machine: Optional[MachineConfig] = None) -> Options:
    """Build compiler options for a named grid point, optionally on a
    non-default machine description."""
    knobs = CONFIGS[config]
    if machine is not None:
        return Options(scheduler=scheduler, config=machine, **knobs)
    return Options(scheduler=scheduler, **knobs)


def _package_fingerprint(root: Optional[Path] = None) -> str:
    """Hash of all package sources: invalidates the cache on changes.

    Both each file's repo-relative *path* and its contents are mixed
    into the digest (with length framing), so renaming a module or
    moving code between files changes the fingerprint even when the
    concatenated bytes would not.
    """
    if root is None:
        root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix().encode()
        body = path.read_bytes()
        digest.update(len(rel).to_bytes(4, "little"))
        digest.update(rel)
        digest.update(len(body).to_bytes(8, "little"))
        digest.update(body)
    return digest.hexdigest()[:16]


def _execute_grid_point(workload: Workload, scheduler: str,
                        config: str,
                        observer: Observer = NULL_OBSERVER,
                        machine: Optional[MachineConfig] = None
                        ) -> tuple[RunResult, RunTiming]:
    """Compile and simulate one grid point, with phase timings."""
    start = time.perf_counter()
    with observer.span("grid-point", benchmark=workload.name,
                       scheduler=scheduler, config=config):
        options = options_for(scheduler, config, machine=machine)
        compiled = compile_source(workload.source, options,
                                  workload.name, observer=observer)
        stall_profile = observer.stall_profile(workload.name, scheduler,
                                               config)
        sim = Simulator(compiled.program, config=options.config,
                        stall_profile=stall_profile)
        with observer.span("simulate") as span:
            metrics = sim.run()
            if observer.enabled:
                span.annotate(cycles=metrics.total_cycles,
                              instructions=metrics.instructions,
                              load_interlock_cycles=(
                                  metrics.load_interlock_cycles))
    total_seconds = time.perf_counter() - start
    phases = dict(compiled.phase_seconds)
    phases["simulate"] = sim.run_seconds
    if sim.codegen_seconds:
        phases["sim_codegen"] = sim.codegen_seconds
    result = RunResult(
        benchmark=workload.name, scheduler=scheduler, config=config,
        total_cycles=metrics.total_cycles,
        instructions=metrics.instructions,
        load_interlock_cycles=metrics.load_interlock_cycles,
        fixed_interlock_cycles=metrics.fixed_interlock_cycles,
        icache_stall_cycles=metrics.icache_stall_cycles,
        branch_stall_cycles=metrics.branch_stall_cycles,
        mshr_stall_cycles=metrics.mshr_stall_cycles,
        spill_loads=metrics.spill_loads,
        spill_stores=metrics.spill_stores,
        loads=metrics.loads, stores=metrics.stores,
        branches=metrics.branches,
        short_int=metrics.short_int, long_int=metrics.long_int,
        short_fp=metrics.short_fp, long_fp=metrics.long_fp,
        l1d_misses=metrics.l1d.misses, l2_misses=metrics.l2.misses,
        l3_misses=metrics.l3.misses,
        branch_mispredicts=metrics.branch_mispredicts,
        static_instructions=len(compiled.program),
        spill_slots=compiled.allocation.n_slots)
    modulo = None
    if compiled.modulo_stats is not None:
        ms = compiled.modulo_stats
        result.swp_attempted = ms.attempted
        result.swp_pipelined = ms.pipelined
        result.swp_mean_ii_over_mii = ms.mean_ii_over_mii or 0.0
        result.swp_max_ii_over_mii = ms.max_ii_over_mii or 0.0
        result.swp_loops = [s.to_json() for s in ms.loops]
        modulo = ms.to_json()
    timing = RunTiming(
        benchmark=workload.name, scheduler=scheduler, config=config,
        cached=False, phase_seconds=phases, total_seconds=total_seconds,
        simulated_instructions=metrics.instructions, modulo=modulo,
        sim_mode=sim.mode_used)
    return result, timing


def _pool_run(benchmark: str, scheduler: str, config: str,
              cache_dir: str, use_cache: bool, fingerprint: str,
              machine_json: Optional[dict] = None):
    """Worker entry point: one grid point in a child process.

    The parent's pre-computed package fingerprint is passed in so the
    worker never re-hashes the package sources; a non-default machine
    description travels as plain JSON (picklable, version-stable).
    """
    # A freshly forked worker inherits the parent's registry state;
    # discard it so the first delta frame ships only this task's work
    # (the parent already holds the inherited counts).
    _METRICS.reset()
    machine = config_from_json(machine_json) if machine_json else None
    runner = ExperimentRunner(cache_dir=Path(cache_dir),
                              fingerprint=fingerprint,
                              machine_config=machine)
    runner.use_cache = use_cache
    result = runner.run(benchmark, scheduler, config)
    timing = runner.timings.get((benchmark, scheduler, config))
    # Ship this worker's metrics delta in the result frame; the parent
    # folds it into its registry (snapshot_and_reset so a reused pool
    # worker never double-counts across tasks).
    metrics = _METRICS.snapshot_and_reset()
    return benchmark, scheduler, config, result, timing, metrics


class ExperimentRunner:
    """Compiles, simulates and caches the full experiment grid."""

    def __init__(self, cache_dir: Optional[Path] = None,
                 verbose: bool = False, jobs: int = 1,
                 fingerprint: Optional[str] = None,
                 observer: Observer = NULL_OBSERVER,
                 machine_config: Optional[MachineConfig] = None) -> None:
        if cache_dir is None:
            cache_dir = Path(
                os.environ.get("REPRO_CACHE_DIR",
                               Path.home() / ".cache" / "repro-pldi95"))
        self.cache_dir = Path(cache_dir)
        self.use_cache = os.environ.get("REPRO_NO_CACHE") != "1"
        self.verbose = verbose
        self.jobs = max(1, jobs)
        #: Machine the whole grid is compiled for and simulated on;
        #: None means :data:`~repro.machine.DEFAULT_CONFIG`.  Its hash
        #: is part of every cache key, so results simulated on
        #: different machines can never be confused for one another.
        self.machine_config = machine_config
        self._machine_hash = config_hash(machine_config
                                         or DEFAULT_CONFIG)
        self._store = ResultStore(self.cache_dir)
        if self.use_cache:
            self._reap_once()
        #: Observability sink.  An *enabled* observer needs in-process
        #: execution for stall attribution, so cached results are
        #: bypassed (recomputation is deterministic and re-publishes
        #: identical cache entries) and sweeps run serially.  The
        #: default no-op observer changes nothing: cache keys, cycle
        #: counts and parallel fan-out are exactly as before.
        self.observer = observer
        # Hashing the package is not free; workers receive the parent's
        # fingerprint instead of recomputing it per process.
        self._fingerprint = fingerprint or _package_fingerprint()
        self._memory: dict[tuple[str, str, str], RunResult] = {}
        #: Observability for every grid point touched by this runner.
        self.timings: dict[tuple[str, str, str], RunTiming] = {}

    # -------------------------------------------------------------- cache
    def _reap_once(self) -> None:
        """Reap orphaned temp files, once per cache dir per process
        (forked grid workers inherit the guard and skip the scan)."""
        root = self.cache_dir.resolve()
        if root in _REAPED_ROOTS:
            return
        _REAPED_ROOTS.add(root)
        self._store.reap_orphans()

    def _store_key(self, workload: Workload, scheduler: str,
                   config: str) -> StoreKey:
        return StoreKey(benchmark=workload.name, scheduler=scheduler,
                        config=config, fingerprint=self._fingerprint,
                        source_hash=source_hash(workload.source),
                        machine_hash=self._machine_hash)

    def _cache_path(self, workload: Workload, scheduler: str,
                    config: str) -> Path:
        return self._store.path_for(
            self._store_key(workload, scheduler, config))

    def _load_cached(self, key: StoreKey) -> Optional[RunResult]:
        if not self.use_cache:
            return None
        data = self._store.load(key)
        if data is None:
            return None
        try:
            return RunResult(**data)
        except TypeError:
            # Stale-schema entry: drop it so the refreshed result
            # replaces it (another process may already have).
            try:
                self._store.path_for(key).unlink(missing_ok=True)
            except OSError:
                pass
            return None

    def _store_cached(self, key: StoreKey, result: RunResult) -> None:
        if not self.use_cache:
            return
        self._store.store(key, asdict(result))

    # --------------------------------------------------------------- runs
    def run(self, benchmark: str, scheduler: str, config: str) -> RunResult:
        """One grid point for one benchmark (cached)."""
        key = (benchmark, scheduler, config)
        if key in self._memory:
            return self._memory[key]
        workload = WORKLOADS[benchmark]
        store_key = self._store_key(workload, scheduler, config)
        start = time.perf_counter()
        result = None if self.observer.enabled else \
            self._load_cached(store_key)
        if result is not None:
            _M_GRID_POINTS.labels(status="cached").inc()
            self.timings[key] = RunTiming(
                benchmark=benchmark, scheduler=scheduler, config=config,
                cached=True, total_seconds=time.perf_counter() - start,
                simulated_instructions=result.instructions)
        else:
            if self.verbose:
                print(f"  running {benchmark} / {scheduler} / {config}")
            result, timing = _execute_grid_point(
                workload, scheduler, config, observer=self.observer,
                machine=self.machine_config)
            _M_GRID_POINTS.labels(status="executed").inc()
            self.timings[key] = timing
            self._store_cached(store_key, result)
        self._memory[key] = result
        return result

    # ------------------------------------------------------------- sweeps
    def sweep(self, benchmarks: Optional[list[str]] = None,
              schedulers=SCHEDULERS,
              configs: Optional[list[str]] = None,
              jobs: Optional[int] = None) -> list[RunResult]:
        """Run (or fetch) a whole sub-grid.

        With ``jobs > 1`` the uncached grid points fan out over a
        process pool; results come back in deterministic grid order
        (benchmark-major, then scheduler, then config) regardless of
        completion order, bit-identical to the serial path.

        Interruption is graceful: SIGTERM/SIGINT (and a worker dying
        under the pool) cancel the not-yet-started grid points, but the
        completed prefix still lands in a well-formed run manifest
        marked ``"partial": true`` before the interruption is re-raised.
        """
        grid = [(benchmark, scheduler, config)
                for benchmark in (benchmarks or list(WORKLOADS))
                for scheduler in schedulers
                for config in (configs or list(CONFIGS))]
        jobs = self.jobs if jobs is None else max(1, jobs)
        if self.observer.enabled:
            # Spans and stall profiles live in this process: run every
            # point here (serially) and never satisfy one from disk.
            jobs = 1
        sweep_start = time.perf_counter()

        # Resolve memory/disk hits in-process; only misses need a core.
        pending: list[tuple[str, str, str]] = []
        for key in grid:
            if key in self._memory:
                continue
            if self.observer.enabled:
                pending.append(key)
                continue
            benchmark, scheduler, config = key
            store_key = self._store_key(WORKLOADS[benchmark],
                                        scheduler, config)
            cached = self._load_cached(store_key)
            if cached is not None:
                self._memory[key] = cached
                self.timings[key] = RunTiming(
                    benchmark=benchmark, scheduler=scheduler,
                    config=config, cached=True,
                    simulated_instructions=cached.instructions)
            else:
                pending.append(key)

        unique_pending = list(dict.fromkeys(pending))
        failure: Optional[BaseException] = None
        restore_sigterm = self._arm_sigterm()
        try:
            if len(unique_pending) <= 1 or jobs == 1:
                for done, key in enumerate(unique_pending, start=1):
                    self.run(*key)
                    self._progress(done, len(unique_pending), key)
            else:
                self._sweep_parallel(unique_pending, jobs)
        except BaseException as exc:   # incl. KeyboardInterrupt/SystemExit
            failure = exc
        finally:
            restore_sigterm()

        try:
            self._write_manifest(grid, jobs,
                                 time.perf_counter() - sweep_start,
                                 partial=failure is not None)
        except Exception:
            # Never mask the original interruption with a manifest
            # error; a clean sweep still reports it.
            if failure is None:
                raise
        if failure is not None:
            raise failure
        return [self._memory[key] for key in grid]

    @staticmethod
    def _arm_sigterm():
        """Make SIGTERM raise (like SIGINT) for the duration of a
        sweep, so ``kill <pid>`` drains into the partial-manifest path
        instead of dying mid-write.  Returns a restore callback; a
        no-op off the main thread, where signals cannot be armed."""
        if threading.current_thread() is not threading.main_thread():
            return lambda: None

        def _on_sigterm(signum, frame):
            raise SystemExit(128 + signum)

        try:
            previous = signal.signal(signal.SIGTERM, _on_sigterm)
        except (ValueError, OSError):
            return lambda: None
        return lambda: signal.signal(signal.SIGTERM, previous)

    def _sweep_parallel(self, pending: list[tuple[str, str, str]],
                        jobs: int) -> None:
        workers = min(jobs, len(pending))
        machine_json = config_to_json(self.machine_config) \
            if self.machine_config is not None else None
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            futures = {
                pool.submit(_pool_run, benchmark, scheduler, config,
                            str(self.cache_dir), self.use_cache,
                            self._fingerprint, machine_json):
                    (benchmark, scheduler, config)
                for benchmark, scheduler, config in pending}
            for done, future in enumerate(as_completed(futures), start=1):
                (benchmark, scheduler, config, result, timing,
                 metrics) = future.result()
                key = (benchmark, scheduler, config)
                self._memory[key] = result
                if timing is not None:
                    self.timings[key] = timing
                _METRICS.merge(metrics)
                self._progress(done, len(pending), key)
        except BaseException:
            # Interrupted (signal) or a worker died: drop the queued
            # grid points and abandon the running ones; the caller
            # writes the partial manifest from what did complete.
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        else:
            pool.shutdown(wait=True)

    def _progress(self, done: int, total: int,
                  key: tuple[str, str, str]) -> None:
        if not self.verbose:
            return
        timing = self.timings.get(key)
        detail = ""
        if timing is not None and not timing.cached:
            detail = (f" {timing.total_seconds:.2f}s"
                      f" ({timing.instructions_per_second / 1e3:.0f}k"
                      f" sim instr/s)")
        benchmark, scheduler, config = key
        print(f"  [{done}/{total}] {benchmark}/{scheduler}/{config}"
              f"{detail}", file=sys.stderr)

    # ----------------------------------------------------------- manifest
    @property
    def manifest_path(self) -> Path:
        return self.cache_dir / MANIFEST_NAME

    def _write_manifest(self, grid: list[tuple[str, str, str]],
                        jobs: int, wall_seconds: float,
                        partial: bool = False) -> None:
        """Structured JSON record of the last sweep, next to the cache."""
        if not self.use_cache:
            return
        runs = []
        for key in dict.fromkeys(grid):
            timing = self.timings.get(key)
            result = self._memory.get(key)
            if timing is None or result is None:
                continue
            entry = timing.to_json()
            entry["total_cycles"] = result.total_cycles
            entry["load_interlock_cycles"] = (
                result.load_interlock_cycles)
            runs.append(entry)
        executed = [r for r in runs if not r["cached"]]
        modulo = self._modulo_aggregates(grid)
        payload = {
            "version": MANIFEST_VERSION,
            "fingerprint": self._fingerprint,
            "partial": partial,
            "jobs": jobs,
            "grid_points": len(dict.fromkeys(grid)),
            "executed": len(executed),
            "cached": len(runs) - len(executed),
            "wall_seconds": round(wall_seconds, 3),
            "simulated_instructions": sum(
                r["simulated_instructions"] for r in executed),
            "runs": runs,
        }
        if modulo:
            payload["modulo"] = modulo
        if self.observer.enabled:
            payload["trace"] = self.observer.summary()
        payload["metrics"] = {
            "summary": _METRICS.summary(),
            "snapshot": _METRICS.snapshot(),
        }
        atomic_write_json(self.manifest_path, payload)

    def _modulo_aggregates(self, grid: list[tuple[str, str, str]]) -> dict:
        """Per-(scheduler, config) software-pipelining aggregates.

        Built from the (cache-surviving) :class:`RunResult` fields, so
        a fully-cached sweep still reports them."""
        groups: dict[str, list[RunResult]] = {}
        for key in dict.fromkeys(grid):
            result = self._memory.get(key)
            if result is None or not result.swp_attempted:
                continue
            groups.setdefault(f"{key[1]}/{key[2]}", []).append(result)
        out: dict[str, dict] = {}
        for name, results in sorted(groups.items()):
            ratios = [r.swp_max_ii_over_mii for r in results
                      if r.swp_pipelined]
            means = [r.swp_mean_ii_over_mii for r in results
                     if r.swp_pipelined]
            entry = {
                "benchmarks": len(results),
                "loops_attempted": sum(r.swp_attempted for r in results),
                "loops_pipelined": sum(r.swp_pipelined for r in results),
            }
            if ratios:
                entry["max_ii_over_mii"] = round(max(ratios), 4)
                entry["mean_ii_over_mii"] = round(
                    sum(means) / len(means), 4)
            out[name] = entry
        return out


def geometric_mean(values: list[float]) -> float:
    """Geometric mean in the log domain.

    Multiplying raw cycle counts overflows to ``inf`` (or underflows
    to ``0.0``) long before a 340-point grid is folded in; summing
    logs with :func:`math.fsum` is exact to the last bit instead.
    Non-positive inputs have no geometric mean and raise rather than
    silently corrupting the result.
    """
    if not values:
        return 0.0
    for value in values:
        if value <= 0:
            raise ValueError(
                f"geometric_mean requires positive values, got {value!r}")
    return math.exp(math.fsum(math.log(value) for value in values)
                    / len(values))


def arithmetic_mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0
