"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 20 \
        --trace 0

Run from the root of a checkout.  Each repeat of the workload is a fresh
``worker.py`` process, started one at a time (jobs=1, no pool); repeats
continue until ``--seconds`` of timed work has been measured.  With
``--trace 1`` untraced and traced repeats alternate and the per-layer
metrics are printed instead of the end-to-end ones.

Every metric goes to stderr by name, with its unit and sample count; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Per-point cycles and output digests are
written to ``perfbench/out/`` (and, traced, the span list) so two commits
can be compared with ``perfbench/diff.py``.  The exit code is non-zero
when any grid point failed its output check or a consistency check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: Set-up samples per run: every repeat gives one, set-up-only
#: processes make up the rest.
SETUP_SAMPLES = 5
#: A run stops starting repeats after this long, so it ends well
#: inside three minutes even on a slow machine.
WALL_LIMIT_S = 120.0
WORKER_TIMEOUT_S = 170.0
#: Largest gap allowed between the traced run's layer self times and
#: its sweep time, as a share of the sweep.
ACCOUNTING_TOLERANCE = 0.03

#: Workloads, metric names and units, as BENCHMARK.json lists them.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in _SPEC["workloads"]]
END_TO_END = [(m["name"], m["unit"]) for m in _SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _SPEC["per_layer"]]


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb-expected", action="store_true",
                        help="corrupt one expected output (must-fail "
                             "check: the run must report failures)")
    return parser.parse_args(argv)


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Workers:
    """Starts worker processes one at a time and merges their memos."""

    def __init__(self, args, work: Path) -> None:
        self.args = args
        self.work = work
        self.memo_path = work / "memo.json"
        self.memo_path.write_text("{}")
        self.count = 0

    def run(self, trace: bool = False, setup_only: bool = False) -> dict:
        self.count += 1
        out = self.work / f"repeat-{self.count}.json"
        spawned = time.monotonic()
        cmd = [sys.executable, str(BENCH / "worker.py"),
               "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--out", str(out),
               "--memo", str(self.memo_path),
               "--spawned-at", repr(spawned)]
        if trace:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        if self.args.perturb_expected:
            cmd.append("--perturb-expected")
        proc = subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT,
                              timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        result = json.loads(out.read_text())
        if result.get("memo_new"):
            memo = json.loads(self.memo_path.read_text())
            memo.update(result["memo_new"])
            self.memo_path.write_text(json.dumps(memo))
        return result


def _high_percentile(samples: list[float]) -> tuple[float, float]:
    """The highest percentile (at most p90) with >= 10 samples beyond it,
    and its value."""
    q = min(0.9, max(0.5, 1.0 - 10.0 / len(samples)))
    ordered = sorted(samples)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    value = ordered[low] + (ordered[high] - ordered[low]) * (position - low)
    return q, value


def _geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def check_points(repeats: list[dict]) -> tuple[int, int, list[str], dict]:
    """Count attempted and failed points over all repeats.

    A point fails when it raised or its output differs from the
    reference, and also when its cycles or digest differ between two
    repeats (traced or not): a deterministic result that moves is a
    failure, never averaged away.
    """
    attempted = failed = 0
    messages: list[str] = []
    first: dict[str, dict] = {}
    for repeat in repeats:
        for key, record in repeat["points"].items():
            attempted += 1
            if "error" in record:
                failed += 1
                messages.append(f"{key}: {record['error']}")
                continue
            outcome = (record["cycles"], record["interlocks"],
                       record["digest"])
            seen = first.setdefault(key, record)
            if (seen["cycles"], seen["interlocks"], seen["digest"]) \
                    != outcome:
                failed += 1
                messages.append(f"{key}: result differs between repeats")
    return attempted, failed, messages, first


def end_to_end(repeats: list[dict], setups: list[float],
               points: dict[str, dict], passed: float
               ) -> tuple[dict, dict]:
    times = [record["time_s"] for repeat in repeats
             for record in repeat["points"].values() if "time_s" in record]
    if not times:
        raise RuntimeError("no grid point completed")
    q, p90 = _high_percentile(times)
    cycles = {key: record["cycles"] for key, record in points.items()}
    speedups = []
    for key, balanced in cycles.items():
        program, scheduler, config = key.split("/")
        if scheduler == "balanced":
            traditional = cycles.get(f"{program}/traditional/{config}")
            if traditional:
                speedups.append(traditional / balanced)
    balanced = [record for key, record in points.items()
                if key.split("/")[1] == "balanced"]
    metrics = {
        "setup_s": statistics.median(setups),
        "sweep_s": statistics.median(r["sweep_s"] for r in repeats),
        "point_p50_s": statistics.median(times),
        "point_p90_s": p90,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in repeats),
        "passed_frac": passed,
        "cycles_geomean": _geomean(cycles.values()) if cycles else 0.0,
        "bs_speedup_geomean": _geomean(speedups) if speedups else 0.0,
        "load_interlock_frac": _ratio(
            sum(r["interlocks"] for r in balanced),
            sum(r["cycles"] for r in balanced)),
    }
    samples = {
        "setup_s": f"median of {len(setups)} processes",
        "sweep_s": f"median of {len(repeats)} repeats",
        "point_p50_s": f"{len(times)} point samples",
        "point_p90_s": f"p{q * 100:.0f} of {len(times)} point samples",
        "peak_rss_mb": f"median of {len(repeats)} processes",
        "cycles_geomean": f"{len(cycles)} points",
        "bs_speedup_geomean": f"{len(speedups)} (program, config) pairs",
    }
    return metrics, samples


def per_layer(traced: list[dict], untraced: list[dict]
              ) -> tuple[dict, list[str]]:
    """Per-layer metrics: medians over the traced repeats."""
    import tracing

    problems: list[str] = []
    rows = []
    for repeat in traced:
        selfs = repeat["self_s"]
        counts = repeat["counts"]
        counters = repeat["counters"]
        row = {metric: selfs.get(span, 0.0)
               for span, metric in tracing.LAYERS.items()}
        for name in ("frontend.calls", "opt.unroll.loops_unrolled",
                     "codegen.lower.ir_instrs",
                     "codegen.regalloc.spill_slots",
                     "machine.simulate.instructions"):
            row[name] = counts.get(name, 0)
        row["sched.modulo.pipelined_ratio"] = _ratio(
            counts.get("sched.modulo.pipelined", 0),
            counts.get("sched.modulo.attempted", 0))
        row["machine.simulate.ns_per_instr"] = 1e9 * _ratio(
            row["machine.simulate.self_s"],
            row["machine.simulate.instructions"])
        hits = counters["repro_fastsim_code_cache_hits_total"]
        row["machine.codegen.cache_hit_ratio"] = _ratio(
            hits, hits + counters["repro_fastsim_code_cache_misses_total"])
        hits = counters["repro_fastsim_replay_hits_total"]
        row["machine.replay.hit_ratio"] = _ratio(
            hits, hits + counters["repro_fastsim_replay_misses_total"])
        accounted = sum(row[metric] for metric in tracing.LAYERS.values())
        row["trace.accounted_frac"] = accounted / repeat["sweep_s"]
        if abs(row["trace.accounted_frac"] - 1.0) > ACCOUNTING_TOLERANCE:
            problems.append(
                f"layer self times cover {row['trace.accounted_frac']:.3f}"
                f" of the traced sweep")
        if any(value < 0 for value in selfs.values()):
            problems.append("a span has negative self time")
        rows.append(row)
    metrics = {name: statistics.median(row[name] for row in rows)
               for name, _ in PER_LAYER if name != "trace.overhead_frac"}
    metrics["trace.overhead_frac"] = (
        statistics.median(r["sweep_s"] for r in traced)
        / statistics.median(r["sweep_s"] for r in untraced) - 1.0)
    return metrics, problems


def _write_outputs(args, points: dict, untraced: list[dict],
                   traced: list[dict]) -> Path:
    """Per-point results, so two commits can be compared point by point
    (``diff.py``); timings are per untraced repeat."""
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    path = OUT / f"{stem}.points.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "sweep_s": [r["sweep_s"] for r in untraced],
        "points": {key: {"cycles": r["cycles"],
                         "interlocks": r["interlocks"],
                         "digest": r["digest"],
                         "time_s": [rep["points"][key].get("time_s")
                                    for rep in untraced]}
                   for key, r in sorted(points.items())}},
        indent=1, sort_keys=True))
    if traced:
        (OUT / f"{stem}.spans.json").write_text(
            json.dumps(traced[0]["spans"]))
    return path


def measure(args, work: Path) -> int:
    workers = Workers(args, work)
    untraced: list[dict] = []
    traced: list[dict] = []
    measured = 0.0
    start = time.monotonic()
    while True:
        trace = bool(args.trace) and len(traced) < len(untraced)
        repeat = workers.run(trace=trace)
        (traced if trace else untraced).append(repeat)
        measured += repeat["sweep_s"]
        balanced = not args.trace or len(traced) == len(untraced)
        if balanced and (measured >= args.seconds
                         or time.monotonic() - start > WALL_LIMIT_S):
            break
    repeats = untraced + traced
    setups = [r["setup_s"] for r in repeats]
    while len(setups) < SETUP_SAMPLES:
        setups.append(workers.run(setup_only=True)["setup_s"])

    attempted, failed, messages, points = check_points(repeats)
    problems = []
    if args.trace:
        layer_metrics, problems = per_layer(traced, untraced)
    for message in messages[:20] + problems:
        _log(f"FAIL {message}")
    passed = 1.0 - failed / attempted
    metrics, samples = end_to_end(untraced, setups, points, passed)
    samples["passed_frac"] = f"{attempted - failed}/{attempted} points"
    _log(f"{args.workload} seed={args.seed}: {len(untraced)} untraced, "
         f"{len(traced)} traced repeats")
    for name, unit in END_TO_END:
        _log(f"  {name:<22} {metrics[name]:.6g} {unit}  "
             f"({samples.get(name, 'deterministic')})")
    _log(f"  {'failed_frac':<22} {1.0 - passed:.6g} ratio")
    if args.trace:
        for name, unit in PER_LAYER:
            _log(f"  {name:<34} {layer_metrics[name]:.6g} {unit}")
    path = _write_outputs(args, points, untraced, traced)
    _log(f"per-point results: {path.relative_to(ROOT)}")

    table, reported = ((PER_LAYER, layer_metrics) if args.trace
                       else (END_TO_END, metrics))
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted,
        "failed": failed + len(problems),
        "metrics": {name: {"value": reported[name], "unit": unit}
                    for name, unit in table}}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _log(f"error: no repro sources under {ROOT / 'src'}")
        return 2
    work = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return measure(args, work)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        _log(f"error: {exc}")
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
