"""The committed seed manifest gates a fresh sweep of its grid.

``benchmarks/seed-manifest.json`` is the one committed cycle baseline:
``ora``/``ear`` x ``base``/``lu4`` x both schedulers.  A fresh sweep of
that grid must match it point for point (the simulator is
deterministic), and ``obs-diff`` must reject a manifest whose cycles
doubled.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.harness import ExperimentRunner
from repro.obs import diff_manifest_files, diff_manifests

SEED = Path(__file__).resolve().parents[2] / "benchmarks" / \
    "seed-manifest.json"

GRID = {f"{benchmark}/{scheduler}/{config}"
        for benchmark in ("ora", "ear")
        for scheduler in ("balanced", "traditional")
        for config in ("base", "lu4")}


def test_seed_manifest_gates_fresh_sweep(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    seed = json.loads(SEED.read_text())
    assert {f"{r['benchmark']}/{r['scheduler']}/{r['config']}"
            for r in seed["runs"]} == GRID

    runner = ExperimentRunner(cache_dir=tmp_path / "cache")
    runner.sweep(benchmarks=["ora", "ear"], configs=["base", "lu4"])
    result = diff_manifest_files(SEED, runner.manifest_path)
    assert result.ok, result.format()
    assert {delta.key for delta in result.deltas} == GRID
    assert not result.only_base and not result.only_new
    assert all(delta.new_cycles == delta.base_cycles
               for delta in result.deltas), result.format()

    slow = json.loads(runner.manifest_path.read_text())
    for run in slow["runs"]:
        run["total_cycles"] *= 2
    assert not diff_manifests(seed, slow).ok
