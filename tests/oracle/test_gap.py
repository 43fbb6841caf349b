"""Gap driver: analysis payloads, caching, the summary."""

import json

from repro.oracle.gap import (
    GAP_SCHEMA_VERSION,
    OracleBudget,
    OracleRunner,
    analyze_point,
    oracle_summary,
)

#: Small deterministic budget: keeps the suite fast while certifying
#: most of ora's blocks.
BUDGET = OracleBudget(max_nodes=20_000)


def _point(benchmark="ora"):
    return analyze_point(benchmark, "base", budget=BUDGET)


def test_payload_shape_and_validation(tmp_path):
    payload = _point()
    assert payload["schema"] == GAP_SCHEMA_VERSION
    assert payload["validated"] is True
    assert payload["budget"] == BUDGET.tag()
    summary = payload["summary"]
    assert summary["blocks"] > 0
    assert summary["blocks_certified"] + summary["blocks_bailed"] \
        == summary["blocks"]
    assert summary["gap"]["balanced"] >= 1.0
    assert summary["gap"]["traditional"] >= 1.0


def test_per_block_costs_never_beat_the_oracle():
    payload = _point("ear")
    for block in payload["blocks"]:
        for _name, cost in block["heuristics"].items():
            assert block["makespan"] <= cost[0]
            assert block["total"] <= sum(cost)
    # ear's loops include proofs the heuristic could not make.
    assert any(loop["beyond_heuristic"] for loop in payload["loops"])


def test_runner_caches_bit_stable_payloads(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "0")
    first = OracleRunner(cache_dir=tmp_path, budget=BUDGET)
    a = first.run("ora", "base")
    # A fresh runner must hit the disk cache and agree bit-for-bit.
    second = OracleRunner(cache_dir=tmp_path, budget=BUDGET)
    b = second.run("ora", "base")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    key = second._store_key("ora", "base")
    assert second._store.load(key) is not None


def test_budget_is_part_of_the_cache_key(tmp_path):
    lo = OracleRunner(cache_dir=tmp_path, budget=OracleBudget(100))
    hi = OracleRunner(cache_dir=tmp_path,
                      budget=OracleBudget(100_000))
    assert lo._store_key("ora", "base") != hi._store_key("ora", "base")
    assert "@n100" in lo._store_key("ora", "base").config


def test_sweep_covers_the_grid(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "0")
    runner = OracleRunner(cache_dir=tmp_path, budget=BUDGET)
    payloads = runner.sweep(benchmarks=["ora", "ear"],
                            configs=["base"])
    assert [p["benchmark"] for p in payloads] == ["ora", "ear"]
    summary = oracle_summary(payloads)
    assert set(summary["points"]) == {"ora/base", "ear/base"}
    totals = summary["totals"]
    assert totals["blocks"] == sum(p["summary"]["blocks"]
                                   for p in payloads)

