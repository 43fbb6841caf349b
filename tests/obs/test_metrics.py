"""The metrics registry: counters, snapshots, merge.

The load-bearing property is *exact cross-process merge*: counters are
plain ints, worker deltas fold into the parent by integer addition,
and the folded totals equal the sum — no float drift, ever.  Proven
here both in-process and across a real ProcessPoolExecutor.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.obs.metrics import MetricsRegistry


# ------------------------------------------------------------ counters
def test_counter_inc_and_labels():
    registry = MetricsRegistry()
    family = registry.counter("hits_total", "hits")
    family.inc()
    family.inc(4)
    assert family.value == 5
    family.labels(kind="a").inc(2)
    family.labels(kind="b").inc(3)
    assert family.labels(kind="a").value == 2
    assert family.labels(kind="b").value == 3
    # The unlabeled child is distinct from every labeled one.
    assert family.value == 5


def test_counter_rejects_negative():
    registry = MetricsRegistry()
    with pytest.raises(ValueError, match="cannot decrease"):
        registry.counter("c_total").inc(-1)


def test_registering_same_name_returns_same_family():
    registry = MetricsRegistry()
    assert registry.counter("x_total") is registry.counter("x_total")


# ----------------------------------------------------- snapshot / merge
def _bump(registry: MetricsRegistry) -> None:
    registry.counter("ops_total").labels(op="a").inc(3)
    registry.counter("ops_total").labels(op="b").inc(1)
    registry.counter("runs_total").inc()


def test_snapshot_is_json_roundtrippable():
    registry = MetricsRegistry()
    _bump(registry)
    snap = json.loads(json.dumps(registry.snapshot()))
    other = MetricsRegistry()
    other.merge(snap)
    assert other.snapshot() == registry.snapshot()


def test_merge_adds_counters_exactly():
    parent = MetricsRegistry()
    _bump(parent)
    child = MetricsRegistry()
    _bump(child)
    _bump(child)
    parent.merge(child.snapshot())
    assert parent.counter("ops_total").labels(op="a").value == 9
    assert parent.counter("ops_total").labels(op="b").value == 3
    assert parent.counter("runs_total").value == 3


def test_merge_rejects_unknown_kind():
    for kind in ("gauge", "histogram"):
        snapshot = MetricsRegistry().snapshot()
        snapshot["families"]["depth"] = {"kind": kind,
                                         "children": {"": 4}}
        with pytest.raises(ValueError, match="'depth'.*unknown kind"):
            MetricsRegistry().merge(snapshot)


def test_snapshot_and_reset_yields_deltas():
    registry = MetricsRegistry()
    _bump(registry)
    first = registry.snapshot_and_reset()
    assert first["families"]["ops_total"]["children"]
    # After the reset the next frame is empty: folding both frames
    # into a parent counts everything exactly once.
    _bump(registry)
    second = registry.snapshot_and_reset()
    parent = MetricsRegistry()
    parent.merge(first)
    parent.merge(second)
    assert parent.counter("ops_total").labels(op="a").value == 6


def test_summary_lists_bumped_counters_by_label():
    registry = MetricsRegistry()
    registry.counter("idle_total")
    _bump(registry)
    assert registry.summary() == {
        "ops_total": {'op="a"': 3, 'op="b"': 1},
        "runs_total": {"_": 1},
    }


# ------------------------------------------------- cross-process merge
def _worker_frame(worker: int, rounds: int) -> dict:
    """One worker's delta frame (module-level: must pickle)."""
    registry = MetricsRegistry()
    ops = registry.counter("w_ops_total")
    for i in range(rounds):
        ops.labels(worker=str(worker % 2)).inc(i + 1)
    return registry.snapshot_and_reset()


def test_cross_process_merge_is_exact():
    """N real pool workers bump labeled counters; the folded totals
    equal the arithmetic sum and stay exact ints."""
    workers, rounds = 6, 50
    with ProcessPoolExecutor(max_workers=3) as pool:
        frames = list(pool.map(_worker_frame, range(workers),
                               [rounds] * workers))
    parent = MetricsRegistry()
    for frame in frames:
        parent.merge(frame)
    per_worker = rounds * (rounds + 1) // 2
    total = parent.counter("w_ops_total")
    assert total.labels(worker="0").value == 3 * per_worker
    assert total.labels(worker="1").value == 3 * per_worker
    assert all(isinstance(child.value, int)
               for child in total.children().values())
