"""Manifest diffing: regression detection between two runs."""

from __future__ import annotations

import json

import pytest

from repro.obs import diff_manifest_files, diff_manifests
from repro.obs.diff import MIN_INTERLOCK_DELTA


def _manifest(points):
    runs = []
    for (bench, sched, config, cycles, interlock) in points:
        runs.append({
            "benchmark": bench, "scheduler": sched, "config": config,
            "cached": False, "total_cycles": cycles,
            "load_interlock_cycles": interlock,
        })
    return {"version": 2, "runs": runs}


BASE = _manifest([
    ("ear", "balanced", "base", 100_000, 10_000),
    ("ear", "traditional", "base", 120_000, 20_000),
    ("ora", "balanced", "base", 50_000, 500),
])


def test_identical_manifests_are_ok():
    result = diff_manifests(BASE, BASE, threshold=0.02)
    assert result.ok
    assert len(result.deltas) == 3
    assert "no regressions" in result.format()


def test_cycle_regression_flagged():
    new = _manifest([
        ("ear", "balanced", "base", 103_000, 10_000),   # +3%
        ("ear", "traditional", "base", 120_000, 20_000),
        ("ora", "balanced", "base", 50_000, 500),
    ])
    result = diff_manifests(BASE, new, threshold=0.02)
    assert not result.ok
    (delta, reasons), = result.regressed
    assert delta.key == "ear/balanced/base"
    assert "cycles" in reasons[0]
    assert "REGRESSED" in result.format()


def test_improvement_and_within_threshold_ok():
    new = _manifest([
        ("ear", "balanced", "base", 95_000, 9_000),     # improvement
        ("ear", "traditional", "base", 121_000, 20_000),  # +0.8%
        ("ora", "balanced", "base", 50_000, 500),
    ])
    assert diff_manifests(BASE, new, threshold=0.02).ok


def test_interlock_regression_flagged_above_min_delta():
    worse = 10_000 + max(int(10_000 * 0.05), MIN_INTERLOCK_DELTA)
    new = _manifest([
        ("ear", "balanced", "base", 100_000, worse),
        ("ear", "traditional", "base", 120_000, 20_000),
        ("ora", "balanced", "base", 50_000, 500),
    ])
    result = diff_manifests(BASE, new, threshold=0.02)
    assert not result.ok
    (_, reasons), = result.regressed
    assert "load interlocks" in reasons[0]


def test_tiny_absolute_interlock_delta_ignored():
    # +4% relative but only +20 absolute cycles: below the floor.
    new = _manifest([
        ("ear", "balanced", "base", 100_000, 10_000),
        ("ear", "traditional", "base", 120_000, 20_000),
        ("ora", "balanced", "base", 50_000, 520),
    ])
    assert diff_manifests(BASE, new, threshold=0.02).ok


def test_missing_and_new_points_reported_not_fatal():
    new = _manifest([
        ("ear", "balanced", "base", 100_000, 10_000),
        ("alvinn", "balanced", "base", 70_000, 7_000),
    ])
    result = diff_manifests(BASE, new, threshold=0.02)
    assert result.ok
    assert set(result.only_base) == {"ear/traditional/base",
                                     "ora/balanced/base"}
    assert result.only_new == ["alvinn/balanced/base"]
    assert "MISSING" in result.format()
    assert "NEW" in result.format()


def test_old_manifests_without_interlock_field_compare_cycles_only():
    base = {"version": 1, "runs": [{
        "benchmark": "ear", "scheduler": "balanced", "config": "base",
        "cached": True, "total_cycles": 100_000}]}
    result = diff_manifests(base, BASE, threshold=0.02)
    assert result.ok
    assert result.deltas[0].interlock_delta is None


def test_diff_manifest_files(tmp_path):
    base_path = tmp_path / "base.json"
    new_path = tmp_path / "new.json"
    base_path.write_text(json.dumps(BASE))
    new_path.write_text(json.dumps(BASE))
    assert diff_manifest_files(base_path, new_path).ok
    with pytest.raises(OSError):
        diff_manifest_files(tmp_path / "missing.json", new_path)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError):
        diff_manifest_files(bad, new_path)


def test_older_manifests_oracle_sections_are_ignored():
    # Manifests written before the oracle left the sweep path may carry
    # an ``oracle`` section; obs-diff no longer gates it.
    def oracle(gap):
        return {"schema": 1, "budget": "n1000", "totals": {},
                "points": {"ear/base": {"gap_balanced": gap,
                                        "blocks_certified": 5}}}

    base = dict(BASE, version=4, oracle=oracle(1.05))
    new = dict(BASE, version=4, oracle=oracle(1.2))
    result = diff_manifests(base, new)
    assert result.ok
    assert "oracle" not in result.format()


# ------------------------------------------------- analysis gating (v6)
def _analysis_section(**point_over):
    point = {
        "loops": 3, "pairs": 40, "independent": 36, "exact": 4,
        "always": 0, "unknown": 0,
        "max_live_i": 12, "max_live_f": 20, "over_budget_blocks": 0,
    }
    point.update(point_over)
    return {"schema": 1,
            "points": {"ear/balanced": point},
            "totals": {}}


def test_analysis_sections_identical_ok():
    base = dict(BASE, version=6, analysis=_analysis_section())
    new = dict(BASE, version=6, analysis=_analysis_section())
    result = diff_manifests(base, new, threshold=0.0)
    assert result.ok
    assert result.analysis_points == 1
    assert "1 analysis point(s)" in result.format()


def test_analysis_independent_drop_flagged():
    base = dict(BASE, version=6, analysis=_analysis_section())
    new = dict(BASE, version=6,
               analysis=_analysis_section(independent=35, unknown=1))
    result = diff_manifests(base, new)
    assert not result.ok
    assert any("independent pairs dropped 36 -> 35" in r
               for r in result.analysis_regressions)
    assert any("unknown verdicts grew 0 -> 1" in r
               for r in result.analysis_regressions)
    assert "!! analysis:" in result.format()


def test_analysis_over_budget_growth_flagged():
    base = dict(BASE, version=6, analysis=_analysis_section())
    new = dict(BASE, version=6,
               analysis=_analysis_section(over_budget_blocks=2))
    result = diff_manifests(base, new)
    assert any("over-budget blocks grew" in r
               for r in result.analysis_regressions)


def test_analysis_maxlive_growth_threshold():
    base = dict(BASE, version=6, analysis=_analysis_section())
    grown = dict(BASE, version=6,
                 analysis=_analysis_section(max_live_f=21))
    # At threshold 0 any growth is a regression...
    result = diff_manifests(base, grown, threshold=0.0)
    assert any("max_live_f 20 -> 21" in r
               for r in result.analysis_regressions)
    # ...but a 5% growth passes a 10% tolerance.
    assert diff_manifests(base, grown, threshold=0.10).ok
    # Shrinking is never flagged.
    shrunk = dict(BASE, version=6,
                  analysis=_analysis_section(max_live_i=1))
    assert diff_manifests(base, shrunk, threshold=0.0).ok


def test_analysis_point_missing_from_new_flagged():
    base = dict(BASE, version=6, analysis=_analysis_section())
    new = dict(BASE, version=6,
               analysis={"schema": 1, "points": {}, "totals": {}})
    result = diff_manifests(base, new)
    assert any("missing" in r for r in result.analysis_regressions)


def test_manifests_without_analysis_sections_skip_gating():
    result = diff_manifests(BASE, BASE)
    assert result.ok
    assert result.analysis_points == 0
    assert "analysis point" not in result.format()
