"""Manifest diffing: catch silent cycle regressions between runs.

``repro bench``/``tables``/``report`` write a JSON *run manifest*
(per-grid-point cycle counts, interlock cycles and timings) next to
the result cache.  :func:`diff_manifests` compares two manifests point
by point and flags any benchmark whose total cycles or load-interlock
cycles regressed beyond a relative threshold — the check CI runs
against the committed seed manifest so a scheduling change can't
silently cost cycles.

The simulator is deterministic, so under an unchanged compiler the
expected delta is exactly zero; the threshold only gives intentional
changes a way to land with a documented tolerance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

#: Interlock deltas below this many cycles are never flagged (tiny
#: benchmarks would otherwise trip the relative threshold on noise-
#: level absolute changes).
MIN_INTERLOCK_DELTA = 50

#: Heuristic-gap increases below this absolute amount are never
#: flagged (a 1.0001 -> 1.0003 wiggle is not a scheduling regression).
MIN_GAP_DELTA = 0.005


@dataclass
class PointDelta:
    """One grid point present in both manifests."""

    benchmark: str
    scheduler: str
    config: str
    base_cycles: int
    new_cycles: int
    base_load_interlock: Optional[int] = None
    new_load_interlock: Optional[int] = None

    @property
    def cycle_delta(self) -> float:
        """Relative cycle change (+ = regression)."""
        if not self.base_cycles:
            return 0.0
        return (self.new_cycles - self.base_cycles) / self.base_cycles

    @property
    def interlock_delta(self) -> Optional[float]:
        if self.base_load_interlock is None \
                or self.new_load_interlock is None:
            return None
        base = self.base_load_interlock
        if not base:
            return 0.0 if not self.new_load_interlock else float("inf")
        return (self.new_load_interlock - base) / base

    def regressions(self, threshold: float) -> list[str]:
        out = []
        if self.cycle_delta > threshold:
            out.append(f"cycles +{100 * self.cycle_delta:.2f}% "
                       f"({self.base_cycles} -> {self.new_cycles})")
        idelta = self.interlock_delta
        if idelta is not None and idelta > threshold and \
                (self.new_load_interlock - self.base_load_interlock
                 ) >= MIN_INTERLOCK_DELTA:
            out.append(
                f"load interlocks +{100 * idelta:.2f}% "
                f"({self.base_load_interlock} -> "
                f"{self.new_load_interlock})")
        return out

    @property
    def key(self) -> str:
        return f"{self.benchmark}/{self.scheduler}/{self.config}"


@dataclass
class DiffResult:
    """Outcome of comparing two run manifests."""

    threshold: float
    deltas: list[PointDelta] = field(default_factory=list)
    only_base: list[str] = field(default_factory=list)
    only_new: list[str] = field(default_factory=list)
    #: Heuristic-gap regressions from the manifests' ``oracle``
    #: sections (manifest v4); empty when either side lacks one.
    oracle_regressions: list[str] = field(default_factory=list)
    oracle_points: int = 0
    #: Dependence/pressure regressions from the manifests' ``analysis``
    #: sections (manifest v6); empty when either side lacks one.
    analysis_regressions: list[str] = field(default_factory=list)
    analysis_points: int = 0

    @property
    def regressed(self) -> list[tuple[PointDelta, list[str]]]:
        out = []
        for delta in self.deltas:
            reasons = delta.regressions(self.threshold)
            if reasons:
                out.append((delta, reasons))
        return out

    @property
    def ok(self) -> bool:
        return not self.regressed and not self.oracle_regressions \
            and not self.analysis_regressions

    def format(self) -> str:
        lines = [f"compared {len(self.deltas)} grid point(s), "
                 f"threshold {100 * self.threshold:.2f}%"]
        if self.oracle_points:
            lines[0] += f" (+ {self.oracle_points} oracle point(s))"
        if self.analysis_points:
            lines[0] += (f" (+ {self.analysis_points} analysis "
                         f"point(s))")
        for delta in self.deltas:
            mark = "REGRESSED" if delta.regressions(self.threshold) \
                else "ok"
            interlock = ""
            if delta.interlock_delta is not None:
                interlock = (f"  ld-intlk {delta.base_load_interlock}"
                             f" -> {delta.new_load_interlock}")
            lines.append(
                f"  {mark:<9} {delta.key:<36} cycles "
                f"{delta.base_cycles} -> {delta.new_cycles} "
                f"({100 * delta.cycle_delta:+.2f}%){interlock}")
        for key in self.only_base:
            lines.append(f"  MISSING   {key:<36} only in base manifest")
        for key in self.only_new:
            lines.append(f"  NEW       {key:<36} only in new manifest")
        for delta, reasons in self.regressed:
            for reason in reasons:
                lines.append(f"  !! {delta.key}: {reason}")
        for reason in self.oracle_regressions:
            lines.append(f"  !! oracle: {reason}")
        for reason in self.analysis_regressions:
            lines.append(f"  !! analysis: {reason}")
        if self.ok:
            lines.append("no regressions")
        return "\n".join(lines)


def _index_runs(manifest: dict) -> dict[str, dict]:
    runs = {}
    for entry in manifest.get("runs", []):
        key = (f"{entry['benchmark']}/{entry['scheduler']}/"
               f"{entry['config']}")
        runs[key] = entry
    return runs


def _diff_oracle(base: dict, new: dict,
                 threshold: float) -> tuple[list[str], int]:
    """Gate the heuristic-gap sections of two v4 manifests.

    Flags, per oracle point present in the baseline: a balanced or
    traditional gap that grew beyond the relative threshold (the
    heuristic drifted away from the certified optimum), any drop in
    certified blocks/loops (lost proving power — usually a budget or
    encoding change), and lost beyond-heuristic loop proofs.
    """
    reasons: list[str] = []
    base_points = base.get("points", {})
    new_points = new.get("points", {})
    for key, b in sorted(base_points.items()):
        n = new_points.get(key)
        if n is None:
            reasons.append(f"{key} missing from new manifest")
            continue
        for name in ("gap_balanced", "gap_traditional"):
            delta = n.get(name, 0.0) - b.get(name, 0.0)
            if b.get(name) and delta > MIN_GAP_DELTA \
                    and delta / b[name] > threshold:
                reasons.append(
                    f"{key}: {name} {b[name]} -> {n[name]}")
        for name in ("blocks_certified", "loops_certified",
                     "loops_beyond_heuristic"):
            if n.get(name, 0) < b.get(name, 0):
                reasons.append(
                    f"{key}: {name} dropped "
                    f"{b.get(name, 0)} -> {n.get(name, 0)}")
    return reasons, len(base_points)


def _diff_analysis(base: dict, new: dict,
                   threshold: float) -> tuple[list[str], int]:
    """Gate the dependence/pressure sections of two v6 manifests.

    Flags, per analysis point present in the baseline: lost proving
    power (fewer independent pairs or more unknown verdicts — the
    analyzer got weaker), more over-budget blocks, and per-bank
    MAXLIVE growth beyond the relative threshold (a scheduling change
    quietly costing registers).
    """
    reasons: list[str] = []
    base_points = base.get("points", {})
    new_points = new.get("points", {})
    for key, b in sorted(base_points.items()):
        n = new_points.get(key)
        if n is None:
            reasons.append(f"{key} missing from new manifest")
            continue
        if n.get("independent", 0) < b.get("independent", 0):
            reasons.append(
                f"{key}: independent pairs dropped "
                f"{b.get('independent', 0)} -> "
                f"{n.get('independent', 0)}")
        if n.get("unknown", 0) > b.get("unknown", 0):
            reasons.append(
                f"{key}: unknown verdicts grew "
                f"{b.get('unknown', 0)} -> {n.get('unknown', 0)}")
        if n.get("over_budget_blocks", 0) > \
                b.get("over_budget_blocks", 0):
            reasons.append(
                f"{key}: over-budget blocks grew "
                f"{b.get('over_budget_blocks', 0)} -> "
                f"{n.get('over_budget_blocks', 0)}")
        for name in ("max_live_i", "max_live_f"):
            delta = n.get(name, 0) - b.get(name, 0)
            if delta > 0 and (not b.get(name)
                              or delta / b[name] > threshold):
                reasons.append(
                    f"{key}: {name} {b.get(name, 0)} -> "
                    f"{n.get(name, 0)}")
    return reasons, len(base_points)


def diff_manifests(base: dict, new: dict,
                   threshold: float = 0.02) -> DiffResult:
    """Compare two run-manifest dicts; see the module docstring.

    A negative or non-finite *threshold* is a ``ValueError``: NaN would
    compare false against every delta and pass any regression.
    """
    if not math.isfinite(threshold) or threshold < 0:
        raise ValueError(f"threshold must be a finite number >= 0, "
                         f"got {threshold}")
    base_runs = _index_runs(base)
    new_runs = _index_runs(new)
    result = DiffResult(threshold=threshold)
    if base.get("oracle") and new.get("oracle"):
        result.oracle_regressions, result.oracle_points = _diff_oracle(
            base["oracle"], new["oracle"], threshold)
    if base.get("analysis") and new.get("analysis"):
        result.analysis_regressions, result.analysis_points = \
            _diff_analysis(base["analysis"], new["analysis"], threshold)
    for key, base_entry in base_runs.items():
        new_entry = new_runs.get(key)
        if new_entry is None:
            result.only_base.append(key)
            continue
        result.deltas.append(PointDelta(
            benchmark=base_entry["benchmark"],
            scheduler=base_entry["scheduler"],
            config=base_entry["config"],
            base_cycles=base_entry.get("total_cycles", 0),
            new_cycles=new_entry.get("total_cycles", 0),
            base_load_interlock=base_entry.get("load_interlock_cycles"),
            new_load_interlock=new_entry.get("load_interlock_cycles")))
    result.only_new.extend(k for k in new_runs if k not in base_runs)
    return result


def diff_manifest_files(base_path: str | Path, new_path: str | Path,
                        threshold: float = 0.02) -> DiffResult:
    """Load two manifest files and diff them.

    Raises ``OSError`` / ``json.JSONDecodeError`` for unreadable input;
    the CLI converts those into one-line errors.
    """
    base = json.loads(Path(base_path).read_text())
    new = json.loads(Path(new_path).read_text())
    return diff_manifests(base, new, threshold=threshold)
