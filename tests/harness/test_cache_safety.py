"""Regression tests: cache atomicity, fingerprint path-sensitivity,
and RunResult round-trips (the concurrency-safety bugfixes)."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.harness.experiment import (
    ExperimentRunner,
    RunResult,
    _package_fingerprint,
)
from repro.harness.store import atomic_write_json


@pytest.fixture()
def runner(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    return ExperimentRunner(cache_dir=tmp_path / "cache")


class TestAtomicStore:
    def test_store_leaves_no_temp_files(self, runner):
        result = runner.run("ora", "balanced", "base")
        files = sorted(p for p in runner.cache_dir.rglob("*")
                       if p.is_file())
        assert len(files) == 1
        assert files[0].name.endswith(".json")
        # Entries are sharded: <cache>/<2-hex-digits>/<entry>.json.
        assert files[0].parent.parent == runner.cache_dir
        assert len(files[0].parent.name) == 2
        assert not [p for p in files if p.name.endswith(".tmp")]
        data = json.loads(files[0].read_text())
        assert data["total_cycles"] == result.total_cycles

    def test_atomic_write_replaces_existing(self, tmp_path):
        target = tmp_path / "entry.json"
        target.write_text(json.dumps({"old": True}))
        atomic_write_json(target, {"old": False, "n": 3})
        assert json.loads(target.read_text()) == {"old": False, "n": 3}
        assert list(tmp_path.iterdir()) == [target]

    def test_atomic_write_failure_cleans_temp(self, tmp_path):
        target = tmp_path / "entry.json"
        with pytest.raises(TypeError):
            atomic_write_json(target, {"bad": object()})
        assert list(tmp_path.iterdir()) == []


class TestTornCacheFile:
    def test_truncated_entry_recomputed_not_crashed(self, runner):
        result = runner.run("ora", "balanced", "base")
        (path,) = runner.cache_dir.rglob("ora-*.json")
        full = path.read_text()
        # A torn write: only the first half of the JSON made it out.
        path.write_text(full[:len(full) // 2])
        fresh = ExperimentRunner(cache_dir=runner.cache_dir)
        again = fresh.run("ora", "balanced", "base")
        assert again == result

    def test_truncated_entry_is_refreshed_on_disk(self, runner):
        runner.run("ora", "balanced", "base")
        (path,) = runner.cache_dir.rglob("ora-*.json")
        path.write_text("{\"benchmark\": \"ora\", ")
        fresh = ExperimentRunner(cache_dir=runner.cache_dir)
        fresh.run("ora", "balanced", "base")
        # The torn entry was replaced by a complete one.
        data = json.loads(path.read_text())
        assert data["benchmark"] == "ora"
        assert data["total_cycles"] > 0


class TestCacheRoundTrip:
    def test_store_load_reproduces_every_field(self, runner):
        stored = runner.run("ora", "balanced", "base")
        fresh = ExperimentRunner(cache_dir=runner.cache_dir)
        loaded = fresh.run("ora", "balanced", "base")
        assert loaded is not stored
        for field in dataclasses.fields(RunResult):
            assert getattr(loaded, field.name) == \
                getattr(stored, field.name), field.name
        assert loaded == stored


class TestPackageFingerprint:
    def _tree(self, tmp_path: Path, files: dict[str, str]) -> Path:
        root = tmp_path / "pkg"
        if root.exists():
            for path in root.rglob("*.py"):
                path.unlink()
        for name, body in files.items():
            path = root / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(body)
        return root

    def test_stable_for_identical_tree(self, tmp_path):
        root = self._tree(tmp_path, {"a.py": "x = 1\n", "b.py": "y = 2\n"})
        assert _package_fingerprint(root) == _package_fingerprint(root)

    def test_rename_changes_fingerprint(self, tmp_path):
        before = _package_fingerprint(
            self._tree(tmp_path, {"a.py": "x = 1\n"}))
        after = _package_fingerprint(
            self._tree(tmp_path, {"renamed.py": "x = 1\n"}))
        assert before != after

    def test_moving_code_between_files_changes_fingerprint(self, tmp_path):
        # Same concatenated bytes in sorted order, different split.
        before = _package_fingerprint(self._tree(
            tmp_path, {"a.py": "x = 1\ny = 2\n", "b.py": ""}))
        after = _package_fingerprint(self._tree(
            tmp_path, {"a.py": "x = 1\n", "b.py": "y = 2\n"}))
        assert before != after

    def test_content_change_changes_fingerprint(self, tmp_path):
        before = _package_fingerprint(
            self._tree(tmp_path, {"a.py": "x = 1\n"}))
        after = _package_fingerprint(
            self._tree(tmp_path, {"a.py": "x = 2\n"}))
        assert before != after
