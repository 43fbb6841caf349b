"""``--configs`` / ``REPRO_CONFIGS`` / ``--jobs`` CLI hygiene.

Bad inputs must exit non-zero with a one-line error, never a
traceback; the message must name the offending value."""

import argparse
import json
import os

import pytest

from repro.__main__ import _resolve_configs, _resolve_jobs, main


def _args(configs):
    return argparse.Namespace(configs=configs)


def test_comma_and_space_separated_forms(monkeypatch):
    monkeypatch.delenv("REPRO_CONFIGS", raising=False)
    assert _resolve_configs(_args(["swp,la+swp"])) == ["swp", "la+swp"]
    assert _resolve_configs(_args(["base", "lu4"])) == ["base", "lu4"]
    assert _resolve_configs(_args(["base,lu4", "swp"])) == \
        ["base", "lu4", "swp"]


def test_duplicates_removed_in_order(monkeypatch):
    monkeypatch.delenv("REPRO_CONFIGS", raising=False)
    assert _resolve_configs(_args(["swp,base,swp"])) == ["swp", "base"]


def test_env_fallback(monkeypatch):
    monkeypatch.setenv("REPRO_CONFIGS", "swp,base")
    assert _resolve_configs(_args(None)) == ["swp", "base"]


def test_flag_overrides_env(monkeypatch):
    monkeypatch.setenv("REPRO_CONFIGS", "base")
    assert _resolve_configs(_args(["swp"])) == ["swp"]


def test_unset_means_no_filter(monkeypatch):
    monkeypatch.delenv("REPRO_CONFIGS", raising=False)
    assert _resolve_configs(_args(None)) is None


def test_unknown_config_rejected(monkeypatch):
    monkeypatch.delenv("REPRO_CONFIGS", raising=False)
    with pytest.raises(SystemExit, match="unknown config"):
        _resolve_configs(_args(["bogus"]))


def test_bench_runs_selected_config(monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.delenv("REPRO_CONFIGS", raising=False)
    assert main(["bench", "ora", "--configs", "swp"]) == 0
    out = capsys.readouterr().out
    assert "swp" in out
    assert "lu4" not in out


def test_tables_skips_uncovered_tables(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.delenv("REPRO_CONFIGS", raising=False)
    # Only static tables are covered by an empty-ish selection.
    assert main(["tables", "1", "4", "--configs", "base"]) == 0
    captured = capsys.readouterr()
    assert "Table 1" in captured.out
    assert "Table 4" not in captured.out
    assert "skipping table(s) [4]" in captured.err


def test_tables_without_numbers_renders_every_selected_table(
        monkeypatch, capsys):
    # No numbers means all tables; "base" alone covers the static 1-3.
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.delenv("REPRO_CONFIGS", raising=False)
    assert main(["tables", "--configs", "base"]) == 0
    captured = capsys.readouterr()
    for number in (1, 2, 3):
        assert f"Table {number}" in captured.out
    assert "skipping table(s) [4, 5, 6, 7, 8, 9, 10]" in captured.err


def test_tables_unknown_number_exits_with_one_liner():
    with pytest.raises(SystemExit) as excinfo:
        main(["tables", "1", "11"])
    message = str(excinfo.value.code)
    assert message.startswith("repro tables: unknown table number(s) 11")
    assert "\n" not in message


def test_resolve_jobs_values(monkeypatch):
    assert _resolve_jobs("4") == 4
    assert _resolve_jobs(2) == 2
    assert _resolve_jobs(0) == (os.cpu_count() or 1)


@pytest.mark.parametrize("bad", ["abc", "1.5", "", None])
def test_resolve_jobs_rejects_non_integers(bad):
    with pytest.raises(SystemExit) as excinfo:
        _resolve_jobs(bad)
    message = str(excinfo.value.code)
    assert "invalid --jobs/REPRO_JOBS" in message
    assert repr(bad) in message
    assert "\n" not in message


def test_resolve_jobs_rejects_negative():
    with pytest.raises(SystemExit, match="must be >= 0"):
        _resolve_jobs(-2)


def test_bench_bad_jobs_flag_exits_with_one_liner(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "ora", "--configs", "base", "--jobs", "abc"])
    assert "invalid --jobs/REPRO_JOBS value 'abc'" in \
        str(excinfo.value.code)


def test_bench_bad_jobs_env_exits_with_one_liner(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "lots")
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "ora", "--configs", "base"])
    assert "invalid --jobs/REPRO_JOBS value 'lots'" in \
        str(excinfo.value.code)


def test_bad_configs_flag_exits_with_one_liner(monkeypatch):
    monkeypatch.delenv("REPRO_CONFIGS", raising=False)
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "ora", "--configs", "nope"])
    message = str(excinfo.value.code)
    assert "unknown config(s): nope" in message
    assert "\n" not in message


def test_bad_configs_env_exits_with_one_liner(monkeypatch):
    monkeypatch.setenv("REPRO_CONFIGS", "bogus,base")
    with pytest.raises(SystemExit, match="unknown config"):
        main(["bench", "ora"])


def test_oracle_bad_budget_exits_with_one_liner():
    with pytest.raises(SystemExit) as excinfo:
        main(["oracle", "ora", "--oracle-budget", "0"])
    message = str(excinfo.value.code)
    assert "--oracle-budget must be > 0" in message
    assert "\n" not in message


def test_oracle_json_is_parseable_on_a_serial_cold_run(monkeypatch,
                                                       capsys):
    # One point computes serially, where the runner's progress line
    # would otherwise land on stdout ahead of the JSON document.
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert main(["oracle", "ora", "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert set(summary["points"]) == {"ora/base"}


def test_profile_unknown_benchmark_exits_with_one_liner():
    with pytest.raises(SystemExit) as excinfo:
        main(["profile", "not-a-benchmark"])
    message = str(excinfo.value.code)
    assert "unknown benchmark 'not-a-benchmark'" in message


def test_obs_diff_missing_file_exits_with_one_liner(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["obs-diff", str(tmp_path / "a.json"),
              str(tmp_path / "b.json")])
    assert str(excinfo.value.code).startswith("repro obs-diff:")


def test_obs_diff_bad_json_exits_with_one_liner(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SystemExit) as excinfo:
        main(["obs-diff", str(bad), str(bad)])
    assert str(excinfo.value.code).startswith("repro obs-diff:")


@pytest.mark.parametrize("threshold", ["nan", "inf", "-0.01"])
def test_obs_diff_bad_threshold_exits_with_one_liner(tmp_path, threshold):
    # A NaN threshold compares false against every delta: without the
    # check a manifest with doubled cycles would pass the gate.
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"runs": [{
        "benchmark": "ora", "scheduler": "balanced", "config": "base",
        "total_cycles": 100}]}))
    slow = tmp_path / "slow.json"
    slow.write_text(json.dumps({"runs": [{
        "benchmark": "ora", "scheduler": "balanced", "config": "base",
        "total_cycles": 200}]}))
    with pytest.raises(SystemExit) as excinfo:
        main(["obs-diff", str(base), str(slow),
              "--threshold", threshold])
    message = str(excinfo.value.code)
    assert message.startswith("repro obs-diff: threshold must be")
    assert "\n" not in message


_BAD_SYNTAX = """
func main() {
  var i : int
  i = 1;
}
"""

_UNDEFINED_NAME = """
func main() {
  var i : int;
  i = k + 1;
}
"""

_DIVIDE_BY_ZERO = """
array A[4] : int;
func main() {
  var i : int;
  A[0] = 0;
  i = 5 / A[0];
  A[1] = i;
}
"""


def _one_liner(argv) -> str:
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    message = str(excinfo.value.code)
    assert "\n" not in message
    return message


@pytest.mark.parametrize("command", ["compile", "run", "profile"])
def test_parse_error_exits_with_one_liner(tmp_path, command):
    path = tmp_path / "bad.lp"
    path.write_text(_BAD_SYNTAX)
    assert _one_liner([command, str(path)]) == (
        f"repro {command}: {path}:4:3: expected ';', found 'i'")


@pytest.mark.parametrize("command", ["compile", "run", "profile"])
def test_semantic_error_exits_with_one_liner(tmp_path, command):
    path = tmp_path / "sem.lp"
    path.write_text(_UNDEFINED_NAME)
    assert _one_liner([command, str(path)]) == (
        f"repro {command}: {path}:4:7: undefined variable 'k'")


@pytest.mark.parametrize("command", ["compile", "run"])
def test_missing_source_exits_with_one_liner(tmp_path, command):
    path = tmp_path / "missing.lp"
    assert _one_liner([command, str(path)]) == (
        f"repro {command}: {path}: No such file or directory")


@pytest.mark.parametrize("command", ["run", "profile"])
def test_simulation_fault_exits_with_one_liner(tmp_path, command):
    path = tmp_path / "div.lp"
    path.write_text(_DIVIDE_BY_ZERO)
    message = _one_liner([command, str(path)])
    assert message.startswith(f"repro {command}: {path}: ")
    assert "division by zero" in message


def test_compile_swp_flag(tmp_path, capsys):
    source = """
array A[64] : float;
func main() {
    var i : int;
    for (i = 0; i < 64; i = i + 1) { A[i] = float(i) * 2.0; }
}
"""
    path = tmp_path / "k.mf"
    path.write_text(source)
    assert main(["compile", str(path), "--swp"]) == 0
    out = capsys.readouterr().out
    assert "HALT" in out
