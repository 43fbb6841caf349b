"""Report generator against a stub runner."""

from repro.harness.report import HEADLINE_METRICS, build_report, write_report
from tests.harness.test_tables import StubRunner


def test_headline_metrics_cover_the_paper_claims():
    names = [m.name for m in HEADLINE_METRICS]
    assert any("no optimizations" in n for n in names)
    assert any("LU8" in n for n in names)
    assert any("locality" in n for n in names)
    assert any("load-interlock" in n for n in names)
    assert len(HEADLINE_METRICS) >= 10


def test_build_report_renders_markdown():
    text = build_report(StubRunner())
    assert text.startswith("# Reproduction report")
    assert "| Metric | Paper | Measured | Verdict |" in text
    # One row per metric plus header rows.
    assert text.count("| ") >= len(HEADLINE_METRICS)
    assert "headline" in text


def test_verdicts_are_close_or_deviates():
    text = build_report(StubRunner())
    for line in text.splitlines():
        if line.startswith("| BS"):
            assert "close" in line or "deviates" in line


def test_write_report(tmp_path):
    path = tmp_path / "report.md"
    text = write_report(path, StubRunner())
    assert path.read_text().strip() == text.strip()


def test_report_includes_swp_section():
    text = build_report(StubRunner())
    assert "## Software pipelining" in text
    # Stub loops all satisfy II <= 2*MII (ii=9, mii=8).
    assert "II <= 2*MII" in text
    assert "Geomean speedup of `swp`" in text


def test_configs_filter_drops_unselected_metrics():
    text = build_report(StubRunner(), configs=["base", "lu4"])
    assert "BS vs TS, LU4" in text
    assert "BS vs TS, LU8" not in text
    assert "## Software pipelining" not in text


def test_configs_filter_keeps_swp_section_when_selected():
    text = build_report(StubRunner(),
                        configs=["base", "lu4", "swp", "la+swp"])
    assert "## Software pipelining" in text


def test_swp_section_flags_contract_violations():
    from repro.harness.report import swp_section

    class BadRunner(StubRunner):
        def run(self, benchmark, scheduler, config):
            result = super().run(benchmark, scheduler, config)
            for loop in result.swp_loops:
                if loop["pipelined"]:
                    loop["ii"] = 3 * loop["mii"]
            return result

    lines = swp_section(BadRunner())
    assert any("contract broken" in line for line in lines)


def test_every_geomean_line_carries_coverage():
    import re

    text = build_report(StubRunner())
    geomeans = [line for line in text.splitlines()
                if "Geomean" in line]
    assert geomeans
    for line in geomeans:
        assert re.search(r"\(n=\d+/\d+\)", line), line
