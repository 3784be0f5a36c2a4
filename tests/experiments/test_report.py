"""Tests for the EXPERIMENTS.md report generator."""

import pytest

from repro.bayes.mcmc.chains import ChainSettings
from repro.experiments import runner, table1, table45
from repro.experiments.config import ExperimentScale
from repro.experiments.report import (
    PAPER_TABLE1_DEVIATIONS,
    PAPER_TABLE6,
    build_report,
)

TINY = ExperimentScale(
    mcmc=ChainSettings(n_samples=600, burn_in=200, thin=1, seed=8),
    nint_resolution=81,
    label="tiny",
)


@pytest.fixture(scope="module")
def report_text():
    return build_report(scale=TINY, table7_nmax=(50, 100))


class TestPaperReferenceData:
    def test_scenarios_covered(self):
        assert set(PAPER_TABLE1_DEVIATIONS) == {"DT-Info", "DG-Info", "DT-NoInfo"}
        for rows in PAPER_TABLE1_DEVIATIONS.values():
            assert set(rows) == {"LAPL", "MCMC", "VB1", "VB2"}
            for deviations in rows.values():
                assert len(deviations) == 5

    def test_paper_variate_counts(self):
        assert PAPER_TABLE6["DT-Info"][0] == 630_000
        assert PAPER_TABLE6["DG-Info"][0] == 8_610_000


class TestBuildReport:
    def test_all_sections_present(self, report_text):
        for heading in (
            "# EXPERIMENTS",
            "## Table 1",
            "## Tables 2–3",
            "## Tables 4–5",
            "## Tables 6–7",
            "## Figure 1",
            "## DG-NoInfo",
        ):
            assert heading in report_text

    def test_paper_vs_ours_cells(self, report_text):
        # Every Table 1 cell pairs a paper value with a measured one.
        assert "% / " in report_text
        # Known paper values appear verbatim.
        assert "+100.0%" in report_text  # VB1's covariance deviation
        assert "630,000" in report_text

    def test_markdown_tables_well_formed(self, report_text):
        lines = report_text.splitlines()
        for i, line in enumerate(lines):
            if line.startswith("|") and set(line) <= {"|", "-", " "}:
                header = lines[i - 1]
                assert header.count("|") == line.count("|"), (
                    f"separator mismatch near line {i}"
                )

    def test_substitution_caveat_stated(self, report_text):
        assert "synthetic analogue" in report_text


def _counting(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((name, args, kwargs, result))
        return result

    monkeypatch.setattr(module, name, wrapper)


class TestEachPosteriorOnce:
    def test_one_chain_per_scenario_and_shared_results(self, monkeypatch):
        chains, tables, reliability = [], [], []
        _counting(monkeypatch, runner, "gibbs_failure_time", chains)
        _counting(monkeypatch, runner, "gibbs_grouped", chains)
        _counting(monkeypatch, table1, "run", tables)
        _counting(monkeypatch, table45, "run", reliability)

        build_report(scale=TINY, table7_nmax=(50,))
        assert len(chains) == 4
        assert len(tables) == 1
        results = tables[0][3]
        assert [call[1][0] for call in reliability] == ["DT", "DG"]
        for _, (view,), _, (result, _) in reliability:
            assert result is results[f"{view}-Info"]

        # No memo across calls: a second report refits every scenario.
        build_report(scale=TINY, table7_nmax=(50,))
        assert len(chains) == 8
