"""Tests for the experiment harness (scenarios, runner, tables, figure)."""

import numpy as np
import pytest

from repro.bayes.mcmc.chains import ChainSettings
from repro.experiments import figure1, table1, table23, table45, table67
from repro.experiments.config import (
    ExperimentScale,
    PAPER_SCALE,
    QUICK_SCALE,
    paper_scenarios,
)
from repro.experiments.runner import METHOD_ORDER, run_all_methods


TINY_SCALE = ExperimentScale(
    mcmc=ChainSettings(n_samples=800, burn_in=300, thin=1, seed=4),
    nint_resolution=81,
    label="tiny",
)


@pytest.fixture(scope="module")
def dt_info_results():
    return run_all_methods(paper_scenarios()["DT-Info"], scale=TINY_SCALE)


class TestScenarios:
    def test_four_scenarios(self):
        scenarios = paper_scenarios()
        assert set(scenarios) == {"DT-Info", "DT-NoInfo", "DG-Info", "DG-NoInfo"}

    def test_info_priors_match_paper(self):
        scenario = paper_scenarios()["DT-Info"]
        prior = scenario.prior()
        assert prior.omega.mean == pytest.approx(50.0)
        assert prior.omega.std == pytest.approx(15.8)
        assert prior.beta.mean == pytest.approx(1.0e-5)
        grouped = paper_scenarios()["DG-Info"].prior()
        assert grouped.beta.mean == pytest.approx(3.3e-2)

    def test_noinfo_priors_flat(self):
        prior = paper_scenarios()["DT-NoInfo"].prior()
        assert not prior.is_proper

    def test_reliability_windows(self):
        scenarios = paper_scenarios()
        assert scenarios["DT-Info"].reliability_windows == (1000.0, 10000.0)
        assert scenarios["DG-Info"].reliability_windows == (1.0, 5.0)

    def test_is_grouped_flag(self):
        scenarios = paper_scenarios()
        assert scenarios["DG-Info"].is_grouped
        assert not scenarios["DT-Info"].is_grouped

    def test_paper_scale_matches_paper_schedule(self):
        assert PAPER_SCALE.mcmc.n_samples == 20_000
        assert PAPER_SCALE.mcmc.burn_in == 10_000
        assert PAPER_SCALE.mcmc.thin == 10


class TestRunner:
    def test_all_methods_present_in_order(self, dt_info_results):
        assert tuple(dt_info_results.posteriors) == METHOD_ORDER

    def test_timings_recorded(self, dt_info_results):
        assert set(dt_info_results.seconds) == set(METHOD_ORDER)
        assert all(t >= 0.0 for t in dt_info_results.seconds.values())

    def test_vb2_cost_recorded(self, dt_info_results):
        # The VB2-vs-MCMC cost claim is asserted at realistic scale in
        # benchmarks/bench_table6.py / bench_table7.py; at this test's
        # tiny MCMC schedule the comparison would be noise.
        assert dt_info_results.seconds["VB2"] > 0.0

    def test_moments_table_structure(self, dt_info_results):
        moments = dt_info_results.moments()
        assert set(moments) == set(METHOD_ORDER)
        for row in moments.values():
            assert set(row) == set(table1.QUANTITIES)

    def test_method_subset(self):
        results = run_all_methods(
            paper_scenarios()["DT-Info"], scale=TINY_SCALE, methods=("VB2", "VB1")
        )
        assert tuple(results.posteriors) == ("VB1", "VB2")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            run_all_methods(
                paper_scenarios()["DT-Info"], scale=TINY_SCALE, methods=("XYZ",)
            )


class TestTableRendering:
    def test_table1_render(self, dt_info_results):
        text = table1.render({"DT-Info": dt_info_results})
        assert "Table 1" in text
        assert "NINT" in text and "VB2" in text
        assert "%" in text  # relative deviations present

    def test_table23_interval_summary(self, dt_info_results):
        summary = table23.interval_summary(dt_info_results)
        for method, values in summary.items():
            assert values["omega_lower"] < values["omega_upper"]
            if method != "LAPL":
                assert values["beta_lower"] > 0.0

    def test_table23_render(self, dt_info_results):
        text = table23.render({"DT-Info": dt_info_results}, table_number=2)
        assert "Table 2" in text

    def test_table23_view_validation(self):
        with pytest.raises(ValueError):
            table23.run("DX")

    def test_table45_rows(self):
        _, rows = table45.run("DT", scale=TINY_SCALE)
        assert len(rows) == 2 * len(METHOD_ORDER)
        for row in rows:
            assert row.lower < row.point
        text = table45.render(rows, table_number=4, unit="s")
        assert "reliability" in text

    def test_table67_runs(self):
        tiny_mcmc = ExperimentScale(
            mcmc=ChainSettings(n_samples=200, burn_in=100, thin=1, seed=5),
            nint_resolution=81,
        )
        rows6 = table67.run_table6(scale=tiny_mcmc)
        assert len(rows6) == 2
        assert rows6[0].variate_count == 3 * tiny_mcmc.mcmc.total_iterations
        rows7 = table67.run_table7(nmax_values=(100, 200))
        assert len(rows7) == 4
        # Tail mass decreases with nmax for each scenario.
        assert rows7[1].tail_mass < rows7[0].tail_mass
        text6 = table67.render_table6(rows6)
        text7 = table67.render_table7(rows7)
        assert "MCMC" in text6
        assert "VB2" in text7


class TestSharedResults:
    """Runners given fits made elsewhere (Table 1's) use them as they are."""

    def test_table45_uses_given_results(self, dt_info_results):
        shared = {"DT-Info": dt_info_results}
        result, rows = table45.run("DT", scale=TINY_SCALE, results=shared)
        assert result is dt_info_results
        assert rows == table45.run("DT", scale=TINY_SCALE)[1]

    def test_table6_rows_read_recorded_mcmc_cost(self, dt_info_results):
        shared = {"DT-Info": dt_info_results, "DG-Info": dt_info_results}
        rows = table67.table6_rows(shared)
        assert [row.scenario for row in rows] == ["DT-Info", "DG-Info"]
        assert rows[0].variate_count == 3 * TINY_SCALE.mcmc.total_iterations
        assert rows[0].seconds == dt_info_results.seconds["MCMC"]

    def test_wrong_scale_rejected(self, dt_info_results):
        shared = {"DT-Info": dt_info_results}
        with pytest.raises(ValueError, match="requested"):
            table45.run("DT", scale=QUICK_SCALE, results=shared)

    def test_missing_scenario_rejected(self, dt_info_results):
        shared = {"DT-Info": dt_info_results}
        with pytest.raises(ValueError, match="DT-NoInfo"):
            table23.run("DT", scale=TINY_SCALE, results=shared)
        with pytest.raises(ValueError, match="DG-Info"):
            table45.run("DG", scale=TINY_SCALE, results=shared)
        with pytest.raises(ValueError, match="DG-Info"):
            table67.table6_rows(shared)
        with pytest.raises(ValueError, match="DG-Info"):
            figure1.run(scale=TINY_SCALE, results=shared)


class TestFigure1:
    def test_figure_data(self, tmp_path):
        figure = figure1.run(scale=TINY_SCALE, grid_size=24, scatter_points=500)
        assert set(figure.densities) == {"NINT", "LAPL", "VB1", "VB2"}
        for density in figure.densities.values():
            assert density.shape == (24, 24)
            assert np.all(density >= 0.0)
        assert figure.mcmc_scatter.shape == (500, 2)
        text = figure1.render_ascii(figure, width=30, height=10)
        assert "NINT" in text and "VB2" in text
        paths = figure1.save_csv(figure, tmp_path)
        assert all(p.exists() for p in paths)
