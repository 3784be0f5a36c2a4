"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_experiment_choices(self):
        parser = build_parser()
        args = parser.parse_args(["table1"])
        assert args.command == "table1"
        assert args.scale == "quick"

    def test_scale_flag(self):
        parser = build_parser()
        args = parser.parse_args(["table7", "--scale", "paper"])
        assert args.scale == "paper"

    def test_rejects_unknown_experiment(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["table99"])

    def test_fit_subcommand(self):
        parser = build_parser()
        args = parser.parse_args(
            ["fit", "--data", "x.csv", "--kind", "grouped", "--method", "vb1"]
        )
        assert args.command == "fit"
        assert args.method == "vb1"

    def test_simulate_subcommand(self):
        parser = build_parser()
        args = parser.parse_args(
            ["simulate", "--omega", "40", "--beta", "1e-5", "--horizon", "1e5"]
        )
        assert args.command == "simulate"
        assert args.omega == 40.0


class TestMain:
    def test_table7_runs(self, capsys):
        # Table 7 is VB2-only and fast at small nmax values; patching the
        # default values keeps the test quick.
        import repro.experiments.table67 as table67

        original = table67.DEFAULT_NMAX_VALUES
        table67.DEFAULT_NMAX_VALUES = (50, 100)
        try:
            exit_code = main(["table7"])
        finally:
            table67.DEFAULT_NMAX_VALUES = original
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Table 7" in captured.out
        assert "Pv(nmax)" in captured.out

    def test_figure1_with_csv_export(self, capsys, tmp_path, monkeypatch):
        import repro.experiments.figure1 as figure1_module
        from repro.experiments.config import ExperimentScale
        from repro.bayes.mcmc.chains import ChainSettings

        tiny = ExperimentScale(
            mcmc=ChainSettings(n_samples=300, burn_in=100, thin=1, seed=3),
            nint_resolution=81,
        )
        original_run = figure1_module.run

        def tiny_run(scale=None, **kwargs):
            return original_run(scale=tiny, grid_size=20, scatter_points=200)

        monkeypatch.setattr(figure1_module, "run", tiny_run)
        exit_code = main(["figure1", "--out", str(tmp_path / "fig")])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "CSV written" in captured.out
        assert (tmp_path / "fig" / "figure1_axes.csv").exists()

    def test_all_fits_each_scenario_once(self, capsys, monkeypatch):
        import repro.cli as cli
        import repro.experiments.runner as runner
        from repro.bayes.mcmc.chains import ChainSettings
        from repro.experiments.config import ExperimentScale

        tiny = ExperimentScale(
            mcmc=ChainSettings(n_samples=200, burn_in=50, thin=1, seed=3),
            nint_resolution=41,
            label="tiny",
        )
        monkeypatch.setattr(cli, "QUICK_SCALE", tiny)
        chains = []
        for name in ("gibbs_failure_time", "gibbs_grouped"):
            sampler = getattr(runner, name)

            def counted(data, prior, *args, _sampler=sampler, **kwargs):
                chains.append((type(data).__name__, prior.is_proper))
                return _sampler(data, prior, *args, **kwargs)

            monkeypatch.setattr(runner, name, counted)
        assert main(["all"]) == 0
        out = capsys.readouterr().out
        for title in ("Table 1", "Table 3", "Table 5", "Table 6", "Table 7"):
            assert title in out
        assert sorted(chains) == [
            ("FailureTimeData", False),
            ("FailureTimeData", True),
            ("GroupedData", False),
            ("GroupedData", True),
        ]

    def test_all_with_worker_pool(self, capsys, monkeypatch):
        # Table 1's fits come back from the pool pickled; Figure 1 must
        # still re-evaluate their densities, and the figure must equal
        # the serial run's.
        import repro.cli as cli
        from repro.bayes.mcmc.chains import ChainSettings
        from repro.experiments.config import ExperimentScale

        tiny = ExperimentScale(
            mcmc=ChainSettings(n_samples=200, burn_in=50, thin=1, seed=3),
            nint_resolution=41,
            label="tiny",
        )
        monkeypatch.setattr(cli, "QUICK_SCALE", tiny)
        figures = []
        for workers in ("2", "1"):
            assert main(["all", "--workers", workers]) == 0
            out = capsys.readouterr().out
            figures.append(out[out.index("NINT  (omega"):])
        assert figures[0] == figures[1]

    def test_simulate_then_fit_roundtrip(self, capsys, tmp_path):
        csv_path = tmp_path / "sim.csv"
        exit_code = main(
            ["simulate", "--omega", "60", "--beta", "0.1",
             "--horizon", "30", "--seed", "3", "--out", str(csv_path)]
        )
        assert exit_code == 0
        assert csv_path.exists()
        capsys.readouterr()

        exit_code = main(
            ["fit", "--data", str(csv_path), "--kind", "times",
             "--horizon", "30",
             "--omega-mean", "55", "--omega-std", "25",
             "--beta-mean", "0.1", "--beta-std", "0.06",
             "--predict", "2.0"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "VB2" in captured.out
        assert "omega" in captured.out
        assert "predictive failures" in captured.out

    def test_fit_flat_prior(self, capsys, tmp_path):
        csv_path = tmp_path / "sim.csv"
        main(["simulate", "--omega", "60", "--beta", "0.1",
              "--horizon", "30", "--seed", "4", "--out", str(csv_path)])
        capsys.readouterr()
        exit_code = main(
            ["fit", "--data", str(csv_path), "--horizon", "30",
             "--method", "laplace"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "LAPL" in captured.out

    def test_fit_grouped_csv(self, capsys, tmp_path):
        from repro.data.datasets import system17_grouped
        from repro.data.io import save_grouped_csv

        csv_path = tmp_path / "grouped.csv"
        save_grouped_csv(system17_grouped(), csv_path)
        exit_code = main(
            ["fit", "--data", str(csv_path), "--kind", "grouped",
             "--omega-mean", "50", "--omega-std", "15.8",
             "--beta-mean", "0.033", "--beta-std", "0.011"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "VB2" in captured.out
        assert "Cov(omega, beta)" in captured.out

    def test_fit_partial_prior_rejected(self, capsys, tmp_path):
        csv_path = tmp_path / "sim.csv"
        main(["simulate", "--omega", "60", "--beta", "0.1",
              "--horizon", "30", "--out", str(csv_path)])
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["fit", "--data", str(csv_path), "--omega-mean", "50"])

    @pytest.mark.parametrize("method", ["laplace", "vb2"])
    def test_fit_library_error_is_one_line(self, tmp_path, method):
        # NTDS under flat priors at alpha0 = 0.5: LAPL finds no interior
        # mode and VB2 hits its truncation ceiling. Each is a typed
        # library error, reported as one `error:` line.
        from repro.data.datasets import ntds_failure_times
        from repro.data.io import save_failure_times_csv

        csv_path = tmp_path / "ntds.csv"
        save_failure_times_csv(ntds_failure_times(), csv_path)
        with pytest.raises(SystemExit) as info:
            main(["fit", "--data", str(csv_path), "--kind", "times",
                  "--method", method, "--alpha0", "0.5"])
        message = str(info.value.code)
        assert message.startswith("error: ")
        assert "\n" not in message


class TestCacheCommands:
    def _simulate(self, tmp_path, capsys):
        csv_path = tmp_path / "sim.csv"
        main(["simulate", "--omega", "60", "--beta", "0.1",
              "--horizon", "30", "--seed", "3", "--out", str(csv_path)])
        capsys.readouterr()
        return csv_path

    def _fit_args(self, csv_path, cache_dir):
        return ["fit", "--data", str(csv_path), "--kind", "times",
                "--horizon", "30",
                "--omega-mean", "55", "--omega-std", "25",
                "--beta-mean", "0.1", "--beta-std", "0.06",
                "--cache-dir", str(cache_dir)]

    def test_fit_cache_miss_then_hit(self, capsys, tmp_path):
        csv_path = self._simulate(tmp_path, capsys)
        cache_dir = tmp_path / "pcache"

        assert main(self._fit_args(csv_path, cache_dir)) == 0
        first = capsys.readouterr().out
        assert "cache: miss" in first

        assert main(self._fit_args(csv_path, cache_dir)) == 0
        second = capsys.readouterr().out
        assert "cache: hit (disk)" in second
        # identical posterior output, modulo the cache line itself
        strip = lambda out: [l for l in out.splitlines() if "cache:" not in l]
        assert strip(first) == strip(second)

    def test_cache_stats_and_clear(self, capsys, tmp_path):
        import json

        csv_path = self._simulate(tmp_path, capsys)
        cache_dir = tmp_path / "pcache"
        main(self._fit_args(csv_path, cache_dir))
        capsys.readouterr()

        assert main(["cache", "stats", str(cache_dir)]) == 0
        text = capsys.readouterr().out
        assert "1" in text

        assert main(
            ["cache", "stats", str(cache_dir), "--format", "json"]
        ) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 1
        assert stats["disk_bytes"] > 0

        assert main(["cache", "clear", str(cache_dir)]) == 0
        assert "removed 1" in capsys.readouterr().out

    def test_cache_dir_requires_vb_method(self, capsys, tmp_path):
        csv_path = self._simulate(tmp_path, capsys)
        with pytest.raises(SystemExit):
            main(["fit", "--data", str(csv_path), "--horizon", "30",
                  "--method", "laplace", "--cache-dir", str(tmp_path / "c")])
