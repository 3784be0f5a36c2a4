"""Tests for the VB mixture posterior object."""

import numpy as np
import pytest

from repro.core.posterior import VBPosterior
from repro.core.reliability import reliability_increment
from repro.stats.gamma_dist import GammaDistribution


def small_mixture():
    return VBPosterior(
        n_values=[40, 41],
        weights=[0.25, 0.75],
        omega_components=[GammaDistribution(40.0, 1.0), GammaDistribution(41.0, 1.0)],
        beta_components=[GammaDistribution(38.0, 4e6), GammaDistribution(39.0, 4.2e6)],
    )


class TestConstruction:
    def test_weights_normalised(self):
        posterior = small_mixture()
        assert posterior.weights.sum() == pytest.approx(1.0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            VBPosterior(
                n_values=[1],
                weights=[0.5, 0.5],
                omega_components=[GammaDistribution(1.0, 1.0)],
                beta_components=[GammaDistribution(1.0, 1.0)],
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            VBPosterior([], [], [], [])

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            VBPosterior(
                n_values=[1],
                weights=[0.0],
                omega_components=[GammaDistribution(1.0, 1.0)],
                beta_components=[GammaDistribution(1.0, 1.0)],
            )


class TestMoments:
    def test_mean_is_weight_average_of_component_means(self):
        posterior = small_mixture()
        expected = 0.25 * 40.0 + 0.75 * 41.0
        assert posterior.mean("omega") == pytest.approx(expected)

    def test_cross_moment_uses_conditional_independence(self):
        posterior = small_mixture()
        expected = 0.25 * 40.0 * (38.0 / 4e6) + 0.75 * 41.0 * (39.0 / 4.2e6)
        assert posterior.cross_moment() == pytest.approx(expected, rel=1e-12)

    def test_mixing_induces_negative_covariance(self, vb2_times):
        # For the real fit: larger N goes with smaller beta.
        assert vb2_times.covariance() < 0.0

    def test_invalid_param_name(self):
        posterior = small_mixture()
        with pytest.raises(ValueError):
            posterior.mean("gamma")

    def test_covariance_matrix_symmetry(self, vb2_times):
        matrix = vb2_times.covariance_matrix()
        assert matrix[0, 1] == matrix[1, 0]
        assert matrix[0, 0] == pytest.approx(vb2_times.variance("omega"))

    def test_moments_against_sampling(self, vb2_times, rng):
        draws = vb2_times.sample(400_000, rng)
        assert draws[:, 0].mean() == pytest.approx(vb2_times.mean("omega"), rel=5e-3)
        assert draws[:, 1].mean() == pytest.approx(vb2_times.mean("beta"), rel=5e-3)
        assert np.cov(draws.T)[0, 1] == pytest.approx(
            vb2_times.covariance(), rel=0.05
        )

    def test_central_moment_third_skewness(self, vb2_times):
        # Right-skewed posterior: positive third central moment for omega.
        assert vb2_times.central_moment("omega", 3) > 0.0


class TestLatentCount:
    def test_pmf_support_and_mass(self, vb2_times, times_data):
        ns, weights = vb2_times.fault_count_pmf()
        assert ns[0] == times_data.count
        assert weights.sum() == pytest.approx(1.0)
        assert np.all(weights >= 0.0)

    def test_expected_total_faults_between_support_ends(self, vb2_times):
        expected = vb2_times.expected_total_faults()
        ns, _ = vb2_times.fault_count_pmf()
        assert ns[0] < expected < ns[-1]

    def test_omega_mean_identity(self, vb2_times, info_prior_times):
        # E[omega] = (m_omega + E[N]) / (phi_omega + 1): exact, because
        # every conditional is Gamma(m_omega + N, phi_omega + 1).
        expected = (
            info_prior_times.omega.shape + vb2_times.expected_total_faults()
        ) / (info_prior_times.omega.rate + 1.0)
        assert vb2_times.mean("omega") == pytest.approx(expected, rel=1e-10)


class TestDensityGrid:
    def test_log_pdf_grid_shape(self, vb2_times):
        omega = np.linspace(30.0, 60.0, 7)
        beta = np.linspace(5e-6, 1.5e-5, 5)
        grid = vb2_times.log_pdf_grid(omega, beta)
        assert grid.shape == (7, 5)
        assert np.all(np.isfinite(grid))

    def test_density_integrates_to_one(self, vb2_times):
        omega = np.linspace(10.0, 110.0, 301)
        beta = np.linspace(1e-7, 3e-5, 301)
        density = np.exp(vb2_times.log_pdf_grid(omega, beta))
        integral = np.trapezoid(np.trapezoid(density, beta, axis=1), omega)
        assert integral == pytest.approx(1.0, abs=5e-3)


class TestQuantiles:
    def test_quantiles_monotone(self, vb2_times):
        qs = [0.005, 0.025, 0.5, 0.975, 0.995]
        values = [vb2_times.quantile("omega", q) for q in qs]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_credible_interval_contains_mean(self, vb2_times):
        lo, hi = vb2_times.credible_interval("omega", 0.99)
        assert lo < vb2_times.mean("omega") < hi

    def test_interval_level_validation(self, vb2_times):
        with pytest.raises(ValueError):
            vb2_times.credible_interval("omega", 0.0)


class TestReliabilityPrimitives:
    def test_cdf_limits(self, vb2_times, times_data):
        c = reliability_increment(1.0, times_data.horizon, 1000.0)
        assert vb2_times.reliability_cdf(0.0, c) == 0.0
        assert vb2_times.reliability_cdf(1.0, c) == 1.0

    def test_cdf_monotone(self, vb2_times, times_data):
        c = reliability_increment(1.0, times_data.horizon, 5000.0)
        rs = np.linspace(0.01, 0.99, 25)
        values = [vb2_times.reliability_cdf(r, c) for r in rs]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_point_matches_monte_carlo(self, vb2_times, times_data, rng):
        c = reliability_increment(1.0, times_data.horizon, 10_000.0)
        draws = vb2_times.sample(400_000, rng)
        mc = np.exp(-draws[:, 0] * np.asarray(c(draws[:, 1]))).mean()
        assert vb2_times.reliability_point(c) == pytest.approx(mc, rel=2e-3)

    def test_quantile_matches_monte_carlo(self, vb2_times, times_data, rng):
        c = reliability_increment(1.0, times_data.horizon, 10_000.0)
        draws = vb2_times.sample(400_000, rng)
        mc = np.exp(-draws[:, 0] * np.asarray(c(draws[:, 1])))
        for q in (0.005, 0.5, 0.995):
            assert vb2_times.reliability_quantile(q, c) == pytest.approx(
                np.quantile(mc, q), abs=3e-3
            )

    def test_zero_window_reliability_is_one(self, vb2_times, times_data):
        c = reliability_increment(1.0, times_data.horizon, 0.0)
        assert vb2_times.reliability_point(c) == pytest.approx(1.0)
        assert vb2_times.reliability_cdf(0.999, c) == pytest.approx(0.0)

    def test_tables_cached_per_increment(self, vb2_times, times_data):
        c = reliability_increment(1.0, times_data.horizon, 1000.0)
        first = vb2_times.reliability_tables(c)
        second = vb2_times.reliability_tables(c)
        assert first is second


class TestReliabilityTableMemory:
    def test_cached_bytes_per_posterior_stay_below_the_old_tables(self):
        # the sequential tracker keeps dozens of posteriors alive in its
        # cache: what each caches for its reliability window must stay
        # within 2 K 48 doubles
        from repro.bayes.priors import ModelPrior
        from repro.core.reliability import estimate_reliability
        from repro.core.vb2 import fit_vb2
        from repro.data.failure_data import GroupedData

        intensity = np.exp(-np.arange(34) / 25.0)
        counts = np.random.default_rng(1).multinomial(45, intensity / intensity.sum())
        campaign = GroupedData(counts=counts, boundaries=np.arange(1.0, 35.0))
        prior = ModelPrior.informative(100.0, 50.0, 0.2, 0.1)
        for periods in range(1, 35, 3):
            data = campaign.truncate(periods)
            posterior = fit_vb2(data, prior, 1.0)
            estimate_reliability(posterior, data.horizon, 1.0)
            # the posterior's blocks and every node layout they keep
            blocks = posterior._beta_blocks
            holders = [blocks, *blocks.grids.values()]
            cached = {id(v): v for holder in holders
                      for name in type(holder).__slots__ if name != "grids"
                      for v in [getattr(holder, name)]}
            cached = list(cached.values())
            for tables in posterior._reliability_cache.values():
                cached += [*tables.c_nodes, tables.a_omega, tables.b_omega]
            nbytes = sum(np.asarray(v).nbytes for v in cached)
            assert nbytes <= 2 * posterior.n_components * 48 * 8


class TestOneTableBuild:
    def test_one_build_per_estimate_and_nothing_per_cell_kept(self, monkeypatch):
        # the point and both bounds read one cell table, which the
        # posterior does not keep: what stays reachable from it is a few
        # values per component or per node
        from repro.bayes.priors import ModelPrior
        from repro.core import posterior as module
        from repro.core.reliability import estimate_reliability
        from repro.core.vb2 import fit_vb2
        from repro.data.failure_data import GroupedData

        builds = []
        build = module._ReliabilityTables.cells
        monkeypatch.setattr(module._ReliabilityTables, "cells",
                            lambda tables: builds.append(build(tables)) or builds[-1])
        intensity = np.exp(-np.arange(34) / 25.0)
        counts = np.random.default_rng(3).multinomial(45, intensity / intensity.sum())
        data = GroupedData(counts=counts, boundaries=np.arange(1.0, 35.0))
        posterior = fit_vb2(data, ModelPrior.informative(100.0, 50.0, 0.2, 0.1), 1.0)
        estimate_reliability(posterior, data.horizon, 1.0)
        assert len(builds) == 1
        cells = builds.pop().weight.size
        # the window's grid, from the posterior's table cache
        (tables,) = posterior._reliability_cache.values()

        def arrays(value, depth=0):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, dict):
                for item in value.values():
                    yield from arrays(item, depth)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    yield from arrays(item, depth)
            elif depth < 3 and (hasattr(value, "__dict__")
                                or hasattr(value, "__slots__")):
                names = [*getattr(value, "__dict__", {}),
                         *getattr(type(value), "__slots__", ())]
                for name in names:
                    yield from arrays(getattr(value, name, None), depth + 1)

        sizes = [v.size for v in arrays(posterior)]
        limit = 4 * max(posterior.n_components, tables.grid.nodes.size)
        assert sizes and max(sizes) <= limit < cells


class TestFusedTable:
    @pytest.mark.parametrize("te", [20.0, 3000.0])
    def test_matches_a_per_run_loop(self, te):
        # te = 3000 puts the window's far β nodes at D = 0 (c(β) below
        # b_ω / _MAX_RATE): their runs join the point mass
        from repro.core.posterior import _MAX_RATE, _TRIM_MASS

        posterior, _ = _tracker_posterior(20, 1.0)
        tables = posterior.reliability_tables(reliability_increment(1.0, te, 1.0))
        grid = tables.grid
        weight, prefix, suffix, rows, starts, c_runs = [], [], [], [], [], []
        heads, tails, kept_mass, dead_mass = [], [], [], []
        for r0, r1, n0, n1 in grid.blocks:
            block = np.exp(grid.per_node[n0:n1] @ grid.per_row[:, r0:r1])
            for node, w in zip(range(n0, n1), block):
                before = np.concatenate(([0.0], np.cumsum(w[:-1])))
                after = np.cumsum(w[::-1])[::-1]
                lo = int(np.count_nonzero(before[1:] <= _TRIM_MASS))
                hi = max(w.size - int(np.count_nonzero(after <= _TRIM_MASS)), lo)
                tail = after[hi] if hi < w.size else 0.0
                heads.append(before[lo])
                tails.append(tail)
                if not tables.c_nodes[node] * _MAX_RATE >= tables.b_omega.max():
                    dead_mass.append(after[lo] - tail)
                    continue
                if hi == lo:  # nothing left to keep
                    continue
                starts.append(len(weight))
                rows.extend(range(r0 + lo, r0 + hi))
                weight.extend(w[lo:hi])
                prefix.extend(before[lo:hi] - before[lo])
                suffix.extend(after[lo:hi] - tail)
                c_runs.append(tables.c_nodes[node])
                kept_mass.append(after[lo] - tail)
        atom = np.sum(dead_mass)
        assert (atom > 0.0) == (te > 20.0)
        norm = np.sum(weight) + atom
        suffix = np.array(suffix) / norm
        suffix[starts] = 0.0

        table = tables.cells()
        np.testing.assert_array_equal(table.starts, starts)
        np.testing.assert_array_equal(table.rows, rows)
        np.testing.assert_array_equal(table.c_runs, c_runs)
        np.testing.assert_array_equal(table.weight, np.array(weight) / norm)
        np.testing.assert_array_equal(table.prefix, np.array(prefix) / norm)
        np.testing.assert_array_equal(table.suffix, suffix)
        assert table.atom == atom / norm
        assert table.trimmed_mass == pytest.approx(
            (np.sum(heads) + np.sum(tails)) / norm, rel=1e-12)
        # the engine reads the same cells: each run sums to its kept mass
        np.testing.assert_allclose(table.engine._run_total,
                                   np.array(kept_mass) / norm, rtol=1e-13)
        assert table.engine.size == table.weight.size
        assert table.engine.runs == len(starts)


_REFERENCE_RULE = np.polynomial.legendre.leggauss(400)


def _tracker_posterior(periods, alpha0):
    from repro.bayes.priors import ModelPrior
    from repro.core.vb2 import fit_vb2
    from repro.data.failure_data import GroupedData

    intensity = np.exp(-np.arange(34) / 25.0)
    counts = np.random.default_rng(501).multinomial(45, intensity / intensity.sum())
    data = GroupedData(counts=counts, boundaries=np.arange(1.0, 35.0))
    data = data.truncate(periods)
    posterior = fit_vb2(data, ModelPrior.informative(100.0, 50.0, 0.2, 0.1), alpha0)
    return posterior, reliability_increment(alpha0, data.horizon, 1.0)


class TestNodeRule:
    """Each β block's Gauss–Legendre count comes from an error bound for
    its integrand ``Pv(β|N) Q(a_ω, b_ω s / c(β))`` and the window."""

    @pytest.mark.parametrize("shape", [20.0, 200.0])
    @pytest.mark.parametrize("spread", [0.0, 3.0, 6.0])
    @pytest.mark.parametrize("sharpness", [0.0, 0.5, 1.5, 4.0])
    def test_chosen_count_meets_the_stated_error(self, shape, spread, sharpness):
        # three gamma conditionals whose means lie `spread` sds apart (one
        # block of half-width ~8-14 sds, or two at the skewed shape 20),
        # times the step Q(a_ω, b_ω s / c(β)) of c(β) = exp(-β te), whose
        # width is 1 / `sharpness` sds; the chosen counts must agree with
        # 400 nodes to the bound they report and to the tables' 1e-13
        # target (METHOD.md §4.1), with the step placed across the blocks.
        # Evaluating the integrand rounds at ~2.5e-14 (the 400- and
        # 600-node rules differ by that much), so agreement to 5e-14
        # always counts.
        from repro.core.posterior import _MAX_NODES, _NODE_ERROR, _BetaBlocks
        from repro.core.reliability import ResidualSurvival
        from repro.stats import scipy_special as sc

        sd = 1.0 / np.sqrt(shape)
        means = 1.0 + spread * sd * np.array([0.0, 1.0, 2.0])
        weights = np.array([0.25, 0.5, 0.25])
        a_beta, b_beta = np.full(3, shape), shape / means
        a_omega, b_omega = np.array([50.0, 51.0, 52.0]), 1.0
        c = ResidualSurvival(1.0, sharpness / (sd * np.sqrt(a_omega[-1])))
        blocks = _BetaBlocks(weights, a_beta, b_beta, a_omega)
        sizes, bound = blocks.node_counts(c)
        if np.all(sizes < _MAX_NODES):
            assert bound <= _NODE_ERROR
        if sharpness == 0.0:
            assert np.all(sizes < _MAX_NODES)

        def tails(rules, s):
            total = 0.0
            for (r0, r1), mid, half, (x, w) in zip(blocks.rows, blocks.mid,
                                                   blocks.half, rules):
                beta = (mid + half * x)[:, None]
                a, b = a_beta[r0:r1], b_beta[r0:r1]
                pdf = np.exp(a * np.log(b) - sc.gammaln(a) + (a - 1.0) * np.log(beta)
                             - b * beta)
                step = sc.gammaincc(a_omega[r0:r1], b_omega * s / c(beta))
                total += half * (w @ (pdf * step @ weights[r0:r1]))
            return total

        chosen = [np.polynomial.legendre.leggauss(int(n)) for n in sizes]
        reference = [_REFERENCE_RULE] * sizes.size
        transitions = np.concatenate([means, means + 3.0 * sd * np.array([-1.0, 1.0, 2.0])])
        # a block that no count satisfies keeps _MAX_NODES and its bound
        stated = bound if np.any(sizes == _MAX_NODES) else min(bound, 1e-13)
        for s in c(transitions) * a_omega[1] / b_omega:
            error = abs(tails(chosen, s) - tails(reference, s))
            assert error <= max(stated, 5e-14)

    def test_late_tracker_period_takes_fewer_nodes(self):
        # a smooth one-period window at alpha0 = 1: the heaviest block
        # needs fewer than the 128 nodes it always had
        from repro.core.posterior import _MAX_NODES

        posterior, c = _tracker_posterior(34, 1.0)
        grid = posterior.reliability_tables(c).grid
        sizes = grid.blocks[:, 3] - grid.blocks[:, 2]
        assert sizes[grid.heaviest] < _MAX_NODES
        assert grid.nodes.size < _MAX_NODES * sizes.size

    @pytest.mark.parametrize("name", ["DT-NoInfo", "DG-NoInfo"])
    def test_noinfo_at_alpha_two_over_the_horizon_keeps_all_nodes(self, name):
        # the worst case the fixed 128 nodes were set by
        from repro.core.posterior import _MAX_NODES
        from repro.core.vb2 import fit_vb2
        from repro.experiments.config import paper_scenarios

        scenario = paper_scenarios()[name]
        data = scenario.load_data()
        posterior = fit_vb2(data, scenario.prior(), 2.0, scenario.vb_config)
        c = reliability_increment(2.0, data.horizon, data.horizon)
        grid = posterior.reliability_tables(c).grid
        assert grid.blocks[grid.heaviest, 3] - grid.blocks[grid.heaviest, 2] == _MAX_NODES

    def test_tables_need_no_inverse_incomplete_gamma(self, monkeypatch):
        # the β ranges are closed-form Chernoff bounds
        from repro.stats import scipy_special

        def forbidden(*args):
            raise AssertionError("inverse incomplete gamma called")

        posterior, c = _tracker_posterior(20, 1.0)
        monkeypatch.setattr(scipy_special, "gammaincinv", forbidden)
        monkeypatch.setattr(scipy_special, "gammainccinv", forbidden)
        table = posterior.reliability_tables(c).cells()
        assert table.weight.size > 0
        assert table.weight.sum() + table.atom == pytest.approx(1.0, abs=1e-12)


class TestChernoffRanges:
    def test_ranges_hold_the_clip_quantiles(self):
        from repro.core.posterior import _BETA_CLIP, _chernoff_ratios
        from repro.stats import scipy_special as sc

        shape = np.geomspace(0.5, 1e6, 400)
        lo, hi = _chernoff_ratios(shape) * shape  # at unit rate
        assert np.all(lo <= sc.gammaincinv(shape, _BETA_CLIP))
        assert np.all(hi >= sc.gammainccinv(shape, _BETA_CLIP))
        # and not much wider: the normal limit is sqrt(2 log 1e13) / 7.35
        width = (hi - lo) / (sc.gammainccinv(shape, _BETA_CLIP)
                             - sc.gammaincinv(shape, _BETA_CLIP))
        assert np.all(width < 1.4) and width[-1] < 1.06
