"""Tests for the VB2 fitting loop (paper Section 5.1, Steps 1-5)."""

import math

import numpy as np
import pytest

from repro.bayes.nint import fit_nint
from repro.bayes.priors import ModelPrior
from repro.core.config import VBConfig
from repro.core.vb2 import fit_vb2
from repro.core.warmstart import warm_start_from
from repro.data.failure_data import FailureTimeData
from repro.exceptions import TruncationError
from repro.experiments.config import paper_scenarios


class TestFitting:
    def test_returns_mixture_starting_at_observed_count(
        self, times_data, info_prior_times
    ):
        posterior = fit_vb2(times_data, info_prior_times)
        ns, weights = posterior.fault_count_pmf()
        assert ns[0] == times_data.count
        assert weights.sum() == pytest.approx(1.0)

    def test_tail_tolerance_met(self, times_data, info_prior_times):
        config = VBConfig(tail_tolerance=1e-10)
        posterior = fit_vb2(times_data, info_prior_times, config=config)
        assert posterior.tail_mass() < 1e-10

    def test_tighter_tolerance_grows_nmax(self, times_data, info_prior_times):
        loose = fit_vb2(
            times_data, info_prior_times, config=VBConfig(tail_tolerance=1e-6)
        )
        tight = fit_vb2(
            times_data, info_prior_times, config=VBConfig(tail_tolerance=1e-14)
        )
        assert tight.diagnostics["nmax"] >= loose.diagnostics["nmax"]

    def test_fixed_nmax_mode(self, times_data, info_prior_times):
        posterior = fit_vb2(times_data, info_prior_times, nmax=100)
        assert posterior.diagnostics["nmax"] == 100
        assert posterior.n_components == 100 - times_data.count + 1

    def test_fixed_nmax_below_observed_rejected(self, times_data, info_prior_times):
        with pytest.raises(ValueError):
            fit_vb2(times_data, info_prior_times, nmax=times_data.count - 1)

    def test_results_independent_of_initial_nmax(self, times_data, info_prior_times):
        small_start = fit_vb2(
            times_data, info_prior_times, config=VBConfig(nmax_initial=5)
        )
        large_start = fit_vb2(
            times_data, info_prior_times, config=VBConfig(nmax_initial=500)
        )
        assert small_start.mean("omega") == pytest.approx(
            large_start.mean("omega"), rel=1e-9
        )
        assert small_start.variance("beta") == pytest.approx(
            large_start.variance("beta"), rel=1e-6
        )

    def test_invalid_alpha0(self, times_data, info_prior_times):
        with pytest.raises(ValueError):
            fit_vb2(times_data, info_prior_times, alpha0=0.0)

    def test_unsupported_data_type(self, info_prior_times):
        with pytest.raises(TypeError):
            fit_vb2([1.0, 2.0], info_prior_times)

    def test_grouped_fit(self, grouped_data, info_prior_grouped):
        posterior = fit_vb2(grouped_data, info_prior_grouped)
        assert posterior.mean("omega") > grouped_data.total_count
        assert posterior.covariance() < 0.0  # joint skew: more faults, slower rate

    def test_delayed_s_shaped_member(self, times_data, info_prior_times):
        posterior = fit_vb2(times_data, info_prior_times, alpha0=2.0)
        assert posterior.mean("omega") > 0
        assert posterior.diagnostics["alpha0"] == 2.0


class TestTruncationPolicy:
    def test_error_policy_raises_on_heavy_tail(self, times_data, flat_prior):
        config = VBConfig(nmax_ceiling=500, truncation_policy="error")
        with pytest.raises(TruncationError):
            fit_vb2(times_data, flat_prior, config=config)

    def test_clamp_policy_returns_truncated_posterior(self, times_data, flat_prior):
        config = VBConfig(nmax_ceiling=500, truncation_policy="clamp")
        posterior = fit_vb2(times_data, flat_prior, config=config)
        assert posterior.diagnostics["truncation_clamped"]
        assert posterior.diagnostics["nmax"] == 500

    def test_clamp_policy_not_flagged_when_tolerance_met(
        self, times_data, info_prior_times
    ):
        config = VBConfig(truncation_policy="clamp")
        posterior = fit_vb2(times_data, info_prior_times, config=config)
        assert not posterior.diagnostics["truncation_clamped"]


class TestElbo:
    def test_elbo_present_for_proper_priors(self, vb2_times):
        assert vb2_times.elbo is not None
        assert math.isfinite(vb2_times.elbo)

    def test_elbo_absent_for_flat_priors(self, times_data, flat_prior):
        posterior = fit_vb2(
            times_data,
            flat_prior,
            config=VBConfig(truncation_policy="clamp", nmax_ceiling=1024),
        )
        assert posterior.elbo is None

    def test_elbo_monotone_in_nmax(self, times_data, info_prior_times):
        # Each additional mixture component can only add probability mass
        # to the variational family: F must not decrease.
        elbos = [
            fit_vb2(times_data, info_prior_times, nmax=n).elbo
            for n in (45, 60, 100, 200)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(elbos, elbos[1:]))

    def test_elbo_bounded_by_evidence(
        self, times_data, info_prior_times, nint_times
    ):
        # F[Pv] <= log P(D); NINT's log normaliser approximates log P(D)
        # up to its (dominant-mass) truncation.
        vb2 = fit_vb2(times_data, info_prior_times)
        assert vb2.elbo <= nint_times.log_normaliser + 1e-6

    def test_elbo_close_to_evidence(self, times_data, info_prior_times, nint_times):
        # The structured family is rich; the gap should be small.
        vb2 = fit_vb2(times_data, info_prior_times)
        gap = nint_times.log_normaliser - vb2.elbo
        assert 0.0 <= gap < 0.5

    @pytest.mark.parametrize("alpha0", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("scenario", ["DT-Info", "DG-Info"])
    def test_data_constants_close_the_gap(self, scenario, alpha0):
        # The ELBO adds back (alpha0 - 1) sum ln t_i - m_e ln Gamma(alpha0)
        # for failure times and -sum ln x_i! for grouped data. The first
        # term is non-zero at alpha0 != 1, the second only at alpha0 = 1.5
        # (ln Gamma(1) = ln Gamma(2) = 0). A wrong sign or a missing term
        # moves the gap to the evidence by far more than 0.1.
        spec = paper_scenarios()[scenario]
        data, prior = spec.load_data(), spec.prior()
        vb2 = fit_vb2(data, prior, alpha0)
        nint = fit_nint(data, prior, alpha0, reference_posterior=vb2)
        gap = nint.log_normaliser - vb2.elbo
        assert 0.0 <= gap < 0.1


class TestSmallData:
    def test_single_failure(self, info_prior_times):
        data = FailureTimeData([1000.0], horizon=240_000.0)
        posterior = fit_vb2(data, info_prior_times)
        assert posterior.mean("omega") > 0
        assert posterior.tail_mass() < VBConfig().tail_tolerance

    def test_no_failures_with_proper_prior(self, info_prior_times):
        data = FailureTimeData([], horizon=240_000.0)
        posterior = fit_vb2(data, info_prior_times)
        # Nothing observed: the posterior mean of omega must fall below
        # the prior mean (evidence of absence).
        assert posterior.mean("omega") < 50.0

    def test_warm_start_equals_cold_numerics(self, times_data, info_prior_times):
        # alpha0 != 1 runs the inverse solver. A warm start from a fit of
        # the first 60% of the horizon changes the truncation schedule,
        # not the posterior.
        prefix = times_data.truncate(0.6 * times_data.horizon)
        warm = warm_start_from(fit_vb2(prefix, info_prior_times, alpha0=1.5))
        cold = fit_vb2(times_data, info_prior_times, alpha0=1.5)
        warmed = fit_vb2(
            times_data, info_prior_times, alpha0=1.5,
            config=VBConfig(warm_start=warm),
        )
        assert warmed.diagnostics["warm_started"]
        assert warmed.diagnostics["nmax"] != cold.diagnostics["nmax"]
        for param in ("omega", "beta"):
            assert warmed.mean(param) == pytest.approx(
                cold.mean(param), rel=1e-10
            )
            assert warmed.variance(param) == pytest.approx(
                cold.variance(param), rel=1e-8
            )


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestAlpha0Validation:
    """A NaN shape used to fail late inside the fixed point and an
    infinite one tripped a divide warning; both now raise up front."""

    @pytest.mark.parametrize("alpha0", [math.nan, math.inf, 0.0, -1.0])
    def test_fit_rejects_non_finite_or_non_positive(
        self, grouped_data, info_prior_grouped, alpha0
    ):
        with pytest.raises(ValueError, match="alpha0 must be positive"):
            fit_vb2(grouped_data, info_prior_grouped, alpha0=alpha0)

    def test_fleet_names_the_dataset(self, grouped_data, info_prior_grouped):
        from repro.core.fleet import fit_vb2_fleet

        with pytest.raises(ValueError, match="dataset 1: alpha0"):
            fit_vb2_fleet(
                [grouped_data, grouped_data], info_prior_grouped,
                alpha0=[1.0, math.nan],
            )
