"""Warm-start states and warm-vs-cold fit agreement."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bayes.priors import ModelPrior
from repro.core.config import VBConfig
from repro.core.vb1 import fit_vb1
from repro.core.vb2 import fit_vb2
from repro.core.warmstart import WarmStart, warm_start_from
from repro.core.weibull_vb import fit_vb2_weibull
from repro.data.failure_data import GroupedData
from tests.core.test_vb2_inverse import assert_identity, lane_xi


@pytest.fixture(scope="module")
def campaign():
    """Synthetic decaying-rate grouped campaign (benchmark's shape)."""
    rng = np.random.default_rng(7)
    counts = rng.poisson(6.0 * np.exp(-np.arange(30) / 25.0))
    return GroupedData(counts=counts, boundaries=np.arange(1.0, 31.0))


@pytest.fixture(scope="module")
def campaign_prior():
    return ModelPrior.informative(100.0, 50.0, 0.2, 0.1)


class TestWarmStartState:
    def test_extraction_spans_grid(self, vb2_times):
        warm = warm_start_from(vb2_times)
        assert warm.method == "VB2"
        assert warm.n[0] == warm.observed
        assert warm.n[-1] == warm.nmax
        assert np.all(np.diff(warm.n) == 1)
        np.testing.assert_allclose(
            np.exp(warm.log_weights), vb2_times.weights, rtol=1e-14
        )

    def test_vb1_state_has_no_grid(self, times_data, info_prior_times):
        warm = warm_start_from(fit_vb1(times_data, info_prior_times))
        assert warm.method == "VB1"
        assert warm.n.size == 0
        assert warm.xi_mean > 0.0

    def test_weibull_state_reads_theta_space(self, times_data):
        prior = ModelPrior.informative(50.0, 15.8, 1.0e-7, 5.0e-8)
        posterior = fit_vb2_weibull(times_data, prior, shape=1.2)
        warm = warm_start_from(posterior)
        inner = warm_start_from(posterior.theta_posterior)
        assert warm == inner

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="span"):
            WarmStart(
                method="VB2", alpha0=1.0, observed=3, nmax=6,
                n=np.array([3, 4, 5]), log_weights=np.zeros(3),
                lam=1.0, xi_mean=1.0,
            )
        with pytest.raises(ValueError, match="contiguous"):
            WarmStart(
                method="VB2", alpha0=1.0, observed=3, nmax=6,
                n=np.array([3, 5, 6]), log_weights=np.zeros(3),
                lam=1.0, xi_mean=1.0,
            )
        with pytest.raises(ValueError, match="one grid"):
            WarmStart(
                method="VB2", alpha0=1.0, observed=3, nmax=4,
                n=np.array([3, 4]), log_weights=np.zeros(3),
                lam=1.0, xi_mean=1.0,
            )
        with pytest.raises(ValueError, match="positive"):
            WarmStart(
                method="VB2", alpha0=-1.0, observed=3, nmax=4,
                n=np.array([3, 4]), log_weights=np.zeros(2),
                lam=1.0, xi_mean=1.0,
            )

    def test_value_semantics(self, vb2_times):
        first = warm_start_from(vb2_times)
        second = warm_start_from(vb2_times)
        assert first == second
        assert hash(first) == hash(second)
        assert first != "not a warm start"

    def test_effective_nmax_drops_overshoot(self, vb2_times):
        warm = warm_start_from(vb2_times)
        effective = warm.effective_nmax(1e-6)
        assert warm.observed <= effective <= warm.nmax
        # no lane below tolerance -> the raw bound survives
        assert warm.effective_nmax(1e-300) == warm.nmax


class TestWarmColdAgreement:
    @pytest.mark.parametrize("alpha0", [1.0, 2.0])
    def test_chained_refits_match_cold(self, campaign, campaign_prior, alpha0):
        """A 6-period warm chain agrees with the cold full-data fit."""
        state = None
        for end in range(5, 31, 5):
            config = VBConfig(warm_start=state)
            posterior = fit_vb2(
                campaign.truncate(end), campaign_prior, alpha0, config
            )
            state = warm_start_from(posterior)
        cold = fit_vb2(campaign, campaign_prior, alpha0)

        # common latent support: warm/cold truncation growth may stop
        # at different overshoots past the tail tolerance
        warm_post = posterior
        n_common = min(warm_post.n_values[-1], cold.n_values[-1])
        keep_w = warm_post.n_values <= n_common
        keep_c = cold.n_values <= n_common
        np.testing.assert_allclose(
            warm_post.weights[keep_w], cold.weights[keep_c], atol=1e-8
        )
        for param in ("omega", "beta"):
            assert warm_post.mean(param) == pytest.approx(
                cold.mean(param), rel=1e-7
            )
            lo_w, hi_w = warm_post.credible_interval(param, 0.99)
            lo_c, hi_c = cold.credible_interval(param, 0.99)
            assert lo_w == pytest.approx(lo_c, rel=1e-7)
            assert hi_w == pytest.approx(hi_c, rel=1e-7)

    def test_warm_fit_is_flagged_and_cheaper(self, campaign, campaign_prior):
        base = campaign.truncate(29)
        cold_prev = fit_vb2(base, campaign_prior, 1.0)
        config = VBConfig(warm_start=warm_start_from(cold_prev))
        warm = fit_vb2(campaign, campaign_prior, 1.0, config)
        cold = fit_vb2(campaign, campaign_prior, 1.0)
        assert warm.diagnostics["warm_started"] is True
        assert "warm_started" not in cold.diagnostics or (
            cold.diagnostics.get("warm_started") is False
        )
        assert (
            warm.diagnostics["fixed_point_iterations"]
            < cold.diagnostics["fixed_point_iterations"]
        )

    def test_config_rejects_foreign_state(self):
        with pytest.raises(TypeError, match="WarmStart"):
            VBConfig(warm_start={"xi": [1.0]})


class TestWarmFitsOnTheirFixedPoint:
    """A warm start may change the truncation schedule, never how
    tightly a lane is solved: every lane of every warm-chained fit
    gives back its own ``N`` through the closed-form ``N(ξ)``, and a
    cold fit truncated at the same bound has the same ``ξ``."""

    @pytest.mark.parametrize("alpha0", [1.0, 2.0])
    def test_warm_chain(self, campaign_prior, alpha0):
        rng = np.random.default_rng(7)
        counts = rng.poisson(6.0 * np.exp(-np.arange(50) / 25.0))
        data = GroupedData(counts=counts, boundaries=np.arange(1.0, 51.0))
        state = None
        for end in range(1, 51):
            period = data.truncate(end)
            warm = fit_vb2(
                period, campaign_prior, alpha0, VBConfig(warm_start=state)
            )
            assert_identity(warm, period, campaign_prior, alpha0)
            cold = fit_vb2(
                period, campaign_prior, alpha0, nmax=warm.diagnostics["nmax"]
            )
            np.testing.assert_allclose(
                lane_xi(warm), lane_xi(cold), rtol=1e-10
            )
            state = warm_start_from(warm)
