"""Tests for the VB2 conditional update equations.

These tests pin down the mathematical content of paper Section 5.2,
including the erratum documented in DESIGN.md: the residual-fault terms
use the gamma *survival* function, which is what makes the paper's own
closed-form claim for the Goel–Okumoto case come out.
"""

import math

import numpy as np
import pytest

from repro.bayes.priors import GammaPrior, ModelPrior
from repro.core.config import VBConfig
from repro.core.gamma_updates import (
    GroupedStats,
    TimesStats,
    elbo_constant,
    solve_conditional_grouped,
    solve_conditional_times,
    solve_times_exponential_lanes,
)
from repro.data.datasets import system17_failure_times, system17_grouped
from repro.stats.truncated import censored_gamma_mean, truncated_gamma_mean


@pytest.fixture(scope="module")
def times_stats():
    return TimesStats.from_data(system17_failure_times())


@pytest.fixture(scope="module")
def grouped_stats():
    return GroupedStats.from_data(system17_grouped())


@pytest.fixture(scope="module")
def prior_times():
    return ModelPrior.informative(50.0, 15.8, 1.0e-5, 3.2e-6)


@pytest.fixture(scope="module")
def prior_grouped():
    return ModelPrior.informative(50.0, 15.8, 3.3e-2, 1.1e-2)


CONFIG = VBConfig()


class TestClosedFormGoelOkumoto:
    """The paper states (Section 5.2) that for alpha0 = 1 and failure-time
    data the non-linear equations can be solved explicitly. This only
    works with survival-function residual terms — the erratum check."""

    def test_xi_closed_form(self, times_stats, prior_times):
        n = 50
        solution = solve_conditional_times(n, 1.0, prior_times, times_stats, CONFIG)
        m_beta, phi_beta = prior_times.beta.shape, prior_times.beta.rate
        expected = (m_beta + times_stats.me) / (
            phi_beta
            + times_stats.sum_times
            + (n - times_stats.me) * times_stats.horizon
        )
        assert solution.xi == pytest.approx(expected, rel=1e-12)

    def test_closed_form_is_fixed_point(self, times_stats, prior_times):
        # xi must satisfy xi = (m_beta + N alpha0) / (phi_beta + zeta(xi)).
        n = 60
        s = solve_conditional_times(n, 1.0, prior_times, times_stats, CONFIG)
        zeta = times_stats.sum_times + (n - times_stats.me) * censored_gamma_mean(
            times_stats.horizon, 1.0, s.xi
        )
        assert s.zeta == pytest.approx(zeta, rel=1e-12)
        assert s.xi == pytest.approx(
            (prior_times.beta.shape + n) / (prior_times.beta.rate + zeta), rel=1e-12
        )

    def test_gibbs_parallel_with_flat_prior(self, times_stats):
        # With a flat prior the closed form parallels Kuo-Yang Eq. 11:
        # beta | N ~ Gamma(me, sum t_i + (N - me) te).
        prior = ModelPrior(omega=GammaPrior(1.0, 0.0), beta=GammaPrior(1.0, 0.0))
        n = 45
        s = solve_conditional_times(n, 1.0, prior, times_stats, CONFIG)
        expected = (1.0 + times_stats.me) / (
            times_stats.sum_times + (n - times_stats.me) * times_stats.horizon
        )
        assert s.xi == pytest.approx(expected, rel=1e-12)


class TestConditionalStructure:
    def test_omega_posterior_parameters(self, times_stats, prior_times):
        n = 55
        s = solve_conditional_times(n, 1.0, prior_times, times_stats, CONFIG)
        assert s.a_omega == pytest.approx(prior_times.omega.shape + n)
        assert s.b_omega == pytest.approx(prior_times.omega.rate + 1.0)

    def test_beta_posterior_parameters_general_alpha(self, times_stats, prior_times):
        # Paper erratum 2: the shape is m_beta + N * alpha0 (not m_beta + N).
        n, alpha0 = 55, 2.0
        s = solve_conditional_times(n, alpha0, prior_times, times_stats, CONFIG)
        assert s.a_beta == pytest.approx(prior_times.beta.shape + n * alpha0)
        assert s.b_beta == pytest.approx(prior_times.beta.rate + s.zeta)
        assert s.xi == pytest.approx(s.a_beta / s.b_beta, rel=1e-10)

    def test_zeta_exceeds_observed_sum(self, times_stats, prior_times):
        # Residual faults fail after the horizon, so zeta > sum of
        # observed times whenever N > me.
        s = solve_conditional_times(
            times_stats.me + 10, 1.0, prior_times, times_stats, CONFIG
        )
        assert s.zeta > times_stats.sum_times + 10 * times_stats.horizon

    def test_n_equal_observed_has_no_residual_terms(self, times_stats, prior_times):
        s = solve_conditional_times(
            times_stats.me, 1.0, prior_times, times_stats, CONFIG
        )
        assert s.zeta == pytest.approx(times_stats.sum_times)

    def test_below_observed_rejected(self, times_stats, prior_times):
        with pytest.raises(ValueError):
            solve_conditional_times(
                times_stats.me - 1, 1.0, prior_times, times_stats, CONFIG
            )

    def test_warm_start_changes_nothing(self, times_stats, prior_times):
        n, alpha0 = 70, 2.0
        cold = solve_conditional_times(n, alpha0, prior_times, times_stats, CONFIG)
        warm = solve_conditional_times(
            n, alpha0, prior_times, times_stats, CONFIG, xi_start=cold.xi * 1.3
        )
        assert warm.xi == pytest.approx(cold.xi, rel=1e-9)
        assert warm.log_weight == pytest.approx(cold.log_weight, rel=1e-9)


def _exponential_lanes(stats, prior, lo, hi, m_beta=None):
    """One dataset's latent-count range ``[lo, hi]`` as closed-form
    Goel–Okumoto lanes."""
    n = np.arange(lo, hi + 1, dtype=float)

    def per_lane(value):
        return np.full(n.size, float(value))

    return solve_times_exponential_lanes(
        n, per_lane(stats.me), per_lane(stats.sum_times),
        per_lane(stats.horizon),
        per_lane(prior.omega.shape), per_lane(prior.omega.rate),
        per_lane(prior.beta.shape if m_beta is None else m_beta),
        per_lane(prior.beta.rate),
    )


class TestVectorisedExponentialRange:
    """The closed-form lanes must agree with the scalar solver exactly."""

    FIELDS = ("zeta", "xi", "a_omega", "b_omega", "a_beta", "b_beta",
              "log_weight", "iterations")

    def test_matches_scalar_solutions(self, times_stats, prior_times):
        batch = _exponential_lanes(
            times_stats, prior_times, times_stats.me, times_stats.me + 100
        )
        for i in (0, 37, 100):
            reference = solve_conditional_times(
                int(batch.n[i]), 1.0, prior_times, times_stats, CONFIG
            )
            for field in self.FIELDS:
                assert getattr(batch, field)[i] == getattr(reference, field)

    def test_matches_scalar_with_flat_prior(self, times_stats):
        flat = ModelPrior.noninformative()
        batch = _exponential_lanes(
            times_stats, flat, times_stats.me, times_stats.me + 20
        )
        reference = solve_conditional_times(
            times_stats.me + 20, 1.0, flat, times_stats, CONFIG
        )
        assert batch.log_weight[-1] == reference.log_weight

    def test_validation(self, times_stats, prior_times):
        with pytest.raises(ValueError, match="below the observed"):
            _exponential_lanes(
                times_stats, prior_times, times_stats.me - 1, times_stats.me
            )
        with pytest.raises(ValueError, match="must be positive"):
            _exponential_lanes(
                times_stats, prior_times, times_stats.me, times_stats.me + 5,
                m_beta=-float(times_stats.me + 3),
            )


class TestGroupedUpdates:
    def test_zeta_composition(self, grouped_stats, prior_grouped):
        n = 50
        s = solve_conditional_grouped(n, 1.0, prior_grouped, grouped_stats, CONFIG)
        edges = grouped_stats.edges
        expected = sum(
            count
            * truncated_gamma_mean(float(edges[i]), float(edges[i + 1]), 1.0, s.xi)
            for i, count in enumerate(grouped_stats.counts)
            if count
        ) + (n - grouped_stats.total) * censored_gamma_mean(
            grouped_stats.horizon, 1.0, s.xi
        )
        assert s.zeta == pytest.approx(expected, rel=1e-10)

    def test_fixed_point_consistency(self, grouped_stats, prior_grouped):
        n, alpha0 = 60, 2.0
        s = solve_conditional_grouped(n, alpha0, prior_grouped, grouped_stats, CONFIG)
        assert s.xi == pytest.approx(s.a_beta / s.b_beta, rel=1e-10)

    def test_below_observed_rejected(self, grouped_stats, prior_grouped):
        with pytest.raises(ValueError):
            solve_conditional_grouped(
                grouped_stats.total - 1, 1.0, prior_grouped, grouped_stats, CONFIG
            )


class TestLogWeights:
    def test_weights_peak_near_posterior_mode(self, times_stats, prior_times):
        # The latent-count weight should be unimodal with its mode near
        # the posterior mean of N (~ observed + expected residual).
        ns = np.arange(times_stats.me, times_stats.me + 120)
        weights = [
            solve_conditional_times(int(n), 1.0, prior_times, times_stats, CONFIG).log_weight
            for n in ns
        ]
        mode = ns[int(np.argmax(weights))]
        assert times_stats.me < mode < times_stats.me + 30
        diffs = np.sign(np.diff(weights))
        # Unimodal: signs go from +1 to -1 with a single change.
        changes = int(np.sum(np.abs(np.diff(diffs)) > 0))
        assert changes <= 2

    def test_log_weight_finite_deep_into_tail(self, times_stats, prior_times):
        s = solve_conditional_times(5000, 1.0, prior_times, times_stats, CONFIG)
        assert math.isfinite(s.log_weight)

    def test_grouped_weights_finite(self, grouped_stats, prior_grouped):
        for n in (grouped_stats.total, 100, 1000):
            s = solve_conditional_grouped(n, 1.0, prior_grouped, grouped_stats, CONFIG)
            assert math.isfinite(s.log_weight)


class TestMarginalExactness:
    """For the Goel-Okumoto model the *exact* marginal posterior of N is
    available by analytic integration over omega and beta:

    P(N | D_T) ∝ Γ(m_ω+N)/(φ_ω+1)^{m_ω+N} / (N-me)!
               x Γ(m_β+me) / (φ_β + Σt_i + (N-me) t_e)^{m_β+me}

    (the beta integral is conjugate because the residual-fault survival
    terms are exponential). VB2's Pv(N) is an approximation of this; for
    informative priors they should agree closely near the mode.
    """

    @staticmethod
    def _exact_log_pmf(n, stats, prior):
        from scipy.special import gammaln

        m_omega, phi_omega = prior.omega.shape, prior.omega.rate
        m_beta, phi_beta = prior.beta.shape, prior.beta.rate
        r = n - stats.me
        return (
            float(gammaln(m_omega + n))
            - (m_omega + n) * math.log(phi_omega + 1.0)
            - float(gammaln(r + 1.0))
            - (m_beta + stats.me) * math.log(
                phi_beta + stats.sum_times + r * stats.horizon
            )
        )

    def test_vb_latent_pmf_tracks_exact(self, times_stats, prior_times):
        ns = np.arange(times_stats.me, times_stats.me + 80)
        log_vb = np.array(
            [
                solve_conditional_times(
                    int(n), 1.0, prior_times, times_stats, CONFIG
                ).log_weight
                for n in ns
            ]
        )
        log_exact = np.array(
            [self._exact_log_pmf(int(n), times_stats, prior_times) for n in ns]
        )
        from scipy.special import logsumexp

        vb = np.exp(log_vb - logsumexp(log_vb))
        exact = np.exp(log_exact - logsumexp(log_exact))
        # Means of N under the two pmfs agree within a fraction of a fault.
        assert float(ns @ vb) == pytest.approx(float(ns @ exact), abs=0.5)
        # Total variation distance is small.
        assert 0.5 * np.abs(vb - exact).sum() < 0.05


class TestElboConstant:
    def test_requires_proper_priors(self, times_stats):
        flat = ModelPrior.noninformative()
        with pytest.raises(Exception):
            elbo_constant(times_stats, flat, 1.0)

    def test_times_value(self, times_stats, prior_times):
        value = elbo_constant(times_stats, prior_times, 1.0)
        expected = (
            -prior_times.omega.log_normaliser() - prior_times.beta.log_normaliser()
        )
        assert value == pytest.approx(expected)  # alpha0=1: data terms vanish

    def test_grouped_value(self, grouped_stats, prior_grouped):
        value = elbo_constant(grouped_stats, prior_grouped, 1.0)
        assert math.isfinite(value)
