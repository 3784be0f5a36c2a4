"""Tests for the Gibbs samplers (Kuo-Yang and data augmentation)."""

import numpy as np
import pytest
from scipy import special as sc

from repro.bayes.mcmc.chains import ChainSettings
from repro.bayes.mcmc.gibbs_failure_time import gibbs_failure_time
from repro.bayes.mcmc.gibbs_grouped import _IntervalSums, gibbs_grouped
from repro.bayes.priors import ModelPrior
from repro.data.failure_data import GroupedData
from repro.stats.truncated import sample_censored_gamma


def _per_interval_loop_chain(data, prior, alpha0, settings):
    """The grouped direct sweep with its latent sum taken one interval
    at a time (``np.split`` and ``.sum()`` per interval): the reference
    that pins ``gibbs_grouped``'s variate stream and arithmetic."""
    rng = np.random.default_rng(settings.seed)
    intervals = [item for item in data.intervals() if item[2] > 0]
    total = data.total_count
    horizon = data.horizon
    m_omega, phi_omega = prior.omega.shape, prior.omega.rate
    m_beta, phi_beta = prior.beta.shape, prior.beta.rate
    collapsed = alpha0 == 1.0
    int_lo = np.array([lo for lo, _, _ in intervals])
    int_hi = np.array([hi for _, hi, _ in intervals])
    int_count = np.array([count for _, _, count in intervals], dtype=np.int64)
    n_latent = int(int_count.sum())
    draw_slots = np.repeat(np.arange(int_count.size), int_count)
    segment_offsets = np.cumsum(int_count)[:-1]
    omega = float(max(total, 1) * 1.2 + 1.0)
    beta = 2.0 * alpha0 / horizon
    samples = np.empty((settings.n_samples, 2))
    residual_trace = np.empty(settings.n_samples, dtype=np.int64)
    variates = 0
    kept = 0
    for sweep in range(settings.total_iterations):
        latent_sum = 0.0
        if n_latent:
            p_lo = sc.gammainc(alpha0, beta * int_lo)
            p_hi = sc.gammainc(alpha0, beta * int_hi)
            degenerate = p_hi <= p_lo
            low = np.where(degenerate, int_lo, p_lo)
            high = np.where(degenerate, int_hi, p_hi)
            u = rng.uniform(low[draw_slots], high[draw_slots])
            draws = u.copy()
            invert = ~degenerate[draw_slots]
            draws[invert] = sc.gammaincinv(alpha0, u[invert]) / beta
            for segment in np.split(draws, segment_offsets):
                latent_sum += float(segment.sum())
            variates += n_latent
        tail_prob = float(sc.gammaincc(alpha0, beta * horizon))
        residual = int(rng.poisson(omega * tail_prob))
        variates += 1
        omega = float(
            rng.gamma(shape=m_omega + total + residual, scale=1.0 / (phi_omega + 1.0))
        )
        variates += 1
        if collapsed:
            rate = phi_beta + latent_sum + residual * horizon
            beta = float(rng.gamma(shape=m_beta + total * alpha0, scale=1.0 / rate))
            variates += 1
        else:
            tail_sum = 0.0
            if residual > 0:
                tail_times = sample_censored_gamma(horizon, alpha0, beta, residual, rng)
                tail_sum = float(tail_times.sum())
                variates += residual
            rate = phi_beta + latent_sum + tail_sum
            shape = m_beta + (total + residual) * alpha0
            beta = float(rng.gamma(shape=shape, scale=1.0 / rate))
            variates += 1
        index = sweep - settings.burn_in
        if index >= 0 and (index + 1) % settings.thin == 0 and kept < settings.n_samples:
            samples[kept] = omega, beta
            residual_trace[kept] = residual
            kept += 1
    return samples, residual_trace, variates


def _assert_matches_loop(data, prior, alpha0, settings):
    result = gibbs_grouped(data, prior, alpha0, settings=settings)
    samples, residual_trace, variates = _per_interval_loop_chain(
        data, prior, alpha0, settings
    )
    assert np.array_equal(result.samples, samples)
    assert np.array_equal(result.extra["residual_trace"], residual_trace)
    assert result.variate_count == variates


@pytest.fixture(scope="module")
def wide_grouped_data():
    """Simulated grouped data whose interval counts reach 91, so
    ``.sum()`` runs pairwise (counts of 8 and more), with empty
    intervals among them."""
    counts = np.random.default_rng(5).integers(0, 92, size=40)
    counts[::7] = 0
    return GroupedData(counts, np.linspace(1.0, 40.0, 40))


class TestChainSettings:
    def test_paper_defaults(self):
        settings = ChainSettings()
        assert settings.n_samples == 20_000
        assert settings.burn_in == 10_000
        assert settings.thin == 10
        assert settings.total_iterations == 210_000

    def test_validation(self):
        with pytest.raises(ValueError):
            ChainSettings(n_samples=0)
        with pytest.raises(ValueError):
            ChainSettings(burn_in=-1)
        with pytest.raises(ValueError):
            ChainSettings(thin=0)


class TestGibbsFailureTime:
    def test_variate_count_matches_paper_accounting(
        self, times_data, info_prior_times
    ):
        # alpha0 = 1: 3 variates per sweep (paper Table 6: 3 x 210000).
        settings = ChainSettings(n_samples=100, burn_in=50, thin=2, seed=1)
        result = gibbs_failure_time(times_data, info_prior_times, settings=settings)
        assert result.variate_count == 3 * settings.total_iterations

    def test_paper_schedule_variate_count(self, times_data, info_prior_times):
        # Don't run the full schedule; check the arithmetic identity.
        settings = ChainSettings()
        assert 3 * settings.total_iterations == 630_000

    def test_posterior_matches_nint(
        self, times_data, info_prior_times, nint_times, quick_chain_settings
    ):
        result = gibbs_failure_time(
            times_data, info_prior_times, settings=quick_chain_settings
        )
        posterior = result.posterior()
        assert posterior.mean("omega") == pytest.approx(
            nint_times.mean("omega"), rel=0.03
        )
        assert posterior.mean("beta") == pytest.approx(
            nint_times.mean("beta"), rel=0.03
        )
        assert posterior.variance("omega") == pytest.approx(
            nint_times.variance("omega"), rel=0.2
        )
        assert posterior.covariance() < 0.0

    def test_reproducible_with_seed(self, times_data, info_prior_times):
        settings = ChainSettings(n_samples=200, burn_in=100, thin=1, seed=5)
        a = gibbs_failure_time(times_data, info_prior_times, settings=settings)
        b = gibbs_failure_time(times_data, info_prior_times, settings=settings)
        assert np.array_equal(a.samples, b.samples)

    def test_general_alpha_augments_tail(self, times_data, info_prior_times):
        settings = ChainSettings(n_samples=200, burn_in=100, thin=1, seed=6)
        result = gibbs_failure_time(
            times_data, info_prior_times, alpha0=2.0, settings=settings
        )
        assert not result.extra["collapsed_tail"]
        # Augmentation adds one variate per residual fault.
        assert result.variate_count > 3 * settings.total_iterations

    def test_residual_trace_recorded(self, times_data, info_prior_times):
        settings = ChainSettings(n_samples=100, burn_in=10, thin=1, seed=7)
        result = gibbs_failure_time(times_data, info_prior_times, settings=settings)
        assert result.extra["residual_trace"].shape == (100,)
        assert np.all(result.extra["residual_trace"] >= 0)


class TestGibbsGrouped:
    def test_variate_count_matches_paper_accounting(
        self, grouped_data, info_prior_grouped
    ):
        # alpha0 = 1 grouped: (3 + m) variates per sweep, m = 38
        # (paper Table 6: 41 x 210000 = 8.61M at full schedule).
        settings = ChainSettings(n_samples=50, burn_in=20, thin=2, seed=8)
        result = gibbs_grouped(grouped_data, info_prior_grouped, settings=settings)
        expected = (3 + grouped_data.total_count) * settings.total_iterations
        assert result.variate_count == expected

    def test_posterior_matches_nint(
        self, grouped_data, info_prior_grouped, nint_grouped, quick_chain_settings
    ):
        result = gibbs_grouped(
            grouped_data, info_prior_grouped, settings=quick_chain_settings
        )
        posterior = result.posterior()
        assert posterior.mean("omega") == pytest.approx(
            nint_grouped.mean("omega"), rel=0.03
        )
        assert posterior.mean("beta") == pytest.approx(
            nint_grouped.mean("beta"), rel=0.03
        )

    def test_general_alpha_runs(self, grouped_data, info_prior_grouped):
        settings = ChainSettings(n_samples=100, burn_in=50, thin=1, seed=9)
        result = gibbs_grouped(
            grouped_data, info_prior_grouped, alpha0=2.0, settings=settings
        )
        assert result.samples.shape == (100, 2)
        assert np.all(result.samples > 0.0)

    @pytest.mark.parametrize("alpha0", [1.0, 2.0])
    def test_latent_draw_block_preserves_variate_stream(
        self, grouped_data, alpha0
    ):
        # The one-uniform-call latent block must consume the generator
        # exactly like the per-interval sample_truncated_gamma loop it
        # replaced: same draws, same latent sum, same final rng state —
        # this is what keeps golden Table 7 and campaign traces frozen.
        from repro.stats.truncated import sample_truncated_gamma

        intervals = [item for item in grouped_data.intervals() if item[2] > 0]
        beta = 2.0 * alpha0 / grouped_data.horizon

        legacy_rng = np.random.default_rng(2024)
        legacy_sum = 0.0
        for lo, hi, count in intervals:
            legacy_sum += float(
                sample_truncated_gamma(
                    lo, hi, alpha0, beta, count, legacy_rng
                ).sum()
            )

        int_lo = np.array([lo for lo, _, _ in intervals])
        int_hi = np.array([hi for _, hi, _ in intervals])
        int_count = np.array(
            [count for _, _, count in intervals], dtype=np.int64
        )
        draw_slots = np.repeat(np.arange(int_count.size), int_count)

        vec_rng = np.random.default_rng(2024)
        p_lo = sc.gammainc(alpha0, beta * int_lo)
        p_hi = sc.gammainc(alpha0, beta * int_hi)
        degenerate = p_hi <= p_lo
        low = np.where(degenerate, int_lo, p_lo)
        high = np.where(degenerate, int_hi, p_hi)
        u = vec_rng.uniform(low[draw_slots], high[draw_slots])
        draws = u.copy()
        invert = ~degenerate[draw_slots]
        draws[invert] = sc.gammaincinv(alpha0, u[invert]) / beta
        vec_sum = _IntervalSums(int_count)(draws)

        assert vec_sum == legacy_sum
        # Stream position identical: next draws coincide.
        assert vec_rng.uniform() == legacy_rng.uniform()

    def test_sampler_golden_head(self, grouped_data, info_prior_grouped):
        # Freeze the head of the (omega, beta) chain against the
        # per-interval loop: any change to the sweep's variate
        # consumption order or arithmetic shows up here immediately.
        settings = ChainSettings(n_samples=4, burn_in=0, thin=1, seed=777)
        _assert_matches_loop(grouped_data, info_prior_grouped, 1.0, settings)

    @pytest.mark.parametrize("alpha0", [1.0, 2.0])
    def test_stream_matches_per_interval_loop(
        self, grouped_data, info_prior_grouped, flat_prior, alpha0
    ):
        # System 17 grouped data (27 occupied intervals, counts 1-5),
        # under the Info and the flat prior.
        settings = ChainSettings(n_samples=300, burn_in=100, thin=2, seed=41)
        _assert_matches_loop(grouped_data, info_prior_grouped, alpha0, settings)
        _assert_matches_loop(grouped_data, flat_prior, alpha0, settings)

    @pytest.mark.parametrize("alpha0", [1.0, 2.0])
    def test_stream_matches_loop_on_wide_intervals(
        self, wide_grouped_data, alpha0
    ):
        total = wide_grouped_data.total_count
        prior = ModelPrior.informative(1.1 * total, 0.2 * total, 0.05, 0.02)
        settings = ChainSettings(n_samples=200, burn_in=50, thin=1, seed=42)
        _assert_matches_loop(wide_grouped_data, prior, alpha0, settings)

    def test_flat_prior_heavy_tail_behaviour(self, grouped_data, flat_prior):
        # DG-NoInfo: the paper reports wild MCMC excursions (E[omega] in
        # the thousands). Our sampler must at least run and produce a
        # long right tail relative to the Info case.
        settings = ChainSettings(n_samples=2000, burn_in=500, thin=2, seed=10)
        result = gibbs_grouped(grouped_data, flat_prior, settings=settings)
        posterior = result.posterior()
        skew = posterior.central_moment("omega", 3)
        assert skew > 0.0
