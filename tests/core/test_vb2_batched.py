"""Bit-identity of the lane-sweep fit path against the scalar per-N loop.

The lane solvers in ``gamma_updates`` promise *exact* agreement with
the scalar fixed-point path — not merely close-to. These tests pin that
contract at three levels: one dataset's latent-count range through the
lane solvers against per-N scalar loops; whole ``fit_vb2`` posteriors
(weights, component parameters, ELBO, iteration diagnostics) with
``batched_solver`` on versus off; and warm refits, whose per-lane seeds
and tolerances are replayed through the scalar solver.
"""

import numpy as np
import pytest

from repro.bayes.priors import ModelPrior
from repro.core.config import VBConfig
from repro.core.gamma_updates import (
    GroupedStats,
    TimesStats,
    elbo_constant,
    solve_conditional_grouped,
    solve_conditional_times,
    solve_grouped_lanes,
    solve_times_lanes,
)
from repro.core.vb2 import WARM_LOOSE_RTOL, WARM_LOOSE_WEIGHT, fit_vb2
from repro.core.warmstart import warm_start_from
from repro.data.failure_data import GroupedData
from repro.stats.special import log_sum_exp

SCALAR = VBConfig(batched_solver=False)
BATCHED = VBConfig(batched_solver=True)

FIELDS = ("n", "zeta", "xi", "a_omega", "b_omega", "a_beta", "b_beta",
          "log_weight", "iterations")


def assert_solutions_identical(batch, scalar_list):
    assert len(batch.n) == len(scalar_list)
    for i, want in enumerate(scalar_list):
        for field in FIELDS:
            assert getattr(batch, field)[i] == getattr(want, field), field


def assert_posteriors_identical(batched, scalar):
    assert np.array_equal(batched.n_values, scalar.n_values)
    assert np.array_equal(batched.weights, scalar.weights)
    for b, s in zip(batched._omega_components, scalar._omega_components):
        assert (b.shape, b.rate) == (s.shape, s.rate)
    for b, s in zip(batched._beta_components, scalar._beta_components):
        assert (b.shape, b.rate) == (s.shape, s.rate)
    assert batched.elbo == scalar.elbo
    assert batched.diagnostics["nmax"] == scalar.diagnostics["nmax"]
    assert (
        batched.diagnostics["fixed_point_iterations"]
        == scalar.diagnostics["fixed_point_iterations"]
    )


def _per_lane(n, value):
    return np.full(n.size, float(value))


def grouped_range(lo, hi, alpha0, prior, stats, config):
    """One dataset's latent counts ``[lo, hi]`` as grouped lanes."""
    n = np.arange(lo, hi + 1, dtype=float)
    occupied = stats.counts > 0
    k = int(occupied.sum())
    return solve_grouped_lanes(
        n, alpha0, _per_lane(n, stats.total), _per_lane(n, stats.horizon),
        np.repeat(np.arange(n.size), k),
        np.tile(stats.edges[:-1][occupied], n.size),
        np.tile(stats.edges[1:][occupied], n.size),
        np.tile(stats.counts[occupied].astype(float), n.size),
        _per_lane(n, np.dot(stats.counts, stats.edges[1:])),
        _per_lane(n, prior.omega.shape), _per_lane(n, prior.omega.rate),
        _per_lane(n, prior.beta.shape), _per_lane(n, prior.beta.rate),
        config,
    )


def times_range(lo, hi, alpha0, prior, stats, config):
    """One dataset's latent counts ``[lo, hi]`` as failure-time lanes."""
    n = np.arange(lo, hi + 1, dtype=float)
    return solve_times_lanes(
        n, alpha0, _per_lane(n, stats.me), _per_lane(n, stats.sum_times),
        _per_lane(n, stats.horizon),
        _per_lane(n, prior.omega.shape), _per_lane(n, prior.omega.rate),
        _per_lane(n, prior.beta.shape), _per_lane(n, prior.beta.rate),
        config,
    )


class TestRangeSolvers:
    """One dataset's range through the lane solvers replays the scalar
    per-N loop field for field."""

    @pytest.mark.parametrize("alpha0", [1.0, 2.0])
    def test_grouped_range_matches_scalar_loop(
        self, grouped_data, info_prior_grouped, alpha0
    ):
        stats = GroupedStats.from_data(grouped_data)
        lo, hi = stats.total, stats.total + 40
        batch = grouped_range(lo, hi, alpha0, info_prior_grouped, stats, SCALAR)
        scalar = [
            solve_conditional_grouped(
                n, alpha0, info_prior_grouped, stats, SCALAR
            )
            for n in range(lo, hi + 1)
        ]
        assert_solutions_identical(batch, scalar)

    def test_grouped_range_matches_with_improper_prior(self, grouped_data):
        prior = ModelPrior.noninformative()
        stats = GroupedStats.from_data(grouped_data)
        lo, hi = stats.total, stats.total + 25
        batch = grouped_range(lo, hi, 1.0, prior, stats, SCALAR)
        scalar = [
            solve_conditional_grouped(n, 1.0, prior, stats, SCALAR)
            for n in range(lo, hi + 1)
        ]
        assert_solutions_identical(batch, scalar)

    @pytest.mark.parametrize("alpha0", [2.0, 0.7])
    def test_times_range_matches_scalar_loop(
        self, times_data, info_prior_times, alpha0
    ):
        stats = TimesStats.from_data(times_data)
        lo, hi = stats.me, stats.me + 40
        batch = times_range(lo, hi, alpha0, info_prior_times, stats, SCALAR)
        scalar = [
            solve_conditional_times(
                n, alpha0, info_prior_times, stats, SCALAR
            )
            for n in range(lo, hi + 1)
        ]
        assert_solutions_identical(batch, scalar)

    def test_range_validation(self, grouped_data, info_prior_grouped):
        stats = GroupedStats.from_data(grouped_data)
        with pytest.raises(ValueError, match="below the observed"):
            grouped_range(
                stats.total - 1, stats.total, 1.0,
                info_prior_grouped, stats, SCALAR,
            )
        with pytest.raises(ValueError, match="below the observed"):
            fit_vb2(grouped_data, info_prior_grouped, nmax=stats.total - 1)


class TestFitLevelIdentity:
    """Whole fit_vb2 posteriors agree exactly, batched vs scalar."""

    def test_grouped_info(self, grouped_data, info_prior_grouped):
        batched = fit_vb2(grouped_data, info_prior_grouped, config=BATCHED)
        scalar = fit_vb2(grouped_data, info_prior_grouped, config=SCALAR)
        assert_posteriors_identical(batched, scalar)

    @pytest.mark.slow
    def test_grouped_noinfo_clamped(self, grouped_data, flat_prior):
        batched = fit_vb2(
            grouped_data, flat_prior,
            config=VBConfig(
                batched_solver=True,
                truncation_policy="clamp",
                nmax_ceiling=512,
            ),
        )
        scalar = fit_vb2(
            grouped_data, flat_prior,
            config=VBConfig(
                batched_solver=False,
                truncation_policy="clamp",
                nmax_ceiling=512,
            ),
        )
        assert_posteriors_identical(batched, scalar)

    def test_grouped_delayed_s_shaped(self, grouped_data, info_prior_grouped):
        batched = fit_vb2(
            grouped_data, info_prior_grouped, alpha0=2.0, config=BATCHED
        )
        scalar = fit_vb2(
            grouped_data, info_prior_grouped, alpha0=2.0, config=SCALAR
        )
        assert_posteriors_identical(batched, scalar)

    def test_times_delayed_s_shaped(self, times_data, info_prior_times):
        batched = fit_vb2(
            times_data, info_prior_times, alpha0=2.0, config=BATCHED
        )
        scalar = fit_vb2(
            times_data, info_prior_times, alpha0=2.0, config=SCALAR
        )
        assert_posteriors_identical(batched, scalar)

    def test_fixed_nmax_mode(self, grouped_data, info_prior_grouped):
        batched = fit_vb2(
            grouped_data, info_prior_grouped, config=BATCHED, nmax=90
        )
        scalar = fit_vb2(
            grouped_data, info_prior_grouped, config=SCALAR, nmax=90
        )
        assert_posteriors_identical(batched, scalar)


class TestWarmRefitReference:
    """Warm refits against the scalar per-N solver, independent of the
    fleet: ``fit_vb2`` and ``fit_vb2_fleet`` share one lane driver, and
    the ``batched_solver=False`` path keeps every lane tight, so neither
    can check a warm lane sweep. Here each lane of a warm-chained
    tracker-style campaign is re-solved on its own with the seed and
    tolerance its warm state assigns it."""

    PRIOR = ModelPrior.informative(30.0, 10.0, 0.2, 0.1)
    PERIODS = (3, 16)

    @staticmethod
    def campaign(seed=2024, periods=16, failures=24):
        # The tracker benchmark's decaying campaign shape, smaller.
        rng = np.random.default_rng(seed)
        intensity = np.exp(-np.arange(periods) / 25.0)
        return GroupedData(
            counts=rng.multinomial(failures, intensity / intensity.sum()),
            boundaries=np.arange(1.0, periods + 1.0),
        )

    @staticmethod
    def rebuild(data, prior, alpha0, warm, support):
        """The warm posterior over ``support``, one scalar solve per N."""
        stats = GroupedStats.from_data(data)
        lo, hi = int(support[0]), int(support[-1])
        seeds = warm.seeds_for_range(lo, hi)
        rtols = warm.lane_rtols(
            lo, hi, rtol=BATCHED.fixed_point_rtol,
            loose_rtol=WARM_LOOSE_RTOL, weight_tolerance=WARM_LOOSE_WEIGHT,
        )
        solutions = [
            solve_conditional_grouped(
                n, alpha0, prior, stats,
                VBConfig(fixed_point_rtol=float(rtol)),
                xi_start=float(seed) if np.isfinite(seed) else None,
            )
            for n, seed, rtol in zip(range(lo, hi + 1), seeds, rtols)
        ]
        log_w = np.array([s.log_weight for s in solutions])
        log_norm = log_sum_exp(log_w)
        weights = np.exp(log_w - log_norm)
        return (
            solutions,
            weights / float(weights.sum()),  # as VBPosterior stores them
            log_norm + elbo_constant(stats, prior, alpha0),
        )

    @pytest.mark.parametrize("alpha0", [1.0, 2.0])
    def test_warm_lanes_match_scalar_solves(self, alpha0):
        data = self.campaign()
        posterior, checked = None, 0
        for end in range(1, self.PERIODS[-1] + 1):
            period_data = data.truncate(end)
            warm = None if posterior is None else warm_start_from(posterior)
            posterior = fit_vb2(
                period_data, self.PRIOR, alpha0,
                VBConfig(warm_start=warm),
            )
            if end not in self.PERIODS:
                continue
            assert posterior.diagnostics["warm_started"]
            rtols = warm.lane_rtols(
                int(posterior.n_values[0]), int(posterior.n_values[-1]),
                rtol=BATCHED.fixed_point_rtol, loose_rtol=WARM_LOOSE_RTOL,
                weight_tolerance=WARM_LOOSE_WEIGHT,
            )
            assert np.any(rtols == WARM_LOOSE_RTOL)  # loose lanes present
            solutions, weights, elbo = self.rebuild(
                period_data, self.PRIOR, alpha0, warm, posterior.n_values
            )
            assert np.array_equal(
                posterior.n_values, [s.n for s in solutions]
            )
            assert np.array_equal(posterior.weights, weights)
            for got, want in zip(posterior._omega_components, solutions):
                assert (got.shape, got.rate) == (want.a_omega, want.b_omega)
            for got, want in zip(posterior._beta_components, solutions):
                assert (got.shape, got.rate) == (want.a_beta, want.b_beta)
            assert posterior.elbo == elbo
            assert posterior.diagnostics["fixed_point_iterations"] == sum(
                s.iterations for s in solutions
            )
            checked += 1
        assert checked == len(self.PERIODS)
