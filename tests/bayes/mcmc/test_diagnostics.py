"""Tests for the MCMC convergence diagnostics."""

import numpy as np
import pytest

from repro.bayes.mcmc.diagnostics import (
    autocorrelation,
    effective_sample_size,
    gelman_rubin,
    geweke_z,
)


def ar1(n, rho, rng, loc=0.0):
    noise = rng.standard_normal(n)
    chain = np.empty(n)
    chain[0] = noise[0]
    for i in range(1, n):
        chain[i] = rho * chain[i - 1] + math_sqrt_1m(rho) * noise[i]
    return chain + loc


def math_sqrt_1m(rho):
    return float(np.sqrt(1.0 - rho**2))


class TestAutocorrelation:
    def test_lag_zero_is_one(self, rng):
        chain = rng.standard_normal(1000)
        assert autocorrelation(chain)[0] == pytest.approx(1.0)

    def test_iid_has_small_lags(self, rng):
        chain = rng.standard_normal(50_000)
        rho = autocorrelation(chain, max_lag=10)
        assert np.all(np.abs(rho[1:]) < 0.03)

    def test_ar1_matches_theory(self, rng):
        chain = ar1(200_000, 0.7, rng)
        rho = autocorrelation(chain, max_lag=5)
        assert rho[1] == pytest.approx(0.7, abs=0.02)
        assert rho[2] == pytest.approx(0.49, abs=0.03)

    def test_constant_chain(self):
        rho = autocorrelation(np.ones(100))
        assert rho[0] == 1.0
        assert np.all(rho[1:] == 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            autocorrelation(np.array([1.0]))


class TestESS:
    def test_iid_ess_near_n(self, rng):
        chain = rng.standard_normal(20_000)
        assert effective_sample_size(chain) == pytest.approx(20_000, rel=0.1)

    def test_correlated_chain_reduced(self, rng):
        chain = ar1(50_000, 0.9, rng)
        ess = effective_sample_size(chain)
        # Theory: ESS = n (1-rho)/(1+rho) ~ n/19.
        assert ess == pytest.approx(50_000 / 19.0, rel=0.3)

    def test_tiny_chain(self):
        assert effective_sample_size(np.array([1.0, 2.0])) == 2.0


class TestGeweke:
    def test_stationary_chain_small_z(self, rng):
        chain = rng.standard_normal(20_000)
        assert abs(geweke_z(chain)) < 3.0

    def test_trending_chain_flagged(self, rng):
        chain = rng.standard_normal(5000) + np.linspace(0.0, 5.0, 5000)
        assert abs(geweke_z(chain)) > 5.0

    def test_fraction_validation(self, rng):
        chain = rng.standard_normal(100)
        with pytest.raises(ValueError):
            geweke_z(chain, first=0.6, last=0.6)


class TestGelmanRubin:
    def test_same_distribution_near_one(self, rng):
        chains = [rng.standard_normal(5000) for _ in range(4)]
        assert gelman_rubin(chains) == pytest.approx(1.0, abs=0.02)

    def test_shifted_chains_flagged(self, rng):
        chains = [
            rng.standard_normal(2000),
            rng.standard_normal(2000) + 5.0,
        ]
        assert gelman_rubin(chains) > 1.5

    def test_needs_two_chains(self, rng):
        with pytest.raises(ValueError):
            gelman_rubin([rng.standard_normal(100)])

