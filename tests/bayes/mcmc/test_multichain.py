"""Tests for the multi-chain MCMC workflow."""

import numpy as np
import pytest

from repro.bayes.mcmc.chains import ChainSettings
from repro.bayes.mcmc.gibbs_failure_time import gibbs_failure_time
from repro.bayes.mcmc.gibbs_grouped import gibbs_grouped
from repro.bayes.mcmc.multichain import run_chains


@pytest.fixture(scope="module")
def multichain(times_data, info_prior_times):
    settings = ChainSettings(n_samples=1500, burn_in=500, thin=1)
    return run_chains(
        gibbs_failure_time,
        times_data,
        info_prior_times,
        n_chains=3,
        settings=settings,
        base_seed=100,
    )


class TestRunChains:
    def test_chain_count_and_independence(self, multichain):
        assert len(multichain.chains) == 3
        # Different seeds: chains differ.
        assert not np.array_equal(
            multichain.chains[0].samples, multichain.chains[1].samples
        )

    def test_converged_on_well_behaved_posterior(self, multichain):
        assert multichain.converged
        assert multichain.rhat["omega"] < 1.05
        assert multichain.rhat["beta"] < 1.05

    def test_ess_reported(self, multichain):
        assert multichain.ess["omega"] > 100.0
        assert multichain.ess["beta"] > 100.0

    def test_geweke_scores_per_chain(self, multichain):
        assert len(multichain.geweke["omega"]) == 3
        assert all(abs(z) < 5.0 for z in multichain.geweke["omega"])

    def test_pooled_posterior(self, multichain, nint_times):
        posterior = multichain.posterior()
        assert posterior.n_samples == 3 * 1500
        assert posterior.mean("omega") == pytest.approx(
            nint_times.mean("omega"), rel=0.03
        )
        assert posterior.diagnostics["n_chains"] == 3

    @pytest.mark.parametrize(
        "sampler", [gibbs_failure_time, gibbs_grouped], ids=["times", "grouped"]
    )
    def test_chain_i_runs_on_seed_base_plus_i(
        self, times_data, grouped_data, info_prior_times, sampler
    ):
        data = times_data if sampler is gibbs_failure_time else grouped_data
        settings = ChainSettings(n_samples=30, burn_in=16, thin=2)
        result = run_chains(
            sampler, data, info_prior_times, n_chains=3,
            settings=settings, base_seed=9,
        )
        for index, chain in enumerate(result.chains):
            alone = sampler(
                data, info_prior_times, settings=settings.with_seed(9 + index)
            )
            assert chain.settings.seed == 9 + index
            assert np.array_equal(chain.samples, alone.samples)
            assert chain.variate_count == alone.variate_count

    def test_requires_two_chains(self, times_data, info_prior_times):
        with pytest.raises(ValueError):
            run_chains(
                gibbs_failure_time, times_data, info_prior_times, n_chains=1
            )
