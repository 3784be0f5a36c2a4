"""Markov chain Monte Carlo samplers for gamma-type NHPP SRMs.

Implements the paper's MCMC baseline (Section 4.3): Kuo–Yang Gibbs
sampling for failure-time data, a data-augmentation Gibbs sampler for
grouped data (Tanner & Wong), multi-chain runs and convergence
diagnostics.
"""

from repro.bayes.mcmc.chains import (
    ChainSettings,
    MCMCResult,
    kept_draws,
)
from repro.bayes.mcmc.gibbs_failure_time import gibbs_failure_time
from repro.bayes.mcmc.gibbs_grouped import gibbs_grouped
from repro.bayes.mcmc.multichain import MultiChainResult, run_chains
from repro.bayes.mcmc.diagnostics import (
    effective_sample_size,
    geweke_z,
    gelman_rubin,
    autocorrelation,
)

__all__ = [
    "ChainSettings",
    "MCMCResult",
    "MultiChainResult",
    "kept_draws",
    "run_chains",
    "gibbs_failure_time",
    "gibbs_grouped",
    "effective_sample_size",
    "geweke_z",
    "gelman_rubin",
    "autocorrelation",
]
