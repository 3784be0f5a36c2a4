"""Markov chain Monte Carlo samplers for gamma-type NHPP SRMs.

Implements the paper's MCMC baseline (Section 4.3): Kuo–Yang Gibbs
sampling for failure-time data, a data-augmentation Gibbs sampler for
grouped data (Tanner & Wong), the lock-step lane engine that runs many
chains as one sweep, and convergence diagnostics.
"""

from repro.bayes.mcmc.chains import (
    VARIATE_LAYERS,
    ChainSettings,
    MCMCResult,
    kept_draws,
)
from repro.bayes.mcmc.gibbs_failure_time import gibbs_failure_time
from repro.bayes.mcmc.gibbs_grouped import gibbs_grouped
from repro.bayes.mcmc.lane_engine import (
    gibbs_failure_time_lanes,
    gibbs_grouped_lanes,
)
from repro.bayes.mcmc.multichain import MultiChainResult, run_chains
from repro.bayes.mcmc.diagnostics import (
    effective_sample_size,
    geweke_z,
    gelman_rubin,
    autocorrelation,
)
from repro.bayes.mcmc.quantile_ci import quantile_coverage_interval, sample_size_for_quantile

__all__ = [
    "ChainSettings",
    "MCMCResult",
    "MultiChainResult",
    "VARIATE_LAYERS",
    "kept_draws",
    "run_chains",
    "gibbs_failure_time",
    "gibbs_grouped",
    "gibbs_failure_time_lanes",
    "gibbs_grouped_lanes",
    "effective_sample_size",
    "geweke_z",
    "gelman_rubin",
    "autocorrelation",
    "quantile_coverage_interval",
    "sample_size_for_quantile",
]
