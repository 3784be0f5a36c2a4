"""Multi-chain MCMC running with convergence assessment.

The paper runs one long chain; standard practice is to run several from
dispersed starting points and check the Gelman–Rubin potential scale
reduction factor before trusting the draws. This module wraps any of
the package's samplers in that workflow.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.bayes.mcmc.chains import ChainSettings, MCMCResult
from repro.bayes.mcmc.diagnostics import (
    effective_sample_size,
    gelman_rubin,
    geweke_z,
)
from repro.bayes.sample_posterior import EmpiricalPosterior

__all__ = ["MultiChainResult", "run_chains"]


@dataclass
class MultiChainResult:
    """Pooled result of several independent chains.

    Attributes
    ----------
    chains:
        Per-chain results in seed order.
    rhat:
        Gelman–Rubin statistic per parameter ("omega", "beta").
    ess:
        Pooled effective sample size per parameter.
    geweke:
        Per-chain Geweke z-scores per parameter.
    """

    chains: list[MCMCResult]
    rhat: dict[str, float]
    ess: dict[str, float]
    geweke: dict[str, list[float]]

    @property
    def converged(self) -> bool:
        """Conventional acceptance: R-hat below 1.1 for every parameter."""
        return all(value < 1.1 for value in self.rhat.values())

    def posterior(self) -> EmpiricalPosterior:
        """Pooled samples of all chains as one posterior."""
        samples = np.concatenate([chain.samples for chain in self.chains])
        total_variates = sum(chain.variate_count for chain in self.chains)
        return EmpiricalPosterior(
            samples,
            diagnostics={
                "n_chains": len(self.chains),
                "rhat": dict(self.rhat),
                "ess": dict(self.ess),
                "variate_count": total_variates,
            },
        )


def run_chains(
    sampler: Callable[..., MCMCResult],
    data,
    prior,
    *,
    alpha0: float = 1.0,
    n_chains: int = 4,
    settings: ChainSettings | None = None,
    base_seed: int = 0,
) -> MultiChainResult:
    """Run ``n_chains`` independent chains and pool them with diagnostics.

    Parameters
    ----------
    sampler:
        :func:`gibbs_failure_time`, :func:`gibbs_grouped`, or any
        callable with their ``(data, prior, alpha0, settings=, rng=)``
        signature.
    data, prior, alpha0:
        Passed through to the sampler.
    n_chains:
        Number of independent chains (each gets seed ``base_seed + i``).
    settings:
        Per-chain schedule (the burn-in applies to every chain).
    """
    if n_chains < 2:
        raise ValueError("run at least two chains for convergence checks")
    settings = settings or ChainSettings()
    chains = [
        sampler(
            data,
            prior,
            alpha0,
            settings=settings.with_seed(seed),
            rng=np.random.default_rng(seed),
        )
        for seed in range(base_seed, base_seed + n_chains)
    ]

    # One stacked (n_chains, n) array per parameter feeds the batched
    # diagnostics: one FFT for all chains' ACFs, one Gelman-Rubin pass.
    stacked = np.stack([chain.samples for chain in chains])
    rhat = {}
    ess = {}
    geweke = {}
    for column, param in ((0, "omega"), (1, "beta")):
        traces = np.ascontiguousarray(stacked[:, :, column])
        rhat[param] = gelman_rubin(traces)
        ess[param] = float(sum(effective_sample_size(traces).tolist()))
        geweke[param] = [float(z) for z in geweke_z(traces)]
    return MultiChainResult(chains=chains, rhat=rhat, ess=ess, geweke=geweke)
