"""Chain bookkeeping shared by all MCMC samplers."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro import obs
from repro.bayes.mcmc.diagnostics import effective_sample_size
from repro.bayes.sample_posterior import EmpiricalPosterior

__all__ = [
    "ChainSettings",
    "MCMCResult",
    "kept_draws",
    "record_sampler_telemetry",
]


def kept_draws(burn_in: int, thin: int, total_iterations: int) -> int:
    """Number of draws the keep rule retains from a sweep schedule.

    The rule keeps post-burn-in sweep ``index`` (0-based) when
    ``(index + 1) % thin == 0`` — i.e. ``floor((total - burn_in)/thin)``
    draws. Exposed so the schedule validation (and its tests) share the
    samplers' arithmetic instead of re-deriving it.
    """
    return max((total_iterations - burn_in) // thin, 0)


def record_sampler_telemetry(
    sampler: str, samples: np.ndarray, variate_count: int, **extra_metrics: float
) -> None:
    """Report the common per-chain cost and mixing metrics to the
    telemetry layer (:mod:`repro.obs`).

    Records the variate count (the paper's Table 6 cost metric), the
    number of kept draws, and the per-parameter effective sample size
    (FFT-based, cheap relative to the sampling itself). ``extra_metrics``
    lets a sampler add its own scalars under ``mcmc.<key>``.
    """
    if not obs.enabled():
        return
    obs.counter_add("mcmc.chains")
    obs.counter_add("mcmc.variates", variate_count)
    obs.observe("mcmc.samples_kept", samples.shape[0])
    if samples.shape[0] >= 4:
        ess_omega = effective_sample_size(samples[:, 0])
        ess_beta = effective_sample_size(samples[:, 1])
        obs.observe("mcmc.ess_omega", ess_omega)
        obs.observe("mcmc.ess_beta", ess_beta)
    for key, value in extra_metrics.items():
        obs.observe(f"mcmc.{key}", float(value))


@dataclass(frozen=True)
class ChainSettings:
    """Burn-in / thinning schedule.

    The paper's defaults (Section 6): discard 10000 burn-in samples,
    then keep every 10th draw until 20000 samples are collected — i.e.
    210000 post-burn-in iterations.
    """

    n_samples: int = 20_000
    burn_in: int = 10_000
    thin: int = 10
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")
        if self.burn_in < 0:
            raise ValueError("burn_in must be non-negative")
        if self.thin < 1:
            raise ValueError("thin must be at least 1")
        # The schedule must retain exactly n_samples draws — a mismatch
        # here would make the samplers silently return a short sample
        # array, so it is rejected up front rather than truncated later.
        retained = kept_draws(self.burn_in, self.thin, self.total_iterations)
        if retained != self.n_samples:
            raise ValueError(
                f"schedule keeps {retained} draws, expected n_samples="
                f"{self.n_samples} (burn_in={self.burn_in}, thin={self.thin}, "
                f"total={self.total_iterations})"
            )

    @property
    def total_iterations(self) -> int:
        """Total Gibbs sweeps the schedule requires."""
        return self.burn_in + self.thin * self.n_samples

    def with_seed(self, seed: int | None) -> "ChainSettings":
        """Copy of the schedule with a different seed (chain spawning)."""
        return replace(self, seed=seed)


@dataclass
class MCMCResult:
    """Collected samples plus provenance metadata.

    Attributes
    ----------
    samples:
        Kept draws, shape ``(n_samples, 2)`` in the order (omega, beta).
    settings:
        The schedule that produced them.
    variate_count:
        Number of elementary random variates generated, the cost metric
        of the paper's Table 6.
    extra:
        Sampler-specific metadata (latent-count traces, acceptance
        rates, ...).
    """

    samples: np.ndarray
    settings: ChainSettings
    variate_count: int
    extra: dict = field(default_factory=dict)

    def posterior(self) -> EmpiricalPosterior:
        """Wrap the samples as a joint posterior."""
        return EmpiricalPosterior(
            self.samples,
            method_name=self.extra.get("method_name", "MCMC"),
            diagnostics={
                "variate_count": self.variate_count,
                "n_samples": self.settings.n_samples,
                "burn_in": self.settings.burn_in,
                "thin": self.settings.thin,
                **{k: v for k, v in self.extra.items() if k != "method_name"},
            },
        )
