"""Picklable ``fit(data, prior)`` callables for campaigns.

The parallel campaign runner ships fitters to worker processes, so
they must be partials of module-level functions or picklable
instances. NINT gets a wrapper that first fits VB2 for its integration
rectangle, as the paper prescribes.

MCMC is the frozen :class:`MCMCFitter`, one direct Gibbs chain per
call. A campaign replication fits it through :func:`fit_replication`,
which hands it a generator of its own ``(…, 1)`` seed branch, so the
chain never perturbs the simulated data and serial and parallel
campaigns stay identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.bayes.joint import JointPosterior
from repro.bayes.laplace import fit_laplace
from repro.bayes.mcmc.chains import ChainSettings
from repro.bayes.mcmc.gibbs_failure_time import gibbs_failure_time
from repro.bayes.nint import fit_nint
from repro.bayes.priors import ModelPrior
from repro.core.vb1 import fit_vb1
from repro.core.vb2 import fit_vb2

__all__ = [
    "MCMCFitter",
    "coverage_fitters",
    "fit_nint_via_vb2",
    "fit_replication",
]


def fit_nint_via_vb2(
    data,
    prior: ModelPrior,
    alpha0: float = 1.0,
    *,
    resolution: int | None = None,
) -> JointPosterior:
    """NINT with the paper's VB2-quantile integration limits.

    ``resolution`` sets both grid axes (``n_omega = n_beta``); ``None``
    keeps :func:`~repro.bayes.nint.fit_nint`'s default.
    """
    reference = fit_vb2(data, prior, alpha0)
    kwargs = {}
    if resolution is not None:
        kwargs = {"n_omega": resolution, "n_beta": resolution}
    return fit_nint(data, prior, alpha0, reference_posterior=reference, **kwargs)


def _default_campaign_settings() -> ChainSettings:
    """Campaign-scale schedule.

    Shorter than the paper's single-fit schedule — a coverage campaign
    multiplies the chain cost by the replication count, and interval
    endpoints at the 0.5% tail stabilise well before 20000 draws.
    """
    return ChainSettings(n_samples=4_000, burn_in=2_000, thin=2)


@dataclass(frozen=True)
class MCMCFitter:
    """Kuo–Yang Gibbs fitter for failure-time campaigns.

    ``fit(data, prior)`` runs one direct chain seeded from
    ``settings.seed``; campaigns pass ``rng`` (see
    :func:`fit_replication`) so each replication draws from its own
    stream.
    """

    settings: ChainSettings = field(default_factory=_default_campaign_settings)
    alpha0: float = 1.0

    def __call__(
        self,
        data,
        prior: ModelPrior,
        rng: np.random.Generator | None = None,
    ) -> JointPosterior:
        result = gibbs_failure_time(
            data, prior, self.alpha0, settings=self.settings, rng=rng
        )
        return result.posterior()


def fit_replication(
    fit, data, prior: ModelPrior, fit_seed: np.random.SeedSequence
) -> JointPosterior:
    """One campaign replication's fit of ``fit``.

    An :class:`MCMCFitter` draws from a fresh generator on ``fit_seed``
    (the replication's ``(…, 1)`` branch); every other fitter is called
    as ``fit(data, prior)``.
    """
    if isinstance(fit, MCMCFitter):
        return fit(data, prior, rng=np.random.default_rng(fit_seed))
    return fit(data, prior)


def coverage_fitters(labels, scale=None, alpha0: float = 1.0) -> dict:
    """``{label: fit}`` for the requested method labels.

    Every fitter runs at the lifetime shape ``alpha0``, the campaign's
    own. With an :class:`~repro.experiments.config.ExperimentScale`,
    the scale-sensitive methods honour it: NINT integrates on the
    scale's grid resolution and MCMC runs the scale's chain schedule.
    The returned callables stay picklable — partials of module-level
    functions and frozen fitter instances.

    >>> sorted(coverage_fitters(["VB2", "VB1"]))
    ['VB1', 'VB2']
    """
    nint = partial(fit_nint_via_vb2, alpha0=alpha0)
    mcmc = MCMCFitter(alpha0=alpha0)
    if scale is not None:
        nint = partial(nint, resolution=scale.nint_resolution)
        mcmc = MCMCFitter(scale.mcmc, alpha0)
    table = {
        "NINT": nint,
        "LAPL": partial(fit_laplace, alpha0=alpha0),
        "MCMC": mcmc,
        "VB1": partial(fit_vb1, alpha0=alpha0),
        "VB2": partial(fit_vb2, alpha0=alpha0),
    }
    unknown = [label for label in labels if label not in table]
    if unknown:
        raise ValueError(
            f"no coverage fitter for {unknown}; "
            f"available: {sorted(table)}"
        )
    return {label: table[label] for label in labels}
