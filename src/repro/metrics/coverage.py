"""Frequentist coverage studies for Bayesian interval procedures.

The operational justification for preferring VB2 over VB1 is not the
KL divergence — it is that VB1's too-narrow intervals *under-cover*:
their actual frequentist coverage falls short of the nominal credible
level. This module runs that experiment for any fitting procedure:
simulate campaigns from a known model, fit, and count how often the
nominal intervals contain the truth.

Each replication owns a ``numpy.random.SeedSequence`` child derived
from ``(seed, index)`` (see :mod:`repro.validation.seeding`), so the
study parallelises over a process pool (``workers > 1``) with results
bit-identical to the serial run. Fitters must then be picklable —
module-level functions such as ``fit_vb2`` / ``fit_vb1`` are, and so
is :class:`repro.validation.fitters.MCMCFitter`, whose chain draws from
the replication's ``(seed, index, 1)`` stream.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro import obs
from repro.bayes.joint import JointPosterior
from repro.bayes.priors import ModelPrior
from repro.data.simulation import simulate_failure_times
from repro.exceptions import ReproError
from repro.models.base import NHPPModel
from repro.validation.fitters import fit_replication
from repro.validation.parallel import campaign_map
from repro.validation.seeding import replication_seed

__all__ = ["CoverageResult", "interval_coverage_study"]

_PARAMS = ("omega", "beta")


@dataclass
class CoverageResult:
    """Outcome of a coverage study for one fitting procedure.

    Attributes
    ----------
    label:
        Name of the procedure.
    level:
        Nominal two-sided credible level.
    replications:
        Number of simulated campaigns actually used.
    hits:
        Per-parameter counts of intervals containing the truth.
    widths:
        Per-parameter mean interval widths.
    """

    label: str
    level: float
    replications: int
    hits: dict[str, int] = field(default_factory=dict)
    widths: dict[str, float] = field(default_factory=dict)

    def coverage(self, param: str) -> float:
        """Empirical coverage rate for the parameter."""
        return self.hits[param] / self.replications

    def coverage_standard_error(self, param: str) -> float:
        """Binomial standard error of the empirical coverage."""
        p = self.coverage(param)
        return math.sqrt(p * (1.0 - p) / self.replications)

    def undercovers(self, param: str, z: float = 2.0) -> bool:
        """True when the empirical coverage is significantly below the
        nominal level (one-sided z-test at the given threshold)."""
        shortfall = self.level - self.coverage(param)
        se = math.sqrt(self.level * (1.0 - self.level) / self.replications)
        return shortfall > z * se

    def to_dict(self) -> dict:
        """JSON-ready summary (validation artifacts)."""
        return {
            "label": self.label,
            "level": self.level,
            "replications": self.replications,
            "coverage": {p: self.coverage(p) for p in sorted(self.hits)},
            "mean_width": {p: self.widths[p] for p in sorted(self.widths)},
            "undercovers": {p: self.undercovers(p) for p in sorted(self.hits)},
        }


def _interval_score(
    posterior: JointPosterior,
    truths: dict[str, float],
    levels: np.ndarray,
) -> tuple[dict[str, bool], dict[str, float]]:
    """Hit flags and widths of one posterior's central intervals, both
    endpoints through the batched quantile path (one simultaneous
    inversion per parameter)."""
    hits = {}
    widths = {}
    for param, truth in truths.items():
        lo, hi = posterior.quantile_batch(param, levels)
        hits[param] = bool(lo <= truth <= hi)
        widths[param] = float(hi - lo)
    return hits, widths


def _coverage_replication(
    true_model: NHPPModel,
    prior: ModelPrior,
    fitters: dict[str, Callable[..., JointPosterior]],
    horizon: float,
    level: float,
    min_failures: int,
    seed: int,
    index: int,
) -> dict[str, tuple[dict[str, bool], dict[str, float]]] | None:
    """Simulate one campaign and evaluate every fitter's intervals.

    Returns ``None`` for skipped campaigns — too few failures, or any
    fitter raising a library error (non-convergence now *raises*
    rather than silently returning an unconverged quantile; skipping
    keeps every procedure scored on the same campaigns) — else
    ``{label: (hit flags, interval widths)}`` per parameter. MCMC
    fitters draw from ``replication_seed(seed, index, 1)``
    (:func:`~repro.validation.fitters.fit_replication`).
    """
    rng = np.random.default_rng(replication_seed(seed, index))
    data = simulate_failure_times(true_model, horizon, rng)
    if data.count < min_failures:
        return None
    truths = {
        "omega": true_model.omega,
        "beta": float(true_model.params["beta"]),
    }
    tail = 0.5 * (1.0 - level)
    levels = np.array([tail, 1.0 - tail])
    fit_seed = replication_seed(seed, index, 1)
    out: dict[str, tuple[dict[str, bool], dict[str, float]]] = {}
    for label, fit in fitters.items():
        try:
            posterior = fit_replication(fit, data, prior, fit_seed)
            hits, widths = _interval_score(posterior, truths, levels)
        except ReproError as exc:
            obs.event(
                "coverage.replication_failed",
                index=index,
                label=label,
                error=type(exc).__name__,
            )
            return None
        out[label] = (hits, widths)
    return out


def interval_coverage_study(
    true_model: NHPPModel,
    prior: ModelPrior,
    fitters: dict[str, Callable[..., JointPosterior]],
    *,
    horizon: float,
    level: float = 0.99,
    replications: int = 200,
    min_failures: int = 3,
    seed: int = 0,
    workers: int | None = 1,
) -> dict[str, CoverageResult]:
    """Run a coverage study for several fitting procedures on common data.

    Parameters
    ----------
    true_model:
        Data-generating NHPP model; its ``omega`` and ``beta`` are the
        truths the intervals must cover.
    prior:
        Prior handed to every fitter.
    fitters:
        ``{label: fit}`` where ``fit(data, prior)`` returns a
        :class:`JointPosterior` (e.g. ``fit_vb2`` / ``fit_vb1``). An
        :class:`repro.validation.fitters.MCMCFitter` runs one chain
        per campaign on the ``(seed, i, 1)`` stream.
    horizon:
        Observation horizon of each simulated campaign.
    level:
        Nominal two-sided credible level to assess.
    replications:
        Number of simulated campaigns.
    min_failures:
        Campaigns with fewer observed failures are skipped (no
        meaningful fit); all procedures see the same campaigns.
    seed:
        Root seed; campaign ``i`` depends only on ``(seed, i)``.
    workers:
        Process count for the campaign runner (``1`` = serial,
        ``None`` = one per core); the results are identical for any
        value.
    """
    if replications < 1:
        raise ValueError("replications must be positive")
    worker = partial(
        _coverage_replication,
        true_model,
        prior,
        fitters,
        horizon,
        level,
        min_failures,
        seed,
    )
    per_replication = campaign_map(
        worker, range(replications), label="coverage.replications",
        workers=workers,
    )
    if obs.enabled():
        obs.event(
            "coverage.campaign",
            replications=replications,
            used=sum(1 for o in per_replication if o is not None),
            confidence=level,
        )
    results = {
        label: CoverageResult(
            label=label,
            level=level,
            replications=0,
            hits={p: 0 for p in _PARAMS},
            widths={p: 0.0 for p in _PARAMS},
        )
        for label in fitters
    }
    used = 0
    for outcome in per_replication:
        if outcome is None:
            continue
        used += 1
        for label, (hits, widths) in outcome.items():
            record = results[label]
            for param in _PARAMS:
                record.hits[param] += int(hits[param])
                record.widths[param] += widths[param]
    if used == 0:
        raise ValueError(
            "no simulated campaign reached min_failures; increase the "
            "horizon or the model's omega"
        )
    for record in results.values():
        record.replications = used
        for param in record.widths:
            record.widths[param] /= used
    return results
