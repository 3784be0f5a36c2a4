"""Simulation-based calibration for the posterior-method registry.

The procedure (Talts et al. 2018, adapted to the NHPP setting):

1. draw a truth ``(ω*, β*)`` from the (proper) prior;
2. simulate a failure campaign from the model at the truth
   (:func:`repro.data.simulation.simulate_failure_times`);
3. fit the method under test;
4. compute the rank of each truth among ``L`` posterior draws — here
   via the posterior marginal CDF (the probability-integral transform
   ``u``) followed by a ``Binomial(L, u)`` draw, which has exactly the
   distribution of the draw-and-count rank but needs no posterior
   sampler;
5. test the ranks for uniformity on ``{0..L}``
   (:mod:`repro.validation.uniformity`).

Ranks are computed for the raw parameters *and* the two derived
quantities the paper ultimately cares about: the residual-fault count
``ω (1 - G(te))`` and the software reliability over a prediction
window. A posterior can be calibrated in ``(ω, β)`` yet mis-calibrated
in the nonlinear functionals — VB1's zero-covariance factorisation is
exactly such a case.

Every replication derives its randomness from ``(seed, index)`` alone
(:mod:`repro.validation.seeding`), so campaigns parallelise over a
process pool with bit-identical results.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro import obs
from repro.bayes.joint import JointPosterior
from repro.bayes.priors import GammaPrior, ModelPrior
from repro.core.reliability import ReliabilityIncrement, ResidualSurvival
from repro.data.simulation import simulate_failure_times
from repro.exceptions import ReproError
from repro.experiments.config import ExperimentScale, QUICK_SCALE
from repro.models.registry import make_model
from repro.validation.fitters import coverage_fitters, fit_replication
from repro.validation.parallel import campaign_map
from repro.validation.seeding import replication_seed
from repro.validation.uniformity import UniformityReport, uniformity_report

__all__ = [
    "SBC_QUANTITIES",
    "SBC_METHODS",
    "SBCSpec",
    "ReplicationOutcome",
    "SBCResult",
    "run_sbc",
    "run_replication",
]

#: Quantities whose posterior calibration is checked.
SBC_QUANTITIES = ("omega", "beta", "residual", "reliability")

#: Methods the campaign fitters can fit — the same labels as
#: ``repro.experiments.runner.METHOD_ORDER``, defined here too because
#: importing the runner from this module would close an import cycle
#: (runner → metrics.coverage → validation).
SBC_METHODS = ("NINT", "LAPL", "MCMC", "VB1", "VB2")

_DEFAULT_PRIOR = ModelPrior.informative(40.0, 12.0, 0.1, 0.04)

_logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SBCSpec:
    """Specification of one SBC campaign.

    Attributes
    ----------
    model:
        Registry name of the data-generating family (gamma-type models
        with free ``(ω, β)``; see :mod:`repro.models.registry`).
    method:
        One of ``SBC_METHODS`` — the fitting procedure under test.
    prior:
        Proper prior; it is both the truth-generating distribution and
        the prior handed to the fitter (the SBC self-consistency
        requirement).
    alpha0:
        Lifetime shape passed to the fitters.
    horizon:
        Observation horizon of each simulated campaign. The default
        prior (ω ~ 40±12, β ~ 0.1±0.04) observes ~90% of faults by the
        default horizon.
    reliability_window:
        Prediction window ``u`` for the reliability rank; defaults to
        ``horizon / 5``.
    replications:
        Campaign count.
    ranks:
        ``L``: posterior draws per rank statistic (ranks lie in
        ``[0, L]``). Talts et al. use 1 less than a power of two so
        uniform bins tile exactly.
    min_failures:
        Campaigns observing fewer failures are recorded as skipped.
    seed:
        Root seed of the campaign's deterministic stream tree.
    scale:
        MCMC schedule / NINT resolution used by those methods.
    """

    model: str = "goel-okumoto"
    method: str = "VB2"
    prior: ModelPrior = field(default_factory=lambda: _DEFAULT_PRIOR)
    alpha0: float = 1.0
    horizon: float = 25.0
    reliability_window: float | None = None
    replications: int = 200
    ranks: int = 63
    min_failures: int = 3
    seed: int = 0
    scale: ExperimentScale = field(default_factory=lambda: QUICK_SCALE)

    def __post_init__(self) -> None:
        if self.method not in SBC_METHODS:
            raise ValueError(
                f"method must be one of {SBC_METHODS}, got {self.method!r}"
            )
        if not self.prior.is_proper:
            raise ValueError(
                "SBC draws truths from the prior, so it must be proper "
                "(both gamma marginals with positive shape and rate)"
            )
        if self.replications < 1:
            raise ValueError("replications must be positive")
        if self.ranks < 1:
            raise ValueError("ranks (L) must be positive")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        if self.min_failures < 1:
            raise ValueError("min_failures must be at least 1")

    @property
    def window(self) -> float:
        """Effective reliability prediction window."""
        if self.reliability_window is not None:
            return self.reliability_window
        return self.horizon / 5.0

    def config_dict(self) -> dict:
        """JSON-ready description (for artifacts)."""
        return {
            "model": self.model,
            "method": self.method,
            "prior": {
                "omega": {"shape": self.prior.omega.shape,
                          "rate": self.prior.omega.rate},
                "beta": {"shape": self.prior.beta.shape,
                         "rate": self.prior.beta.rate},
            },
            "alpha0": self.alpha0,
            "horizon": self.horizon,
            "reliability_window": self.window,
            "replications": self.replications,
            "ranks": self.ranks,
            "min_failures": self.min_failures,
            "seed": self.seed,
            "scale": self.scale.label,
        }


@dataclass(frozen=True)
class ReplicationOutcome:
    """Result of a single SBC replication.

    ``status`` is ``"ok"``, ``"skipped"`` (too few failures) or
    ``"failed"`` (the fitter raised a library error — itself a finding,
    counted in the summary).
    """

    index: int
    status: str
    failures: int
    truth: dict[str, float]
    ranks: dict[str, int] | None = None
    detail: str = ""


def _draw_truth(prior: ModelPrior, rng: np.random.Generator) -> tuple[float, float]:
    """Sample ``(ω*, β*)`` from the proper gamma prior."""

    def draw(marginal: GammaPrior) -> float:
        return float(rng.gamma(marginal.shape, 1.0 / marginal.rate))

    return draw(prior.omega), draw(prior.beta)


def _pit_values(
    spec: SBCSpec, posterior: JointPosterior, omega: float, beta: float
) -> dict[str, float]:
    """Posterior CDF at the truth, per checked quantity.

    The parameter PITs go through the posterior's marginal CDF — for
    VB posteriors one vectorized gamma-mixture broadcast — and the
    derived-quantity PITs through the reliability CDF quadrature.
    Quantile/root non-convergence anywhere in this evaluation raises
    :class:`~repro.exceptions.ConvergenceError` (never a silent
    unconverged midpoint), which :func:`run_replication` records as a
    ``"failed"`` outcome — itself a calibration finding.
    """
    survival = ResidualSurvival(alpha0=spec.alpha0, te=spec.horizon)
    window = ReliabilityIncrement(alpha0=spec.alpha0, te=spec.horizon, u=spec.window)
    residual_truth = omega * float(survival(beta))
    reliability_truth = float(np.exp(-omega * window(beta)))
    # P(ω G_bar(te) <= m) = P(exp(-ω G_bar) >= e^-m) = 1 - P(R' <= e^-m)
    # (continuous posterior, so the boundary has no mass).
    residual_pit = 1.0 - posterior.reliability_cdf(
        float(np.exp(-residual_truth)), survival
    )
    return {
        "omega": posterior.cdf("omega", omega),
        "beta": posterior.cdf("beta", beta),
        "residual": residual_pit,
        "reliability": posterior.reliability_cdf(reliability_truth, window),
    }


def run_replication(spec: SBCSpec, index: int) -> ReplicationOutcome:
    """One SBC replication; deterministic in ``(spec, index)``.

    Three independent streams are derived from ``(spec.seed, index)``:
    truth-and-data simulation, the fitter (MCMC only), and the rank
    binomial draw — so changing e.g. the MCMC schedule never perturbs
    the simulated campaigns.
    """
    sim_rng = np.random.default_rng(replication_seed(spec.seed, index, 0))
    fit_seed = replication_seed(spec.seed, index, 1)
    rank_rng = np.random.default_rng(replication_seed(spec.seed, index, 2))
    omega, beta = _draw_truth(spec.prior, sim_rng)
    truth = {"omega": omega, "beta": beta}
    model = make_model(spec.model, omega=omega, beta=beta)
    data = simulate_failure_times(model, spec.horizon, sim_rng)
    if data.count < spec.min_failures:
        return ReplicationOutcome(
            index=index, status="skipped", failures=data.count, truth=truth
        )
    try:
        fit = coverage_fitters(
            [spec.method], scale=spec.scale, alpha0=spec.alpha0
        )[spec.method]
        posterior = fit_replication(fit, data, spec.prior, fit_seed)
        pit = _pit_values(spec, posterior, omega, beta)
    except ReproError as exc:
        _logger.info("SBC replication %d failed: %s: %s",
                     index, type(exc).__name__, exc)
        obs.event(
            "sbc.replication_failed",
            index=index,
            error=type(exc).__name__,
        )
        return ReplicationOutcome(
            index=index,
            status="failed",
            failures=data.count,
            truth=truth,
            detail=f"{type(exc).__name__}: {exc}",
        )
    ranks = {
        name: int(rank_rng.binomial(spec.ranks, min(max(u, 0.0), 1.0)))
        for name, u in pit.items()
    }
    return ReplicationOutcome(
        index=index, status="ok", failures=data.count, truth=truth, ranks=ranks
    )


@dataclass(frozen=True)
class SBCResult:
    """Aggregated outcome of an SBC campaign."""

    spec: SBCSpec
    outcomes: tuple[ReplicationOutcome, ...]

    @property
    def used(self) -> int:
        """Replications contributing ranks."""
        return sum(1 for o in self.outcomes if o.status == "ok")

    @property
    def skipped(self) -> int:
        """Replications with too few failures."""
        return sum(1 for o in self.outcomes if o.status == "skipped")

    @property
    def failed(self) -> int:
        """Replications whose fit raised a library error."""
        return sum(1 for o in self.outcomes if o.status == "failed")

    def ranks(self, quantity: str) -> np.ndarray:
        """All collected ranks for one quantity."""
        if quantity not in SBC_QUANTITIES:
            raise ValueError(
                f"quantity must be one of {SBC_QUANTITIES}, got {quantity!r}"
            )
        return np.array(
            [o.ranks[quantity] for o in self.outcomes if o.status == "ok"],
            dtype=np.int64,
        )

    def reports(self) -> dict[str, UniformityReport]:
        """Uniformity verdict per quantity."""
        return {
            quantity: uniformity_report(
                quantity, self.ranks(quantity), self.spec.ranks
            )
            for quantity in SBC_QUANTITIES
        }

    @property
    def calibrated(self) -> bool:
        """True when every quantity passes both uniformity checks."""
        return all(report.calibrated for report in self.reports().values())

    def to_dict(self) -> dict:
        """JSON-ready summary (deterministic, see artifacts module)."""
        return {
            "config": self.spec.config_dict(),
            "replications": {
                "requested": self.spec.replications,
                "used": self.used,
                "skipped": self.skipped,
                "failed": self.failed,
            },
            "uniformity": {
                quantity: report.to_dict()
                for quantity, report in self.reports().items()
            },
            "ranks": {
                quantity: self.ranks(quantity).tolist()
                for quantity in SBC_QUANTITIES
            },
        }


def run_sbc(
    spec: SBCSpec,
    *,
    workers: int | None = 1,
    chunk_size: int | None = None,
    indices: Sequence[int] | None = None,
) -> SBCResult:
    """Run an SBC campaign, optionally across a process pool.

    Parameters
    ----------
    spec:
        Campaign specification.
    workers:
        Process count (``1`` = serial, ``None`` = one per core). The
        result is identical for every value.
    chunk_size:
        Replications per dispatched chunk (auto when omitted).
    indices:
        Replication indices to run; defaults to ``range(replications)``.
        Useful for resuming or spot-checking single replications.

    When a telemetry collector is active (:func:`repro.obs.active`),
    each replication is run under its own capture and the exported
    payloads are merged into the ambient collector in spawn-key
    (replication-index) order — the identical code path serially and on
    a process pool, so the merged trace is byte-identical either way.
    """
    if indices is None:
        indices = range(spec.replications)
    indices = list(indices)
    outcomes = campaign_map(
        partial(run_replication, spec), indices, label="sbc.replications",
        workers=workers, chunk_size=chunk_size,
    )
    if obs.enabled():
        obs.event(
            "sbc.campaign",
            method=spec.method,
            model=spec.model,
            replications=len(indices),
            ok=sum(1 for o in outcomes if o.status == "ok"),
            skipped=sum(1 for o in outcomes if o.status == "skipped"),
            failed=sum(1 for o in outcomes if o.status == "failed"),
        )
    return SBCResult(spec=spec, outcomes=tuple(outcomes))

