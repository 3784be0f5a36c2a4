"""Misspecification campaign: scenario × severity × method coverage sweep.

For every cell ``(scenario family, severity)`` the driver simulates
``replications`` failure campaigns from the out-of-family generator
(:mod:`repro.robustness.generators`), fits every posterior method of
the registry on each, and scores the central credible intervals against
the *process* truths — the expected total fault count ``Λ(∞)`` and the
expected residual count ``Λ(∞) − Λ(te)``, which exist for any
finite-failure process regardless of the fitted family. Severity 0 of
each family reproduces the well-specified Goel–Okumoto baseline, so the
coverage-versus-severity curve of each method is anchored at its
calibrated value and the *degradation* is read directly off the curve.

When ``sandwich`` is enabled, the same VB2 fit is additionally scored
with the sandwich spread correction
(:func:`repro.bayes.sandwich.apply_sandwich`) under the label
``"VB2+SW"``, and the result quantifies how much of each cell's lost
coverage the correction buys back.

Determinism mirrors the SBC campaign: every replication derives its
randomness from ``(seed, cell index, replication index)`` alone, the
flattened ``(cell, replication)`` job list runs through
:func:`repro.validation.parallel.campaign_map` with telemetry captured
per job and merged in spawn order, and each job's MCMC chain draws
from its own ``(seed, cell, replication, 1)`` stream — so serial and
parallel runs are byte-identical.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro import obs
from repro.bayes.joint import JointPosterior
from repro.bayes.priors import ModelPrior
from repro.bayes.sandwich import apply_sandwich
from repro.core.reliability import ResidualSurvival
from repro.exceptions import ReproError
from repro.experiments.config import ExperimentScale, QUICK_SCALE
from repro.robustness.generators import (
    SCENARIO_FAMILIES,
    MisspecScenario,
    default_severities,
    make_scenario,
)
from repro.validation.fitters import coverage_fitters, fit_replication
from repro.validation.parallel import campaign_map
from repro.validation.seeding import replication_seed

__all__ = [
    "ROBUSTNESS_METHODS",
    "ROBUSTNESS_TARGETS",
    "SANDWICH_LABEL",
    "RobustnessSpec",
    "RobustnessResult",
    "run_robustness",
]

#: The five posterior methods swept by default (registry labels).
ROBUSTNESS_METHODS = ("NINT", "LAPL", "MCMC", "VB1", "VB2")

#: Coverage targets: Λ(∞) ("omega") and Λ(∞) − Λ(te) ("residual").
ROBUSTNESS_TARGETS = ("omega", "residual")

#: Label of the sandwich-corrected VB2 column.
SANDWICH_LABEL = "VB2+SW"

#: Families whose data violate the *shape* of the inter-failure law
#: (rather than the trend); the acceptance check for the sandwich
#: correction is evaluated on these.
CONTAMINATION_FAMILIES = ("contaminated", "truncated-reporting")

_DEFAULT_PRIOR = ModelPrior.informative(40.0, 12.0, 0.1, 0.04)


@dataclass(frozen=True)
class RobustnessSpec:
    """Specification of one misspecification campaign.

    Attributes
    ----------
    families:
        Scenario families to sweep (names from
        :data:`~repro.robustness.generators.SCENARIO_FAMILIES`).
    severities:
        Optional ``{family: severity grid}`` override; families not
        listed use :func:`~repro.robustness.generators.
        default_severities`. Grids conventionally start at 0, the
        well-specified anchor of the degradation curve.
    methods:
        Posterior-method labels to score (subset of
        :data:`ROBUSTNESS_METHODS`).
    sandwich:
        Also score the sandwich-corrected VB2 posterior as
        :data:`SANDWICH_LABEL` (a VB2 fit is made even when ``"VB2"``
        is not itself in ``methods``).
    prior:
        Prior handed to every fitter. The default matches the
        generators' Goel–Okumoto baseline (ω ~ 40±12, β ~ 0.1±0.04),
        so severity 0 is well-specified *and* well-prior'd.
    alpha0:
        Lifetime shape of the fitted gamma-type family (1 = the
        Goel–Okumoto fits the scenarios perturb).
    horizon:
        Observation horizon of each simulated campaign.
    level:
        Nominal two-sided credible level. The default 0.9 leaves
        enough nominal misses that degradation is resolvable with
        moderate replication counts.
    replications:
        Simulated campaigns per cell.
    min_failures:
        Campaigns observing fewer failures are skipped (all methods
        skip the same campaigns).
    seed:
        Root seed of the campaign's deterministic stream tree.
    scale:
        MCMC schedule / NINT resolution used by those methods.
    """

    families: tuple[str, ...] = tuple(SCENARIO_FAMILIES)
    severities: Mapping[str, tuple[float, ...]] | None = None
    methods: tuple[str, ...] = ROBUSTNESS_METHODS
    sandwich: bool = True
    prior: ModelPrior = field(default_factory=lambda: _DEFAULT_PRIOR)
    alpha0: float = 1.0
    horizon: float = 25.0
    level: float = 0.9
    replications: int = 100
    min_failures: int = 3
    seed: int = 0
    scale: ExperimentScale = field(default_factory=lambda: QUICK_SCALE)

    def __post_init__(self) -> None:
        if not self.families:
            raise ValueError("at least one scenario family is required")
        unknown = [f for f in self.families if f not in SCENARIO_FAMILIES]
        if unknown:
            raise ValueError(
                f"unknown scenario families {unknown}; "
                f"available: {sorted(SCENARIO_FAMILIES)}"
            )
        bad = [m for m in self.methods if m not in ROBUSTNESS_METHODS]
        if bad:
            raise ValueError(
                f"unknown methods {bad}; available: {ROBUSTNESS_METHODS}"
            )
        if not self.methods and not self.sandwich:
            raise ValueError("nothing to score: no methods and no sandwich")
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must be in (0, 1)")
        if self.replications < 1:
            raise ValueError("replications must be positive")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        if self.min_failures < 1:
            raise ValueError("min_failures must be at least 1")

    # ------------------------------------------------------------------
    def family_severities(self, family: str) -> tuple[float, ...]:
        """The severity grid swept for one family."""
        if self.severities is not None and family in self.severities:
            return tuple(float(s) for s in self.severities[family])
        return default_severities(family)

    def cells(self) -> list[tuple[str, float]]:
        """All ``(family, severity)`` cells in deterministic order."""
        return [
            (family, severity)
            for family in self.families
            for severity in self.family_severities(family)
        ]

    def labels(self) -> tuple[str, ...]:
        """All scored column labels, sandwich included."""
        labels = list(self.methods)
        if self.sandwich:
            labels.append(SANDWICH_LABEL)
        return tuple(labels)

    def scenario(self, family: str, severity: float) -> MisspecScenario:
        """Instantiate one cell's data-generating scenario."""
        return make_scenario(family, severity)

    def config_dict(self) -> dict:
        """JSON-ready description (for artifacts)."""
        return {
            "families": list(self.families),
            "severities": {
                family: list(self.family_severities(family))
                for family in self.families
            },
            "methods": list(self.methods),
            "sandwich": self.sandwich,
            "prior": {
                "omega": {"shape": self.prior.omega.shape,
                          "rate": self.prior.omega.rate},
                "beta": {"shape": self.prior.beta.shape,
                         "rate": self.prior.beta.rate},
            },
            "alpha0": self.alpha0,
            "horizon": self.horizon,
            "level": self.level,
            "replications": self.replications,
            "min_failures": self.min_failures,
            "seed": self.seed,
            "scale": self.scale.label,
        }


# ----------------------------------------------------------------------
# Per-replication work
# ----------------------------------------------------------------------
def _interval_levels(level: float) -> np.ndarray:
    tail = 0.5 * (1.0 - level)
    return np.array([tail, 1.0 - tail])


def _score_posterior(
    posterior: JointPosterior,
    truths: dict[str, float],
    levels: np.ndarray,
    survival: ResidualSurvival,
) -> tuple[dict[str, bool], dict[str, float]]:
    """Hit flags and widths for both coverage targets."""
    lo, hi = posterior.quantile_batch("omega", levels)
    r_lo, r_hi = posterior.residual_quantile_batch(levels, survival)
    hits = {
        "omega": bool(lo <= truths["omega"] <= hi),
        "residual": bool(r_lo <= truths["residual"] <= r_hi),
    }
    widths = {
        "omega": float(hi - lo),
        "residual": float(r_hi - r_lo),
    }
    return hits, widths


def _robustness_replication(spec: RobustnessSpec, job: int) -> dict | None:
    """Simulate one cell replication and score every method.

    ``job = cell index * replications + replication index``; the
    simulation stream is ``(seed, cell, rep, 0)`` and the MCMC chain
    draws from ``(seed, cell, rep, 1)``, so method choices never perturb
    the data.
    Returns ``None`` for skipped campaigns (too few failures, or any
    fitter raising a library error — all methods stay scored on a
    common campaign set), else ``{"failures": m, "scores": {label:
    (hits, widths)}}``.
    """
    cell_index, rep_index = divmod(job, spec.replications)
    family, severity = spec.cells()[cell_index]
    scenario = spec.scenario(family, severity)
    sim_rng = np.random.default_rng(
        replication_seed(spec.seed, cell_index, rep_index, 0)
    )
    data = scenario.simulate(spec.horizon, sim_rng)
    if data.count < spec.min_failures:
        return None
    truths = scenario.truths(spec.horizon)
    levels = _interval_levels(spec.level)
    survival = ResidualSurvival(alpha0=spec.alpha0, te=spec.horizon)
    fitters = coverage_fitters(
        spec.methods, scale=spec.scale, alpha0=spec.alpha0
    )
    fit_seed = replication_seed(spec.seed, cell_index, rep_index, 1)
    scores: dict[str, tuple[dict[str, bool], dict[str, float]]] = {}
    vb2_posterior = None
    try:
        for label, fit in fitters.items():
            posterior = fit_replication(fit, data, spec.prior, fit_seed)
            if label == "VB2":
                vb2_posterior = posterior
            scores[label] = _score_posterior(posterior, truths, levels, survival)
        if spec.sandwich:
            if vb2_posterior is None:
                from repro.core.vb2 import fit_vb2

                vb2_posterior = fit_vb2(data, spec.prior, spec.alpha0)
            corrected = apply_sandwich(
                vb2_posterior, data, alpha0=spec.alpha0
            )
            scores[SANDWICH_LABEL] = _score_posterior(
                corrected, truths, levels, survival
            )
    except ReproError as exc:
        obs.event(
            "robustness.replication_failed",
            family=family,
            severity=severity,
            index=rep_index,
            error=type(exc).__name__,
        )
        return None
    return {"failures": data.count, "scores": scores}


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellResult:
    """Aggregated coverage of one ``(family, severity)`` cell."""

    family: str
    severity: float
    used: int
    skipped: int
    mean_failures: float
    hits: dict[str, dict[str, int]]
    width_sums: dict[str, dict[str, float]]

    def coverage(self, label: str, target: str) -> float:
        """Empirical coverage of one method on one target."""
        return self.hits[label][target] / self.used

    def mean_width(self, label: str, target: str) -> float:
        """Mean interval width of one method on one target."""
        return self.width_sums[label][target] / self.used

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "severity": self.severity,
            "used": self.used,
            "skipped": self.skipped,
            "mean_failures": self.mean_failures,
            "methods": {
                label: {
                    "coverage": {
                        target: self.coverage(label, target)
                        for target in ROBUSTNESS_TARGETS
                    },
                    "mean_width": {
                        target: self.mean_width(label, target)
                        for target in ROBUSTNESS_TARGETS
                    },
                }
                for label in sorted(self.hits)
            },
        }


@dataclass(frozen=True)
class RobustnessResult:
    """Aggregated outcome of a misspecification campaign."""

    spec: RobustnessSpec
    cells: tuple[CellResult, ...]

    def cell(self, family: str, severity: float) -> CellResult:
        """The aggregated cell for one scenario."""
        for cell in self.cells:
            if cell.family == family and cell.severity == severity:
                return cell
        raise KeyError(f"no cell ({family!r}, {severity!r}) in this campaign")

    def degradation_curves(self) -> dict:
        """Coverage-versus-severity curves with anchored degradation.

        ``{family: {label: {target: [{severity, coverage, degradation},
        ...]}}}`` where degradation is the anchor-cell coverage (first
        severity of the family's grid) minus the cell coverage.
        """
        curves: dict = {}
        for family in self.spec.families:
            grid = self.spec.family_severities(family)
            anchor = self.cell(family, grid[0])
            per_label: dict = {}
            for label in self.spec.labels():
                per_target: dict = {}
                for target in ROBUSTNESS_TARGETS:
                    base = anchor.coverage(label, target)
                    per_target[target] = [
                        {
                            "severity": severity,
                            "coverage": self.cell(family, severity).coverage(
                                label, target
                            ),
                            "degradation": base
                            - self.cell(family, severity).coverage(label, target),
                        }
                        for severity in grid
                    ]
                per_label[label] = per_target
            curves[family] = per_label
        return curves

    def sandwich_recovery(self) -> dict:
        """How much lost VB2 coverage the sandwich correction buys back.

        Per family and non-anchor severity: the VB2 coverage loss
        relative to the family's anchor cell, the corrected posterior's
        gain over raw VB2, and their ratio (``recovery_fraction``; 1.0
        means the full loss was recovered, clipped at 0 below). Only
        meaningful when both VB2 and the sandwich column were scored.
        """
        if not (self.spec.sandwich and "VB2" in self.spec.methods):
            return {}
        out: dict = {}
        for family in self.spec.families:
            grid = self.spec.family_severities(family)
            anchor = self.cell(family, grid[0])
            rows = []
            for severity in grid[1:]:
                cell = self.cell(family, severity)
                for target in ROBUSTNESS_TARGETS:
                    base = anchor.coverage("VB2", target)
                    raw = cell.coverage("VB2", target)
                    corrected = cell.coverage(SANDWICH_LABEL, target)
                    lost = base - raw
                    recovered = corrected - raw
                    fraction = (
                        max(recovered, 0.0) / lost if lost > 0.0 else None
                    )
                    rows.append(
                        {
                            "severity": severity,
                            "target": target,
                            "baseline_coverage": base,
                            "vb2_coverage": raw,
                            "corrected_coverage": corrected,
                            "lost": lost,
                            "recovered": recovered,
                            "recovery_fraction": fraction,
                        }
                    )
            out[family] = rows
        return out

    def sandwich_recovers_half_on_contamination(self) -> bool:
        """Acceptance flag: on at least one contamination-family cell
        with a real coverage loss, the corrected intervals recover at
        least half of it."""
        recovery = self.sandwich_recovery()
        for family in CONTAMINATION_FAMILIES:
            for row in recovery.get(family, ()):
                fraction = row["recovery_fraction"]
                if fraction is not None and fraction >= 0.5:
                    return True
        return False

    def to_dict(self) -> dict:
        """JSON-ready summary (deterministic, see artifacts module)."""
        payload = {
            "config": self.spec.config_dict(),
            "cells": [cell.to_dict() for cell in self.cells],
            "degradation_curves": self.degradation_curves(),
        }
        recovery = self.sandwich_recovery()
        if recovery:
            payload["sandwich_recovery"] = recovery
            payload["sandwich_recovers_half_on_contamination"] = (
                self.sandwich_recovers_half_on_contamination()
            )
        return payload


def _aggregate(
    spec: RobustnessSpec, outcomes: list[dict | None]
) -> RobustnessResult:
    """Per-cell scores from the job outcomes, which run cell-major."""
    labels = spec.labels()
    cells: list[CellResult] = []
    reps = spec.replications
    for cell_index, (family, severity) in enumerate(spec.cells()):
        cell_outcomes = outcomes[cell_index * reps:(cell_index + 1) * reps]
        used = [o for o in cell_outcomes if o is not None]
        if not used:
            raise ValueError(
                f"every replication of cell ({family}, {severity}) was "
                "skipped; lower min_failures or raise the horizon"
            )
        hits = {label: dict.fromkeys(ROBUSTNESS_TARGETS, 0) for label in labels}
        width_sums = {
            label: dict.fromkeys(ROBUSTNESS_TARGETS, 0.0) for label in labels
        }
        for outcome in used:
            for label in labels:
                cell_hits, cell_widths = outcome["scores"][label]
                for target in ROBUSTNESS_TARGETS:
                    hits[label][target] += int(cell_hits[target])
                    width_sums[label][target] += cell_widths[target]
        cells.append(
            CellResult(
                family=family,
                severity=severity,
                used=len(used),
                skipped=len(cell_outcomes) - len(used),
                mean_failures=float(
                    np.mean([o["failures"] for o in used])
                ),
                hits=hits,
                width_sums=width_sums,
            )
        )
    return RobustnessResult(spec=spec, cells=tuple(cells))


# ----------------------------------------------------------------------
# Campaign driver
# ----------------------------------------------------------------------
def run_robustness(
    spec: RobustnessSpec,
    *,
    workers: int | None = 1,
    chunk_size: int | None = None,
) -> RobustnessResult:
    """Run a misspecification campaign, optionally across a process pool.

    Parameters
    ----------
    spec:
        Campaign specification.
    workers:
        Process count (``1`` = serial, ``None`` = one per core). The
        result is identical for every value.
    chunk_size:
        Jobs per dispatched chunk (auto when omitted).

    The flattened ``(cell, replication)`` job list runs through the
    parallel campaign runner; when a telemetry collector is active each
    job runs under its own capture and the payloads are merged in
    spawn order, so the trace is byte-identical serially and on a
    pool.
    """
    outcomes = campaign_map(
        partial(_robustness_replication, spec),
        range(len(spec.cells()) * spec.replications),
        label="robustness.replications",
        workers=workers,
        chunk_size=chunk_size,
    )
    if obs.enabled():
        obs.event(
            "robustness.campaign",
            cells=len(spec.cells()),
            replications=spec.replications,
            ok=sum(1 for o in outcomes if o is not None),
            skipped=sum(1 for o in outcomes if o is None),
        )
    return _aggregate(spec, outcomes)
