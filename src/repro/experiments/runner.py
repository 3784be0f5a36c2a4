"""Fit every posterior-approximation method on one scenario.

The fitting order matters: VB2 runs first because the paper derives the
NINT integration rectangle from VB2 quantiles (Section 6).

Scenarios are independent of one another, so :func:`run_scenarios`
fans them out over the validation layer's process-pool campaign runner
when asked; each scenario's output depends only on the scenario and
the scale, never on its position in the batch or the worker count.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.bayes.joint import JointPosterior
from repro.bayes.laplace import fit_laplace
from repro.bayes.mcmc.gibbs_failure_time import gibbs_failure_time
from repro.bayes.mcmc.gibbs_grouped import gibbs_grouped
from repro.bayes.nint import fit_nint
from repro.core.vb1 import fit_vb1
from repro.core.vb2 import fit_vb2
from repro.data.failure_data import FailureTimeData
from repro.experiments.config import ExperimentScale, QUICK_SCALE, Scenario
from repro.metrics.timing import time_callable

__all__ = [
    "MethodResults",
    "run_all_methods",
    "run_scenarios",
    "select_results",
    "METHOD_ORDER",
]

METHOD_ORDER = ("NINT", "LAPL", "MCMC", "VB1", "VB2")


@dataclass
class MethodResults:
    """Posteriors and timings for one scenario.

    Attributes
    ----------
    scenario:
        The scenario that was run.
    scale:
        The scale the methods were fitted at.
    posteriors:
        ``{method: posterior}`` in the paper's method order.
    seconds:
        Wall-clock fitting time per method.
    extra:
        Method-specific metadata (e.g. MCMC variate counts).
    """

    scenario: Scenario
    scale: ExperimentScale
    posteriors: dict[str, JointPosterior]
    seconds: dict[str, float]
    extra: dict[str, dict] = field(default_factory=dict)

    def moments(self) -> dict[str, dict[str, float]]:
        """Table 1 quantities per method."""
        return {
            name: posterior.moments_summary()
            for name, posterior in self.posteriors.items()
        }


def run_all_methods(
    scenario: Scenario,
    scale: ExperimentScale = QUICK_SCALE,
    methods: tuple[str, ...] = METHOD_ORDER,
) -> MethodResults:
    """Fit the requested methods on a scenario.

    Parameters
    ----------
    scenario:
        One of :func:`repro.experiments.config.paper_scenarios`.
    scale:
        MCMC schedule and NINT resolution.
    methods:
        Subset of ``("NINT", "LAPL", "MCMC", "VB1", "VB2")``; VB2 is
        always fitted (NINT needs it for its integration limits).
    """
    unknown = set(methods) - set(METHOD_ORDER)
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")
    data = scenario.load_data()
    prior = scenario.prior()
    alpha0 = scenario.alpha0
    posteriors: dict[str, JointPosterior] = {}
    seconds: dict[str, float] = {}
    extra: dict[str, dict] = {}

    vb_config = scenario.vb_config
    vb2_timing = time_callable(
        lambda: fit_vb2(data, prior, alpha0, vb_config),
        label=f"VB2 {scenario.name}",
    )
    vb2 = vb2_timing.result

    if "NINT" in methods:
        timing = time_callable(
            lambda: fit_nint(
                data,
                prior,
                alpha0,
                reference_posterior=vb2,
                n_omega=scale.nint_resolution,
                n_beta=scale.nint_resolution,
            ),
            label=f"NINT {scenario.name}",
        )
        posteriors["NINT"] = timing.result
        seconds["NINT"] = timing.seconds
    if "LAPL" in methods:
        timing = time_callable(
            lambda: fit_laplace(data, prior, alpha0),
            label=f"LAPL {scenario.name}",
        )
        posteriors["LAPL"] = timing.result
        seconds["LAPL"] = timing.seconds
    if "MCMC" in methods:
        if isinstance(data, FailureTimeData):
            sampler = gibbs_failure_time
        else:
            sampler = gibbs_grouped
        rng = np.random.default_rng(scale.mcmc.seed)
        timing = time_callable(
            lambda: sampler(data, prior, alpha0, settings=scale.mcmc, rng=rng),
            label=f"MCMC {scenario.name}",
        )
        result = timing.result
        posteriors["MCMC"] = result.posterior()
        seconds["MCMC"] = timing.seconds
        extra["MCMC"] = {
            "variate_count": result.variate_count,
            "sampler": result.extra.get("sampler"),
        }
    if "VB1" in methods:
        timing = time_callable(
            lambda: fit_vb1(data, prior, alpha0, vb_config),
            label=f"VB1 {scenario.name}",
        )
        posteriors["VB1"] = timing.result
        seconds["VB1"] = timing.seconds
    if "VB2" in methods:
        posteriors["VB2"] = vb2
        seconds["VB2"] = vb2_timing.seconds
        extra["VB2"] = {
            "nmax": vb2.diagnostics.get("nmax"),
            "tail_mass": vb2.diagnostics.get("tail_mass"),
        }

    ordered = {name: posteriors[name] for name in METHOD_ORDER if name in posteriors}
    return MethodResults(
        scenario=scenario,
        scale=scale,
        posteriors=ordered,
        seconds=seconds,
        extra=extra,
    )


def run_scenarios(
    scenarios: Sequence[Scenario],
    scale: ExperimentScale = QUICK_SCALE,
    methods: tuple[str, ...] = METHOD_ORDER,
    *,
    workers: int | None = 1,
) -> dict[str, MethodResults]:
    """Fit the requested methods on several scenarios, keyed by name.

    With ``workers > 1`` the scenarios run concurrently on a process
    pool (:mod:`repro.validation.parallel`); because each scenario is
    fitted independently, per-scenario results are identical to the
    serial run and invariant to the order of ``scenarios``.
    """
    # Imported here: repro.validation.parallel is dependency-free, but
    # keeping the runner import-light preserves the layering for
    # consumers that only ever fit single scenarios.
    from repro.validation.parallel import parallel_map

    scenarios = list(scenarios)
    names = [scenario.name for scenario in scenarios]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate scenario names in batch: {names}")
    results = parallel_map(
        partial(_run_scenario_task, scale, methods), scenarios, workers=workers
    )
    return dict(zip(names, results))


def select_results(
    results: Mapping[str, MethodResults],
    names: Iterable[str],
    scale: ExperimentScale | None = None,
) -> dict[str, MethodResults]:
    """The named scenarios' entries of ``results``, in ``names`` order.

    This is how one set of fits serves several tables. Raises
    ``ValueError`` when a scenario is missing, or when ``scale`` is
    given and a scenario was fitted at another scale.
    """
    names = list(names)
    missing = [name for name in names if name not in results]
    if missing:
        raise ValueError(f"results have no entry for scenarios {missing}")
    selected = {name: results[name] for name in names}
    for name, result in selected.items():
        if scale is not None and result.scale != scale:
            raise ValueError(
                f"{name} was fitted at {result.scale}, not at the requested {scale}"
            )
    return selected


def _run_scenario_task(
    scale: ExperimentScale, methods: tuple[str, ...], scenario: Scenario
) -> MethodResults:
    """Module-level task wrapper so scenario batches pickle cleanly."""
    return run_all_methods(scenario, scale=scale, methods=methods)
