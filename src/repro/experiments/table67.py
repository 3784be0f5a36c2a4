"""Tables 6 and 7: computational cost of MCMC versus VB2.

Table 6 times the paper-scale MCMC run (with its elementary-variate
count: 630000 for DT, 8.61M for DG at the default schedule). Table 7
times VB2 at fixed truncation points ``nmax ∈ {100, 200, 500, 1000}``
and reports the variational tail mass ``Pv(nmax)`` at each — showing
that small ``nmax`` already satisfies any reasonable tolerance and that
VB2 is orders of magnitude cheaper than MCMC.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.vb2 import fit_vb2
from repro.experiments.config import ExperimentScale, PAPER_SCALE, paper_scenarios
from repro.experiments.runner import MethodResults, run_all_methods, select_results
from repro.metrics.tables import render_table
from repro.metrics.timing import time_callable

__all__ = ["run_table6", "run_table7", "table6_rows", "render_table6",
           "render_table7", "Table6Row", "Table7Row", "DEFAULT_NMAX_VALUES"]

DEFAULT_NMAX_VALUES = (100, 200, 500, 1000)
_INFO_SCENARIOS = ("DT-Info", "DG-Info")


@dataclass(frozen=True)
class Table6Row:
    """MCMC cost for one scenario."""

    scenario: str
    variate_count: int
    seconds: float


@dataclass(frozen=True)
class Table7Row:
    """VB2 cost at one fixed truncation point."""

    scenario: str
    nmax: int
    tail_mass: float
    seconds: float


def table6_rows(results: dict[str, MethodResults]) -> list[Table6Row]:
    """Table 6 from the MCMC variate count and time that
    :func:`~repro.experiments.runner.run_all_methods` recorded for both
    Info scenarios."""
    rows = []
    for name, result in select_results(results, _INFO_SCENARIOS).items():
        rows.append(
            Table6Row(
                scenario=name,
                variate_count=result.extra["MCMC"]["variate_count"],
                seconds=result.seconds["MCMC"],
            )
        )
    return rows


def run_table6(scale: ExperimentScale = PAPER_SCALE) -> list[Table6Row]:
    """Time the Gibbs samplers on both Info scenarios."""
    scenarios = paper_scenarios()
    return table6_rows(
        {
            name: run_all_methods(scenarios[name], scale=scale, methods=("MCMC",))
            for name in _INFO_SCENARIOS
        }
    )


def run_table7(
    nmax_values: tuple[int, ...] = DEFAULT_NMAX_VALUES,
) -> list[Table7Row]:
    """Time VB2 at fixed truncation points on both Info scenarios."""
    scenarios = paper_scenarios()
    rows = []
    for name in _INFO_SCENARIOS:
        scenario = scenarios[name]
        data = scenario.load_data()
        prior = scenario.prior()
        for nmax in nmax_values:
            timing = time_callable(
                lambda: fit_vb2(data, prior, scenario.alpha0, nmax=nmax),
                label=f"table7 VB2 {name} nmax={nmax}",
            )
            rows.append(
                Table7Row(
                    scenario=name,
                    nmax=nmax,
                    tail_mass=timing.result.tail_mass(),
                    seconds=timing.seconds,
                )
            )
    return rows


def render_table6(rows: list[Table6Row]) -> str:
    """Paper-style Table 6."""
    return render_table(
        ["data", "random variates", "time (sec)"],
        [[r.scenario, r.variate_count, f"{r.seconds:.3f}"] for r in rows],
        title="Table 6 — computation time for MCMC",
    )


def render_table7(rows: list[Table7Row]) -> str:
    """Paper-style Table 7."""
    return render_table(
        ["data", "nmax", "Pv(nmax)", "time (sec)"],
        [
            [r.scenario, r.nmax, f"{r.tail_mass:.3e}", f"{r.seconds:.4f}"]
            for r in rows
        ],
        title="Table 7 — computation time for VB2",
    )
