"""Tables 2 and 3: two-sided 99% credible intervals for ``ω`` and ``β``.

Table 2 covers the failure-time data (DT), Table 3 the grouped data
(DG); both cross the Info and NoInfo priors and report the relative
deviation of every method's interval endpoints from NINT's.
"""

from __future__ import annotations

from repro.experiments.config import ExperimentScale, QUICK_SCALE, paper_scenarios
from repro.experiments.runner import MethodResults, run_scenarios, select_results
from repro.metrics.comparison import deviation_table
from repro.metrics.tables import render_table

__all__ = ["run", "render", "interval_summary", "ENDPOINTS"]

ENDPOINTS = ("omega_lower", "omega_upper", "beta_lower", "beta_upper")
LEVEL = 0.99


def interval_summary(result: MethodResults) -> dict[str, dict[str, float]]:
    """99% interval endpoints per method for one scenario."""
    summary: dict[str, dict[str, float]] = {}
    for method, posterior in result.posteriors.items():
        omega_lo, omega_hi = posterior.credible_interval("omega", LEVEL)
        beta_lo, beta_hi = posterior.credible_interval("beta", LEVEL)
        summary[method] = {
            "omega_lower": omega_lo,
            "omega_upper": omega_hi,
            "beta_lower": beta_lo,
            "beta_upper": beta_hi,
        }
    return summary


def run(
    data_view: str,
    scale: ExperimentScale = QUICK_SCALE,
    *,
    workers: int | None = 1,
    results: dict[str, MethodResults] | None = None,
) -> dict[str, MethodResults]:
    """Run the interval experiment for one data view.

    Parameters
    ----------
    data_view:
        "DT" (Table 2) or "DG" (Table 3).
    workers:
        Process count for running the view's scenarios concurrently.
    results:
        Fits already made at ``scale``, such as Table 1's; the view's
        scenarios are taken from them instead of being refitted.
    """
    if data_view not in ("DT", "DG"):
        raise ValueError(f"data_view must be 'DT' or 'DG', got {data_view!r}")
    scenarios = paper_scenarios()
    selected = [
        scenario for name, scenario in scenarios.items()
        if name.startswith(data_view)
    ]
    if results is not None:
        return select_results(results, [s.name for s in selected], scale)
    return run_scenarios(selected, scale=scale, workers=workers)


def render(results: dict[str, MethodResults], table_number: int) -> str:
    """Paper-style rendering of Table 2 or 3."""
    blocks = []
    for name, result in results.items():
        summary = interval_summary(result)
        deviations = (
            deviation_table(summary, "NINT", ENDPOINTS)
            if "NINT" in summary
            else {}
        )
        rows = []
        for method, values in summary.items():
            rows.append([method, *(values[e] for e in ENDPOINTS)])
            if method in deviations:
                rows.append(
                    ["", *(f"{100.0 * deviations[method][e]:+.1f}%" for e in ENDPOINTS)]
                )
        blocks.append(
            render_table(
                ["method", *ENDPOINTS],
                rows,
                title=f"Table {table_number} — {name} (two-sided 99% intervals)",
            )
        )
    return "\n\n".join(blocks)
