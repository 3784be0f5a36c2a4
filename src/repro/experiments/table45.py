"""Tables 4 and 5: software-reliability point and interval estimates.

Table 4: ``R(te+u | te)`` on the failure-time data with the Info prior,
``u ∈ {1000, 10000}`` seconds. Table 5: the grouped-data analogue with
``u ∈ {1, 5}`` days. Both report every method's point estimate and
two-sided 99% interval; LAPL's delta-method upper bound may exceed 1,
as in the paper (shown there in angle brackets).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.reliability import estimate_reliability
from repro.experiments.config import ExperimentScale, QUICK_SCALE, paper_scenarios
from repro.experiments.runner import MethodResults, run_all_methods, select_results
from repro.metrics.tables import render_table

__all__ = ["run", "render", "ReliabilityRow"]

LEVEL = 0.99


@dataclass(frozen=True)
class ReliabilityRow:
    """One method's reliability estimate for one prediction window."""

    u: float
    method: str
    point: float
    lower: float
    upper: float


def run(
    data_view: str,
    scale: ExperimentScale = QUICK_SCALE,
    *,
    results: dict[str, MethodResults] | None = None,
) -> tuple[MethodResults, list[ReliabilityRow]]:
    """Run the reliability experiment for one data view's Info scenario.

    Parameters
    ----------
    data_view:
        "DT" (Table 4) or "DG" (Table 5).
    results:
        Fits already made at ``scale``, such as Table 1's; the Info
        scenario's entry is used instead of a refit.
    """
    if data_view not in ("DT", "DG"):
        raise ValueError(f"data_view must be 'DT' or 'DG', got {data_view!r}")
    scenario = paper_scenarios()[f"{data_view}-Info"]
    if results is not None:
        result = select_results(results, [scenario.name], scale)[scenario.name]
    else:
        result = run_all_methods(scenario, scale=scale)
    data = scenario.load_data()
    rows = []
    for u in scenario.reliability_windows:
        for method, posterior in result.posteriors.items():
            estimate = estimate_reliability(
                posterior, data.horizon, u, alpha0=scenario.alpha0, level=LEVEL
            )
            rows.append(
                ReliabilityRow(
                    u=u,
                    method=method,
                    point=estimate.point,
                    lower=estimate.lower,
                    upper=estimate.upper,
                )
            )
    return result, rows


def render(rows: list[ReliabilityRow], table_number: int, unit: str) -> str:
    """Paper-style rendering; out-of-range bounds are angle-bracketed
    exactly as the paper prints them."""
    table_rows = []
    for row in rows:
        upper = f"<{row.upper:.4f}>" if row.upper > 1.0 else f"{row.upper:.4f}"
        lower = f"<{row.lower:.4f}>" if row.lower < 0.0 else f"{row.lower:.4f}"
        table_rows.append(
            [f"u={row.u:g}{unit}", row.method, f"{row.point:.4f}", lower, upper]
        )
    return render_table(
        ["window", "method", "reliability", "lower", "upper"],
        table_rows,
        title=f"Table {table_number} — software reliability, 99% intervals",
    )
