"""Figure 1: joint posterior density of ``(ω, β)`` for DG-Info.

The paper shows contour plots of the approximate joint posterior for
NINT, LAPL, VB1 and VB2 plus a scatter plot of 10000 MCMC samples.
This module computes the same objects as data: normalised density
matrices on a shared grid (one per analytic method) and the MCMC
scatter sample. Rendering is an ASCII heatmap (no plotting libraries in
this environment); ``save_csv`` exports the grids for external tools.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.experiments.config import ExperimentScale, QUICK_SCALE, paper_scenarios
from repro.experiments.runner import MethodResults, run_all_methods, select_results

__all__ = ["Figure1Data", "run", "render_ascii", "save_csv"]

_DENSITY_METHODS = ("NINT", "LAPL", "VB1", "VB2")
_SHADES = " .:-=+*#%@"


@dataclass
class Figure1Data:
    """Density grids and scatter sample behind Figure 1.

    Attributes
    ----------
    omega, beta:
        Grid axes (shared by all methods).
    densities:
        ``{method: matrix}`` of normalised joint densities with shape
        ``(len(omega), len(beta))``.
    mcmc_scatter:
        ``(n, 2)`` array of MCMC samples (ω, β).
    results:
        The underlying fitted posteriors.
    """

    omega: np.ndarray
    beta: np.ndarray
    densities: dict[str, np.ndarray]
    mcmc_scatter: np.ndarray
    results: MethodResults


def run(
    scale: ExperimentScale = QUICK_SCALE,
    *,
    grid_size: int = 80,
    scatter_points: int = 10_000,
    results: dict[str, MethodResults] | None = None,
) -> Figure1Data:
    """Compute Figure 1's data on the DG-Info scenario.

    The plotting window follows the reference posterior: the NINT
    0.1%–99.9% marginal quantiles per axis (the paper hand-picked
    ``ω ∈ [30, 70]``; deriving the window from the posterior keeps the
    figure meaningful on any dataset).

    ``results`` may hold fits already made at ``scale``, such as Table
    1's; their DG-Info entry is used instead of a refit.
    """
    scenario = paper_scenarios()["DG-Info"]
    if results is not None:
        fitted = select_results(results, [scenario.name], scale)[scenario.name]
    else:
        fitted = run_all_methods(scenario, scale=scale)
    reference = fitted.posteriors.get("NINT") or fitted.posteriors["VB2"]
    omega = np.linspace(
        reference.quantile("omega", 0.001),
        reference.quantile("omega", 0.999),
        grid_size,
    )
    beta = np.linspace(
        reference.quantile("beta", 0.001),
        reference.quantile("beta", 0.999),
        grid_size,
    )
    densities = {}
    for method in _DENSITY_METHODS:
        posterior = fitted.posteriors.get(method)
        if posterior is None:
            continue
        densities[method] = np.exp(posterior.log_pdf_grid(omega, beta))
    mcmc = fitted.posteriors.get("MCMC")
    scatter = (
        mcmc.scatter(scatter_points) if mcmc is not None else np.empty((0, 2))
    )
    return Figure1Data(
        omega=omega,
        beta=beta,
        densities=densities,
        mcmc_scatter=scatter,
        results=fitted,
    )


def render_ascii(figure: Figure1Data, *, width: int = 60, height: int = 22) -> str:
    """ASCII heatmaps of every density plus the MCMC scatter."""
    blocks = []
    for method, density in figure.densities.items():
        blocks.append(_ascii_heatmap(method, figure, density, width, height))
    if figure.mcmc_scatter.size:
        hist, _, _ = np.histogram2d(
            figure.mcmc_scatter[:, 0],
            figure.mcmc_scatter[:, 1],
            bins=[width, height],
            range=[
                [figure.omega[0], figure.omega[-1]],
                [figure.beta[0], figure.beta[-1]],
            ],
        )
        blocks.append(_ascii_matrix("MCMC (scatter density)", figure, hist.T[::-1]))
    return "\n\n".join(blocks)


def _ascii_heatmap(
    method: str, figure: Figure1Data, density: np.ndarray, width: int, height: int
) -> str:
    omega_idx = np.linspace(0, figure.omega.size - 1, width).astype(int)
    beta_idx = np.linspace(0, figure.beta.size - 1, height).astype(int)
    block = density[np.ix_(omega_idx, beta_idx)].T[::-1]  # beta on vertical axis
    return _ascii_matrix(method, figure, block)


def _ascii_matrix(title: str, figure: Figure1Data, block: np.ndarray) -> str:
    peak = block.max()
    lines = [
        f"{title}  (omega -> horizontal [{figure.omega[0]:.3g}, "
        f"{figure.omega[-1]:.3g}], beta ^ vertical [{figure.beta[0]:.3g}, "
        f"{figure.beta[-1]:.3g}])"
    ]
    if peak <= 0.0:
        lines.append("(zero density)")
        return "\n".join(lines)
    scaled = np.clip(block / peak, 0.0, 1.0)
    for row in scaled:
        lines.append(
            "".join(_SHADES[min(int(v * (len(_SHADES) - 1) + 0.5), len(_SHADES) - 1)]
                    for v in row)
        )
    return "\n".join(lines)


def save_csv(figure: Figure1Data, directory: str | Path) -> list[Path]:
    """Export the grids and the scatter to CSV files; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    axes_path = directory / "figure1_axes.csv"
    with open(axes_path, "w") as fh:
        fh.write("axis,index,value\n")
        for i, v in enumerate(figure.omega):
            fh.write(f"omega,{i},{v!r}\n")
        for i, v in enumerate(figure.beta):
            fh.write(f"beta,{i},{v!r}\n")
    written.append(axes_path)
    for method, density in figure.densities.items():
        path = directory / f"figure1_density_{method.lower()}.csv"
        np.savetxt(path, density, delimiter=",")
        written.append(path)
    scatter_path = directory / "figure1_mcmc_scatter.csv"
    np.savetxt(
        scatter_path, figure.mcmc_scatter, delimiter=",", header="omega,beta"
    )
    written.append(scatter_path)
    return written
