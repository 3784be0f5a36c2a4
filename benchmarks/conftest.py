"""Shared fixtures for the benchmark suite.

Every benchmark writes its paper-style table to ``benchmarks/results/``
so the regenerated numbers survive the pytest capture; the pytest-
benchmark machinery reports the wall-clock statistics.
"""

from __future__ import annotations

import gc
import sys
import time
from pathlib import Path

import pytest

# src/ for the package; the repository root for perfbench's
# calibration kernel, the unit of the ledgers' calibrated timings.
_REPO = Path(__file__).resolve().parent.parent
for _root in (_REPO / "src", _REPO):
    if str(_root) not in sys.path:
        sys.path.insert(0, str(_root))

from perfbench.calib import kernel  # noqa: E402

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def calibrated_best_of(fn, repeat: int, kernel_samples: int = 3) -> dict:
    """Calibrated best-of time of ``fn``: one unit is one run of the
    calibration kernel.

    Kernel samples alternate with the repeats of ``fn`` in this
    process, so the two minima see the same spells of a shared
    machine. As in :mod:`timeit`, the garbage collector is off while
    ``fn`` runs.
    """
    best = kernel_s = float("inf")
    for _ in range(repeat):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
        kernel_s = min(kernel_s, *(kernel() for _ in range(kernel_samples)))
    return {"best_s": best, "kernel_s": kernel_s, "calibrated": best / kernel_s}


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_result(path: Path, text: str) -> None:
    """Persist a rendered table and echo it (visible with pytest -s)."""
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")


@pytest.fixture(scope="session")
def bench_scale():
    """MCMC schedule for the accuracy benches: large enough for stable
    moments, small enough to keep the suite under a few minutes."""
    from repro.bayes.mcmc.chains import ChainSettings
    from repro.experiments.config import ExperimentScale

    return ExperimentScale(
        mcmc=ChainSettings(n_samples=10_000, burn_in=4_000, thin=2, seed=20070628),
        nint_resolution=241,
        label="bench",
    )
