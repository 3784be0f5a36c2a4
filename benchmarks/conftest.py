"""Shared fixtures and the ledger harness of the benchmark suite.

Every benchmark writes its paper-style table to ``benchmarks/results/``
so the regenerated numbers survive the pytest capture; the pytest-
benchmark machinery reports the wall-clock statistics.

The path benches (``bench_*_path.py``, ``bench_fleet.py``,
``bench_warmstart.py``) each define ``measure(modes)``, returning the
ledger's ``timings``, ``checks`` and ``info``, and ``render(ledger)``;
:func:`bench_main` is their command line and :func:`quick_failures`
their pytest entry. ``repro bench check`` gates the ledgers they write
against the committed baselines.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

# src/ for the package; the repository root for perfbench's
# calibration kernel, the unit of the ledgers' calibrated timings.
_REPO = Path(__file__).resolve().parent.parent
for _root in (_REPO / "src", _REPO):
    if str(_root) not in sys.path:
        sys.path.insert(0, str(_root))

from perfbench.calib import kernel  # noqa: E402
from repro.obs.ledger import LEDGER_SCHEMA, self_check  # noqa: E402

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def calibrated_best_of(fn, repeat: int, kernel_samples: int = 3) -> dict:
    """Calibrated best-of time of ``fn``: one unit is one run of the
    calibration kernel.

    Kernel samples alternate with the repeats of ``fn`` in this
    process, so the two minima see the same spells of a shared
    machine. As in :mod:`timeit`, the garbage collector is off while
    ``fn`` runs. One collection precedes the repeats: a collection
    before each would start every sub-millisecond call on a cold cache
    and cost more than the calls it times.
    """
    best = kernel_s = float("inf")
    gc.collect()
    for _ in range(repeat):
        gc.disable()
        try:
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
        kernel_s = min(kernel_s, *(kernel() for _ in range(kernel_samples)))
    return {"best_s": best, "kernel_s": kernel_s, "calibrated": best / kernel_s}


def bench_ledger(suite: str, measure, modes: tuple[str, ...]) -> dict:
    """The schema-2 ledger of one run of a path bench's ``measure``,
    which returns the ledger's ``timings``, ``checks`` and ``info``."""
    return {
        "schema": LEDGER_SCHEMA,
        "kind": "bench",
        "suite": suite,
        "generated_by": "benchmarks/" + Path(measure.__code__.co_filename).name,
        **measure(modes),
    }


def quick_failures(suite: str, measure, render) -> list[str]:
    """Measure the quick mode, print it, and return the ledger's
    self-check failures (the pytest entry of a path bench)."""
    ledger = bench_ledger(suite, measure, ("quick",))
    print("\n" + render(ledger))
    return self_check(ledger)


def bench_main(suite: str, measure, render, argv=None) -> int:
    """Command line of a path bench: measure, write the ledger, print
    it, and exit 1 only when the ledger fails its own checks."""
    parser = argparse.ArgumentParser(
        description=f"Measure the {suite} bench and write its ledger."
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="measure only the quick mode, for CI",
    )
    parser.add_argument(
        "--out", type=Path, default=RESULTS_DIR / f"BENCH_{suite}.json",
        help="where to write the ledger JSON",
    )
    args = parser.parse_args(argv)
    modes = ("quick",) if args.quick else ("full", "quick")
    ledger = bench_ledger(suite, measure, modes)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(ledger, indent=2) + "\n")
    print(render(ledger))
    print(f"[written to {args.out}]")
    failures = self_check(ledger)
    for message in failures:
        print(f"FAIL: {message}", file=sys.stderr)
    return 1 if failures else 0


def posterior_max_abs_diff(a, b) -> float:
    """Max absolute difference over every number a VB posterior carries:
    weights, latent-count support, component parameters and ELBO."""
    diffs = [
        float(np.max(np.abs(np.asarray(a.weights) - np.asarray(b.weights)))),
        float(np.max(np.abs(
            np.asarray(a.n_values, dtype=float)
            - np.asarray(b.n_values, dtype=float)
        ))),
    ]
    for da, db in zip(a._omega_components, b._omega_components):
        diffs.append(abs(da.shape - db.shape))
        diffs.append(abs(da.rate - db.rate))
    for da, db in zip(a._beta_components, b._beta_components):
        diffs.append(abs(da.shape - db.shape))
        diffs.append(abs(da.rate - db.rate))
    if a.elbo is not None and b.elbo is not None:
        diffs.append(abs(a.elbo - b.elbo))
    return max(diffs)


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
