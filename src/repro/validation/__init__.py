"""Continuous validation tooling for the posterior methods.

Two complementary correctness instruments live here:

* :mod:`repro.validation.sbc` — simulation-based calibration (Talts et
  al. 2018): draw parameters from the prior, simulate a failure
  campaign, fit, and check that the posterior rank statistics of the
  truths are uniform. A calibrated posterior *must* pass; VB1's
  too-narrow intervals concentrate the ranks at the extremes.
* :mod:`repro.metrics.coverage` — the frequentist interval-coverage
  study the paper's argument rests on, now runnable in parallel.

Both are driven by :mod:`repro.validation.parallel`, a deterministic
process-pool campaign runner: each replication owns a
``numpy.random.SeedSequence`` child derived only from the root seed and
the replication index, so serial and parallel runs are bit-identical.
Results are persisted as JSON artifacts (:mod:`repro.validation.
artifacts`) under ``benchmarks/results/`` for regression comparison.
"""

# Exports resolve lazily: the SBC engine imports the experiments layer,
# which imports repro.metrics, whose coverage module imports this
# package's parallel/seeding submodules — an import cycle if this
# __init__ imported sbc eagerly. PEP 562 __getattr__ keeps the public
# surface (`from repro.validation import run_sbc`) while the package
# init itself imports nothing.
from importlib import import_module

_EXPORTS = {
    "ValidationArtifact": "artifacts",
    "compare_artifacts": "artifacts",
    "load_artifact": "artifacts",
    "save_artifact": "artifacts",
    "default_artifact_path": "artifacts",
    "parallel_map": "parallel",
    "default_workers": "parallel",
    "coverage_fitters": "fitters",
    "SBC_QUANTITIES": "sbc",
    "SBC_METHODS": "sbc",
    "ReplicationOutcome": "sbc",
    "SBCResult": "sbc",
    "SBCSpec": "sbc",
    "run_sbc": "sbc",
    "run_replication": "sbc",
    "replication_seed": "seeding",
    "spawn_seeds": "seeding",
    "UniformityReport": "uniformity",
    "uniformity_report": "uniformity",
    "chi_square_uniformity": "uniformity",
    "ecdf_envelope": "uniformity",
    "rank_histogram": "uniformity",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    return getattr(import_module(f"repro.validation.{module}"), name)


def __dir__() -> list[str]:
    return __all__
