"""Benchmark: warm-started tracker replays + posterior cache hits.

Sequential reliability tracking refits the full posterior every
observation period. Two mechanisms make replaying a campaign cheap
(see docs/METHOD.md §4.5 and docs/PERFORMANCE.md §5):

* **Warm starts** — each period's fit starts its truncation bound at
  the previous posterior's effective support plus a drift pad, so the
  cold growth schedule is not replayed;
* **Content-addressed caching** — refitting inputs the cache has
  already seen loads the stored posterior byte-identically without
  touching the solver.

This benchmark replays a synthetic grouped test campaign through
:class:`~repro.core.sequential.ReliabilityTracker` cold
(``warm_start=False``) and warm, for α0 ∈ {1, 2}, and emits
``benchmarks/results/BENCH_warmstart.json``, gated by ``repro bench
check``:

* **tracker50/a0=1**, **tracker50/a0=2** — calibrated timings of the
  cold and of the warm replay (best-of seconds over the calibration
  kernel's, see :mod:`repro.obs.ledger`), with their evaluation counts
  of ``N(ξ)`` as context;
* **cache/hit** — the calibrated timing of a disk hit, which must also
  be byte-identical to the fit it replaces and run zero solver calls;
* **agreement** — the warm-chained final posterior must match the cold
  fit of the same data to 1e-8.

As a script:

    PYTHONPATH=src python benchmarks/bench_warmstart.py          # full + quick
    PYTHONPATH=src python benchmarks/bench_warmstart.py --quick \\
        --out /tmp/BENCH_warmstart.json                          # CI mode
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

# Script-mode bootstrap: pytest injects these roots via benchmarks/
# conftest.py, a bare `python benchmarks/bench_warmstart.py` does not.
_HERE = Path(__file__).resolve().parent
for _root in (_HERE, _HERE.parent / "src"):
    if str(_root) not in sys.path:
        sys.path.insert(0, str(_root))

from conftest import bench_main, calibrated_best_of, quick_failures
from repro import obs
from repro.bayes.priors import ModelPrior
from repro.core.sequential import ReliabilityTracker
from repro.core.vb2 import fit_vb2
from repro.data.failure_data import GroupedData

AGREEMENT_TOLERANCE = 1e-8

_MODE_SETTINGS = {
    # Both α0 values replay the same campaign; quick trims the period
    # count and the repeats for CI wall-clock.
    "full": {"periods": 50, "repeat": 5},
    "quick": {"periods": 20, "repeat": 5},
}

#: Disk hits timed for the calibrated ``cache/hit`` best-of (~1 ms each).
CACHE_HIT_REPEAT = 50

PRIOR = ModelPrior.informative(100.0, 50.0, 0.2, 0.1)


def _campaign(periods: int, seed: int = 7) -> GroupedData:
    """A decaying grouped test campaign: per-period failure counts
    Poisson(6 e^(-t/25)) on unit intervals."""
    rng = np.random.default_rng(seed)
    t = np.arange(periods)
    counts = rng.poisson(6.0 * np.exp(-t / 25.0))
    return GroupedData(
        counts=counts, boundaries=np.arange(1.0, periods + 1.0)
    )


def _replay(data: GroupedData, alpha0: float, warm: bool, repeat: int) -> dict:
    def run():
        tracker = ReliabilityTracker(
            PRIOR, alpha0=alpha0, prediction_window=1.0,
            reliability_target=0.9, warm_start=warm,
        )
        return tracker.replay_grouped(data)

    records = run()
    return {
        **calibrated_best_of(run, repeat),
        "iterations": int(sum(r.fit_iterations for r in records)),
        "periods": len(records),
        "warm_periods": sum(1 for r in records if r.warm_started),
    }


# -- agreement ----------------------------------------------------------


def _summary_diff(a, b) -> float:
    """Max |diff| over the quantities a tracking decision reads: mixture
    weights on the common support, parameter means, and 99% interval
    endpoints."""
    common = min(a.weights.size, b.weights.size)
    diffs = [float(np.max(np.abs(a.weights[:common] - b.weights[:common])))]
    for param in ("omega", "beta"):
        diffs.append(abs(a.mean(param) - b.mean(param)))
        lo_a, hi_a = a.credible_interval(param, 0.99)
        lo_b, hi_b = b.credible_interval(param, 0.99)
        diffs.append(abs(lo_a - lo_b))
        diffs.append(abs(hi_a - hi_b))
    return max(diffs)


def _agreement(data: GroupedData) -> float:
    """Warm-chained final posterior vs the cold fit of the same data."""
    from dataclasses import replace

    from repro.core.config import VBConfig
    from repro.core.warmstart import warm_start_from

    worst = 0.0
    base = VBConfig()
    for alpha0 in (1.0, 2.0):
        state = None
        warm_posterior = None
        for end in range(1, data.n_intervals + 1):
            config = base if state is None else replace(
                base, warm_start=state
            )
            warm_posterior = fit_vb2(
                data.truncate(end), PRIOR, alpha0, config
            )
            state = warm_start_from(warm_posterior)
        cold_posterior = fit_vb2(data, PRIOR, alpha0)
        worst = max(worst, _summary_diff(warm_posterior, cold_posterior))
    return worst


# -- cache --------------------------------------------------------------


def _cache_block(data: GroupedData) -> dict:
    """Disk-hit identity, solver-call count, and calibrated hit time."""
    from repro.cache.fitting import fit_vb2_cached
    from repro.cache.store import PosteriorCache

    with tempfile.TemporaryDirectory(prefix="bench_warmstart_") as tmp:
        fitted = fit_vb2_cached(data, PRIOR, 1.0, cache=PosteriorCache(tmp))

        def hit():
            # A fresh instance has a cold memory tier: a disk hit.
            return fit_vb2_cached(data, PRIOR, 1.0, cache=PosteriorCache(tmp))

        timing = calibrated_best_of(hit, CACHE_HIT_REPEAT)
        with obs.capture() as collector:
            loaded = hit()
        solver_calls = int(collector.counters.get("vb2.solves", 0))

        identical = (
            np.array_equal(fitted.weights, loaded.weights)
            and np.array_equal(fitted.n_values, loaded.n_values)
            and all(
                fa.shape == la.shape and fa.rate == la.rate
                for fa, la in zip(
                    fitted._omega_components, loaded._omega_components
                )
            )
            and all(
                fa.shape == la.shape and fa.rate == la.rate
                for fa, la in zip(
                    fitted._beta_components, loaded._beta_components
                )
            )
            and fitted.elbo == loaded.elbo
            and {
                k: v for k, v in fitted.diagnostics.items()
                if k != "telemetry"
            } == loaded.diagnostics
        )
    return {
        "identical": bool(identical),
        "solver_calls": solver_calls,
        "hit": timing,
    }


# -- measurement --------------------------------------------------------


def _measure_mode(mode: str) -> dict:
    settings = _MODE_SETTINGS[mode]
    periods = settings["periods"]
    data = _campaign(periods)
    workloads: dict[str, dict] = {}
    for alpha0 in (1.0, 2.0):
        workloads[f"tracker{periods}/a0={alpha0:g}"] = {
            "cold": _replay(data, alpha0, False, settings["repeat"]),
            "warm": _replay(data, alpha0, True, settings["repeat"]),
        }
    return workloads


def measure(modes: tuple[str, ...]) -> dict:
    full_data = _campaign(_MODE_SETTINGS["full"]["periods"])
    agreement = _agreement(full_data)
    cache = _cache_block(full_data)

    timings: dict[str, float] = {"cache/hit": cache["hit"]["calibrated"]}
    info: dict = {"modes": {}, "cache": cache}
    for mode in modes:
        workloads = _measure_mode(mode)
        info["modes"][mode] = workloads
        for key, w in workloads.items():
            for replay in ("cold", "warm"):
                timings[f"{mode}/{key}/{replay}"] = w[replay]["calibrated"]

    checks = {
        "warm_cold_summary_max_abs_diff": {
            "value": agreement, "max": AGREEMENT_TOLERANCE,
        },
        "cache_hit_byte_identical": {
            "value": cache["identical"], "expect": True,
        },
        "cache_hit_solver_calls": {
            "value": cache["solver_calls"], "exact": 0,
        },
    }
    return {"timings": timings, "checks": checks, "info": info}


# -- reporting ----------------------------------------------------------


def render(ledger: dict) -> str:
    lines = ["sequential refits: cold vs warm-started tracker replay"]
    for mode, workloads in ledger["info"]["modes"].items():
        lines.append(f"  [{mode}]")
        for key, w in workloads.items():
            cold, warm = w["cold"], w["warm"]
            lines.append(
                f"    {key:<18} cold {cold['iterations']:>8} evals "
                f"{cold['best_s'] * 1e3:8.1f} ms {cold['calibrated']:7.0f} "
                f"units   warm {warm['iterations']:>8} evals "
                f"{warm['best_s'] * 1e3:8.1f} ms {warm['calibrated']:7.0f} "
                "units"
            )
    cache = ledger["info"]["cache"]
    lines.append(
        f"  cache: disk hit {cache['hit']['best_s'] * 1e3:.2f} ms "
        f"({cache['hit']['calibrated']:.2f} units), "
        f"byte-identical {cache['identical']}, "
        f"solver calls on hit {cache['solver_calls']}"
    )
    checks = ledger["checks"]
    lines.append(
        "  agreement (warm vs cold final posterior, max |diff|): "
        f"{checks['warm_cold_summary_max_abs_diff']['value']:.1e} "
        f"(gate <= {AGREEMENT_TOLERANCE:.0e})"
    )
    return "\n".join(lines)


# -- pytest entry point -------------------------------------------------


def test_warmstart_quick():
    assert quick_failures("warmstart", measure, render) == []


if __name__ == "__main__":
    raise SystemExit(bench_main("warmstart", measure, render))
