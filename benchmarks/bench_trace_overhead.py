"""Benchmark: telemetry overhead of the instrumented solvers.

The obs layer promises *zero overhead when disabled*: every
instrumentation site is a ``None`` check on the global collector, and
``obs.span`` returns a shared no-op handle. This benchmark pins that
promise on two fit workloads — the Table 1 unit (one full VB2 fit on
DT-Info, the same timed unit as ``bench_table1.py``) and a DG-Info
grouped fit (the batched fixed-point path, whose per-``N`` debug spans
are hoisted behind one ``obs.enabled()`` check) — three ways:

1. **disabled** — the shipped default (no collector installed);
2. **stubbed** — the obs API monkeypatched to bare ``pass`` lambdas,
   approximating code with no instrumentation at all. The disabled /
   stubbed gap *is* the disabled-mode cost, asserted below 5 %.
3. **enabled** — a ``summary``-level in-memory capture, reported for
   context (not asserted: enabled-mode cost is a feature, not a bug).

The pytest entry point additionally asserts bit-identity of the fit
under all three configurations — telemetry must never change a result.

As a script:

    PYTHONPATH=src python benchmarks/bench_trace_overhead.py --repeat 7
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

# Script-mode bootstrap: pytest injects these roots via benchmarks/
# conftest.py, a bare `python benchmarks/bench_trace_overhead.py`
# does not.
_HERE = Path(__file__).resolve().parent
for _root in (_HERE, _HERE.parent / "src"):
    if str(_root) not in sys.path:
        sys.path.insert(0, str(_root))

from conftest import RESULTS_DIR, write_result
from repro import obs
from repro.bayes.priors import ModelPrior
from repro.core.vb2 import fit_vb2
from repro.data.datasets import system17_failure_times, system17_grouped

#: Acceptance bound on the disabled-mode overhead (fractional).
MAX_DISABLED_OVERHEAD = 0.05

_STUB_NAMES = (
    "enabled",
    "counter_add",
    "observe",
    "event",
    "timing_sample",
    "progress",
)


class _StubbedObs:
    """Temporarily strip the obs API down to bare no-ops.

    The solver modules resolve ``obs.<fn>`` at call time, so patching
    the module attributes reaches every instrumentation site. This is
    the closest measurable stand-in for "the code before it was
    instrumented".
    """

    def __enter__(self):
        self._saved = {name: getattr(obs, name) for name in _STUB_NAMES}
        self._saved["span"] = obs.span
        obs.enabled = lambda: False
        for name in _STUB_NAMES[1:]:
            setattr(obs, name, lambda *a, **k: None)
        from repro.obs.core import _NOOP_SPAN

        obs.span = lambda *a, **k: _NOOP_SPAN
        return self

    def __exit__(self, *exc_info):
        for name, fn in self._saved.items():
            setattr(obs, name, fn)
        return False


def _workload():
    data = system17_failure_times()
    prior = ModelPrior.informative(50.0, 15.8, 1.0e-5, 3.2e-6)
    return lambda: fit_vb2(data, prior)


def _grouped_workload():
    data = system17_grouped()
    prior = ModelPrior.informative(50.0, 15.8, 3.3e-2, 1.1e-2)
    return lambda: fit_vb2(data, prior)


def _elapsed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _best_of(fn, repeat: int) -> float:
    return min(_elapsed(fn) for _ in range(repeat))


def _stubbed_and_disabled(fit, repeat: int) -> tuple[float, float]:
    """Best-of ``repeat`` of the stubbed and of the disabled fit, taken
    in alternating repeats (and alternating which side goes first), so
    that a burst of load on a shared host lands on both sides alike."""
    stubbed = disabled = float("inf")
    for i in range(repeat):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            if side == 0:
                with _StubbedObs():
                    stubbed = min(stubbed, _elapsed(fit))
            else:
                disabled = min(disabled, _elapsed(fit))
    return stubbed, disabled


def _measure_fit(fit, repeat: int) -> dict[str, float]:
    fit()  # warm caches before any timing
    stubbed, disabled = _stubbed_and_disabled(fit, repeat)

    def traced():
        with obs.capture(level="summary"):
            fit()

    enabled = _best_of(traced, repeat)

    # The timing/profile path: timing-level capture additionally records
    # wall-clock on every span, and the captured span stream is folded
    # into the call-tree profile. Both are enabled-mode features,
    # reported for context like `enabled_s`.
    def traced_timing():
        with obs.capture(level="timing"):
            fit()

    enabled_timing = _best_of(traced_timing, repeat)

    from repro.obs import build_profile, fold_stacks

    with obs.capture(level="timing") as col:
        fit()
    events = list(col.events)
    profile_build = _best_of(
        lambda: fold_stacks(build_profile(events)), repeat
    )
    return {
        "stubbed_s": stubbed,
        "disabled_s": disabled,
        "enabled_s": enabled,
        "enabled_timing_s": enabled_timing,
        "profile_build_s": profile_build,
        "disabled_overhead": disabled / stubbed - 1.0,
        "enabled_overhead": enabled / stubbed - 1.0,
        "enabled_timing_overhead": enabled_timing / stubbed - 1.0,
    }


def measure(repeat: int = 7) -> dict[str, dict[str, float]]:
    return {
        "DT-Info": _measure_fit(_workload(), repeat),
        "DG-Info": _measure_fit(_grouped_workload(), repeat),
    }


def render(workloads: dict[str, dict[str, float]], repeat: int) -> str:
    lines = [f"telemetry overhead on one VB2 fit (best of {repeat})"]
    for name, stats in workloads.items():
        lines.extend([
            f"  [{name}]",
            f"    stubbed   {stats['stubbed_s'] * 1e3:8.3f} ms"
            "   (no instrumentation)",
            f"    disabled  {stats['disabled_s'] * 1e3:8.3f} ms   "
            f"({stats['disabled_overhead']:+.2%} vs stubbed)",
            f"    enabled   {stats['enabled_s'] * 1e3:8.3f} ms   "
            f"({stats['enabled_overhead']:+.2%} vs stubbed, summary capture)",
            f"    timing    {stats['enabled_timing_s'] * 1e3:8.3f} ms   "
            f"({stats['enabled_timing_overhead']:+.2%} vs stubbed, "
            "wall-clock spans)",
            f"    profile   {stats['profile_build_s'] * 1e3:8.3f} ms   "
            "(span stream -> folded call tree)",
        ])
    lines.append(f"  acceptance: disabled overhead < {MAX_DISABLED_OVERHEAD:.0%}")
    return "\n".join(lines)


# -- pytest entry points ----------------------------------------------


def test_telemetry_never_changes_results():
    import numpy as np

    for fit in (_workload(), _grouped_workload()):
        plain = fit()
        with _StubbedObs():
            stubbed = fit()
        with obs.capture(level="debug"):
            traced = fit()

        for other in (stubbed, traced):
            np.testing.assert_array_equal(plain.weights, other.weights)
            np.testing.assert_array_equal(plain.n_values, other.n_values)
            assert plain.mean("omega") == other.mean("omega")
            assert plain.mean("beta") == other.mean("beta")


def test_disabled_overhead_within_bound(benchmark, results_dir):
    repeat = 7
    workloads = measure(repeat=repeat)
    write_result(results_dir / "trace_overhead.txt", render(workloads, repeat))
    benchmark(_workload())
    for stats in workloads.values():
        assert stats["disabled_overhead"] < MAX_DISABLED_OVERHEAD


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args(argv)
    workloads = measure(repeat=args.repeat)
    text = render(workloads, args.repeat)
    RESULTS_DIR.mkdir(exist_ok=True)
    write_result(RESULTS_DIR / "trace_overhead.txt", text)
    status = 0
    for name, stats in workloads.items():
        if stats["disabled_overhead"] >= MAX_DISABLED_OVERHEAD:
            print(
                f"FAIL: {name} disabled-mode overhead "
                f"{stats['disabled_overhead']:.2%} >= {MAX_DISABLED_OVERHEAD:.0%}",
                file=sys.stderr,
            )
            status = 1
    if status == 0:
        print("disabled-mode overhead within bound")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
