"""Unified perf ledger over the committed BENCH_*.json artifacts.

The benchmark scripts historically each invented their own JSON layout
(schema 1) and their own inline shell gate in CI. The ledger gives
them one versioned schema and one gate:

* :func:`normalise` lifts any known BENCH document — schema-1 layouts
  from ``bench_interval_path.py`` / ``bench_fit_path.py`` /
  ``bench_mcmc_path.py`` as well as native schema-2 documents (e.g.
  ``bench_robustness.py``) — into the unified form.
* :func:`self_check` verifies a document against its *own* declared
  exactness/tolerance checks (what the committed baselines must always
  satisfy).
* :func:`compare` diffs a fresh run against a committed baseline:
  every gated speedup must stay above ``REGRESSION_FRACTION`` of the
  baseline's (ratios are machine-independent), every calibrated
  timing must stay below the baseline's divided by it, and the fresh
  run must pass its self-checks.

Unified document layout (``schema: 2, kind: "bench"``)::

    {
      "schema": 2,
      "kind": "bench",
      "suite": "fit",                      # short suite name
      "generated_by": "benchmarks/bench_fit_path.py",
      "speedups": {"quick/DG-Info/nint_grid": 3.2, ...},      # gated
      "timings": {"quick/times1000/vb2": 64.1, ...},         # gated
      "checks": {
        "vb2_max_abs_diff": {"value": 0.0, "exact": 0.0},
        "nint_max_abs_diff_vs_legacy": {"value": 5.7e-14, "max": 1e-10}
      },
      "info": {...}                        # ungated context
    }

``timings`` are calibrated absolute times: the best-of seconds of a
workload divided by the best-of seconds of the calibration kernel
(``perfbench/calib.py::kernel``) timed in the same process, so one
unit is one kernel run. They replace a speedup whose denominator was
legacy code kept only to be divided by. Schema-1 documents carry them
per mode as ``modes[mode]["timings"][key]["calibrated"]``.

``checks`` entries carry their own pass criterion: ``exact`` (equal),
``max`` (value <= bound), ``min`` (value >= bound, for speedup floors),
or ``expect`` (equal, for booleans). Every failure message names the
check and gives both the observed value and the expected bound on one
line. The CLI surface is ``repro bench check`` / ``repro bench
report``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.exceptions import TelemetryError

__all__ = [
    "LEDGER_SCHEMA",
    "REGRESSION_FRACTION",
    "normalise",
    "self_check",
    "compare",
    "load_ledger",
    "render_ledger",
]

#: Version of the unified bench-ledger layout.
LEDGER_SCHEMA = 2

#: A fresh speedup below this fraction of the baseline's, or a fresh
#: calibrated timing above the baseline's divided by it, is a
#: regression — the same >20% criterion the inline CI gates used.
REGRESSION_FRACTION = 0.8

#: Per-suite agreement checks applied when lifting a schema-1 document:
#: (check name, path into the document, criterion kind, bound). These
#: mirror the gates the benchmark scripts themselves enforce.
_V1_SUITES = {
    "bench_interval_path.py": {
        "suite": "interval",
        "checks": [
            ("max_abs_diff_scalar", ("agreement", "max_abs_diff_scalar"),
             "max", 1e-9),
        ],
        "info": [
            ("max_abs_diff_legacy", ("agreement", "max_abs_diff_legacy")),
            ("hpd_speedup_target",
             ("acceptance", "hpd_speedup_target")),
        ],
    },
    "bench_fit_path.py": {
        "suite": "fit",
        "checks": [
            ("vb2_max_abs_diff", ("agreement", "vb2_max_abs_diff"),
             "exact", 0.0),
            ("vb2_inverse_max_rel_residual",
             ("agreement", "vb2_inverse_max_rel_residual"), "max", 1e-9),
            ("nint_max_abs_diff_vs_legacy",
             ("agreement", "nint_max_abs_diff_vs_legacy"), "max", 1e-10),
        ],
        "info": [
            ("nint_speedup_target", ("acceptance", "nint_speedup_target")),
        ],
    },
    "bench_mcmc_path.py": {
        "suite": "mcmc",
        "checks": [
            ("lane_vs_scalar_max_abs_diff",
             ("agreement", "lane_vs_scalar_max_abs_diff"), "exact", 0.0),
            ("diagnostics_batched_vs_scalar_max_rel",
             ("agreement", "diagnostics_batched_vs_scalar_max_rel"),
             "max", 1e-9),
        ],
        "info": [
            ("mcmc_speedup_target", ("acceptance", "mcmc_speedup_target")),
        ],
    },
}


def _dig(doc: dict, path: tuple):
    value = doc
    for key in path:
        if not isinstance(value, dict) or key not in value:
            return None
        value = value[key]
    return value


def _lift_v1(doc: dict) -> dict:
    source = doc.get("generated_by", "")
    recipe = _V1_SUITES.get(Path(source).name)
    if recipe is None:
        raise TelemetryError(
            f"unknown schema-1 bench layout (generated_by={source!r}); "
            f"known: {sorted(_V1_SUITES)}"
        )
    speedups, timings = {}, {}
    for mode, payload in doc.get("modes", {}).items():
        for key, workload in payload.get("workloads", {}).items():
            speedup = workload.get("speedup")
            if speedup is not None:
                speedups[f"{mode}/{key}"] = float(speedup)
        for key, timing in payload.get("timings", {}).items():
            timings[f"{mode}/{key}"] = float(timing["calibrated"])
    checks = {}
    for name, path, criterion, bound in recipe["checks"]:
        value = _dig(doc, path)
        if value is None:
            raise TelemetryError(
                f"bench document from {source!r} is missing check "
                f"field {'/'.join(path)}"
            )
        checks[name] = {"value": value, criterion: bound}
    info = {}
    for name, path in recipe["info"]:
        value = _dig(doc, path)
        if value is not None:
            info[name] = value
    return {
        "schema": LEDGER_SCHEMA,
        "kind": "bench",
        "suite": recipe["suite"],
        "generated_by": source,
        "speedups": speedups,
        "timings": timings,
        "checks": checks,
        "info": info,
    }


def normalise(doc: dict) -> dict:
    """Lift any known BENCH document into the unified schema-2 form."""
    if not isinstance(doc, dict) or "schema" not in doc:
        raise TelemetryError("bench document has no schema field")
    schema = doc["schema"]
    if schema == 1:
        return _lift_v1(doc)
    if schema == LEDGER_SCHEMA:
        if doc.get("kind") != "bench":
            raise TelemetryError(
                f"schema-2 document is not a bench ledger "
                f"(kind={doc.get('kind')!r})"
            )
        for field in ("suite", "speedups", "checks"):
            if field not in doc:
                raise TelemetryError(
                    f"bench ledger missing required field {field!r}"
                )
        return doc
    raise TelemetryError(f"unsupported bench schema {schema!r}")


def _check_failures(suite: str, checks: dict) -> list[str]:
    # One line per failing check, always "observed ..., expected ..." so
    # a CI log names every violated gate with both sides of the bound.
    failures = []
    for name, entry in checks.items():
        value = entry.get("value")
        if "exact" in entry:
            if value != entry["exact"]:
                failures.append(
                    f"{suite}: check {name}: observed {value!r}, "
                    f"expected exactly {entry['exact']!r}"
                )
        elif "max" in entry:
            if not (isinstance(value, (int, float))
                    and value <= entry["max"]):
                failures.append(
                    f"{suite}: check {name}: observed {value!r}, "
                    f"expected <= {entry['max']!r}"
                )
        elif "min" in entry:
            if not (isinstance(value, (int, float))
                    and value >= entry["min"]):
                failures.append(
                    f"{suite}: check {name}: observed {value!r}, "
                    f"expected >= {entry['min']!r}"
                )
        elif "expect" in entry:
            if value != entry["expect"]:
                failures.append(
                    f"{suite}: check {name}: observed {value!r}, "
                    f"expected {entry['expect']!r}"
                )
        else:
            failures.append(
                f"{suite}: check {name} declares no criterion "
                f"(exact/max/min/expect)"
            )
    return failures


def self_check(doc: dict) -> list[str]:
    """Failure messages for a document violating its own checks."""
    ledger = normalise(doc)
    return _check_failures(ledger["suite"], ledger["checks"])


def compare(fresh: dict, baseline: dict, *,
            fraction: float = REGRESSION_FRACTION) -> list[str]:
    """Diff a fresh bench run against a committed baseline.

    Returns failure messages; empty means the gate passes. The fresh
    run must satisfy its own checks, every speedup present in both
    documents must stay above ``fraction`` of the baseline's (ratios
    are machine-independent, so a baseline from another host is a
    meaningful gate), and every calibrated timing present in both must
    stay below the baseline's divided by ``fraction`` (kernel units
    cancel the machine's speed). Keys only one side measured are
    ignored.
    """
    fresh = normalise(fresh)
    baseline = normalise(baseline)
    suite = fresh["suite"]
    failures = []
    if suite != baseline["suite"]:
        return [
            f"suite mismatch: fresh is {suite!r}, baseline is "
            f"{baseline['suite']!r}"
        ]
    failures.extend(_check_failures(suite, fresh["checks"]))
    for key in sorted(set(fresh["speedups"]) & set(baseline["speedups"])):
        measured = fresh["speedups"][key]
        floor = fraction * baseline["speedups"][key]
        if measured < floor:
            failures.append(
                f"{suite}/{key}: speedup {measured:.1f}x fell below "
                f"{floor:.1f}x (= {fraction:.0%} of baseline "
                f"{baseline['speedups'][key]:.1f}x)"
            )
    fresh_timings = fresh.get("timings", {})
    base_timings = baseline.get("timings", {})
    for key in sorted(set(fresh_timings) & set(base_timings)):
        measured = fresh_timings[key]
        ceiling = base_timings[key] / fraction
        if measured > ceiling:
            failures.append(
                f"{suite}/{key}: calibrated time {measured:.1f} rose above "
                f"{ceiling:.1f} (= baseline {base_timings[key]:.1f} / "
                f"{fraction:.0%}) kernel units"
            )
    return failures


def load_ledger(path) -> dict:
    """Read and normalise one BENCH JSON file."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise TelemetryError(f"bench file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise TelemetryError(f"bench file {path} is not JSON: {exc}") from None
    return normalise(doc)


def render_ledger(ledgers: list[dict]) -> str:
    """Text report over normalised ledger documents."""
    lines = []
    for ledger in ledgers:
        lines.append(f"suite {ledger['suite']} ({ledger['generated_by']})")
        checks = ledger["checks"]
        for name in sorted(checks):
            entry = checks[name]
            for criterion in ("exact", "max", "min", "expect"):
                if criterion in entry:
                    bound = f"{criterion} {entry[criterion]!r}"
                    break
            else:
                bound = "no criterion"
            ok = not _check_failures(ledger["suite"], {name: entry})
            lines.append(
                f"  check {name:<40} {entry.get('value')!r:>14} "
                f"[{bound}] {'ok' if ok else 'FAIL'}"
            )
        speedups = ledger["speedups"]
        for key in sorted(speedups):
            lines.append(f"  speedup {key:<46} {speedups[key]:>8.1f}x")
        timings = ledger.get("timings", {})
        for key in sorted(timings):
            lines.append(
                f"  timing {key:<47} {timings[key]:>8.1f} kernel units"
            )
        for key in sorted(ledger.get("info", {})):
            lines.append(
                f"  info {key:<41} {ledger['info'][key]!r:>14}"
            )
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
