"""Unified perf ledger over the committed BENCH_*.json artifacts.

Every benchmark script writes one versioned document, and one gate
reads them all:

* :func:`normalise` validates a document's layout;
* :func:`self_check` verifies a document against its *own* declared
  exactness/tolerance checks (what the committed baselines must always
  satisfy);
* :func:`compare` diffs a fresh run against a committed baseline:
  every calibrated timing must stay below the baseline's divided by
  ``REGRESSION_FRACTION``, no baseline timing or check may be missing,
  and the fresh run must pass its self-checks.

Document layout (``schema: 2, kind: "bench"``)::

    {
      "schema": 2,
      "kind": "bench",
      "suite": "fit",                      # short suite name
      "generated_by": "benchmarks/bench_fit_path.py",
      "timings": {"quick/DG-Info/nint_grid": 1.4, ...},      # gated
      "checks": {
        "vb2_max_abs_diff": {"value": 0.0, "exact": 0.0},
        "vb2_inverse_max_rel_residual": {"value": 9e-13, "max": 1e-9}
      },
      "info": {...}                        # ungated context
    }

``timings`` are calibrated absolute times of production calls: the
best-of seconds of a workload divided by the best-of seconds of the
calibration kernel (``perfbench/calib.py::kernel``) timed in the same
process, so one unit is one kernel run. A key's first segment names
the bench mode that measured it (``quick`` or ``full``); a key without
one (``cache/hit``) is measured in every mode.

``checks`` entries carry their own pass criterion: ``exact`` (equal),
``max`` (value <= bound) or ``expect`` (equal, for booleans). Every
failure message names the check and gives both the observed value and
the expected bound on one line. The CLI surface is ``repro bench
check`` / ``repro bench report``.
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

#: Version of the bench-ledger layout.
LEDGER_SCHEMA = 2

#: A fresh calibrated timing above the baseline's divided by this
#: fraction is a regression (a >20% slowdown).
REGRESSION_FRACTION = 0.8

#: Bench modes, the first segment of a mode's timing keys.
_MODES = ("full", "quick")

_CRITERIA = ("exact", "max", "expect")

_FIELDS = ("schema", "kind", "suite", "generated_by", "timings", "checks",
           "info")


def normalise(doc: dict) -> dict:
    """Validate a bench ledger document and return it."""
    if not isinstance(doc, dict) or "schema" not in doc:
        raise TelemetryError("bench document has no schema field")
    schema = doc["schema"]
    extra = sorted(set(doc) - set(_FIELDS))
    if schema == 1 or (schema == LEDGER_SCHEMA and extra):
        # Schema 1 and the retired ratio section gated legacy code; a
        # rerun of the script writes the current layout.
        raise TelemetryError(
            f"outdated bench document (schema {schema!r}"
            f"{', fields ' + ', '.join(extra) if extra else ''}); rerun "
            f"{doc.get('generated_by') or 'its benchmark script'} to "
            f"write a schema-{LEDGER_SCHEMA} ledger"
        )
    if schema != LEDGER_SCHEMA:
        raise TelemetryError(f"unsupported bench schema {schema!r}")
    if doc.get("kind") != "bench":
        raise TelemetryError(
            f"schema-2 document is not a bench ledger "
            f"(kind={doc.get('kind')!r})"
        )
    for field in ("suite", "timings", "checks"):
        if field not in doc:
            raise TelemetryError(
                f"bench ledger missing required field {field!r}"
            )
    return doc


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
        elif "expect" in entry:
            if value != entry["expect"]:
                failures.append(
                    f"{suite}: check {name}: observed {value!r}, "
                    f"expected {entry['expect']!r}"
                )
        else:
            failures.append(
                f"{suite}: check {name} declares no criterion "
                f"({'/'.join(_CRITERIA)})"
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
    run must satisfy its own checks and carry every baseline check;
    every baseline timing of a mode the fresh run measured, and every
    mode-less one, must be present and stay below the baseline's
    divided by ``fraction`` (kernel units cancel the machine's speed).
    Fresh keys the baseline lacks are not gated.
    """
    fresh = normalise(fresh)
    baseline = normalise(baseline)
    suite = fresh["suite"]
    if suite != baseline["suite"]:
        return [
            f"suite mismatch: fresh is {suite!r}, baseline is "
            f"{baseline['suite']!r}"
        ]
    failures = _check_failures(suite, fresh["checks"])
    for name in sorted(set(baseline["checks"]) - set(fresh["checks"])):
        failures.append(f"{suite}: check {name}: missing from the fresh run")
    fresh_timings = fresh["timings"]
    measured_modes = {key.split("/", 1)[0] for key in fresh_timings}
    for key, base in sorted(baseline["timings"].items()):
        mode = key.split("/", 1)[0]
        if key not in fresh_timings:
            if mode in measured_modes or mode not in _MODES:
                failures.append(
                    f"{suite}/{key}: baseline timing missing from the "
                    f"fresh run"
                )
            continue
        measured = fresh_timings[key]
        ceiling = base / fraction
        if measured > ceiling:
            failures.append(
                f"{suite}/{key}: calibrated time {measured:.1f} rose above "
                f"{ceiling:.1f} (= baseline {base:.1f} / "
                f"{fraction:.0%}) kernel units"
            )
    return failures


def load_ledger(path) -> dict:
    """Read and validate one BENCH JSON file."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise TelemetryError(f"bench file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise TelemetryError(f"bench file {path} is not JSON: {exc}") from None
    return normalise(doc)


def render_ledger(ledgers: list[dict]) -> str:
    """Text report over validated ledger documents."""
    lines = []
    for ledger in ledgers:
        lines.append(f"suite {ledger['suite']} ({ledger['generated_by']})")
        checks = ledger["checks"]
        for name in sorted(checks):
            entry = checks[name]
            bound = next(
                (f"{c} {entry[c]!r}" for c in _CRITERIA if c in entry),
                "no criterion",
            )
            ok = not _check_failures(ledger["suite"], {name: entry})
            lines.append(
                f"  check {name:<40} {entry.get('value')!r:>14} "
                f"[{bound}] {'ok' if ok else 'FAIL'}"
            )
        timings = ledger["timings"]
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
