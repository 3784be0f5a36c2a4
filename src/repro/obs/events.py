"""Trace event schema and validation.

A trace is a JSON-Lines file; each line is one event object. Every
event has a ``kind`` and a per-trace monotonically increasing ``seq``.
The kinds and their required fields:

``meta``
    Trace header, always first: ``schema`` (int), ``level`` (one of
    ``summary | timing | debug``). Free-form context such as the CLI
    command may ride along.
``span``
    A completed timed region: ``name`` (dotted identifier), ``depth``
    (nesting depth at entry), ``status`` (``ok`` or
    ``error:<ExceptionType>``). ``wall_s`` is present at the timing
    and debug levels only. Campaign traces tag spans with ``rep``, the
    replication's ``SeedSequence`` spawn key.
``point``
    An instantaneous observation: ``name`` plus scalar attributes
    (e.g. ``vb2.truncation_failure`` with its bound and tail mass).
``timing``
    A wall-clock measurement from :func:`repro.metrics.timing.
    time_callable`: ``label``, ``repeat``, ``min_s``, ``mean_s``,
    ``std_s``. Timing events exist only at the timing/debug levels.
``summary``
    Aggregate view, always last when written via ``obs.tracing``:
    ``counters`` (name → number), ``histograms`` (name → count/total/
    mean/std/min/max/p50/p90/p99, the quantiles read off the fixed
    log-bucket grid and ``null`` when a value <= 0 was recorded),
    ``spans`` (name → count/errors[/wall_s]).
``progress`` *(schema 2)*
    Campaign heartbeat: ``label``, ``done``, ``total``. Rate and ETA
    fields (``elapsed_s``, ``rate_per_s``, ``eta_s``) are wall-clock
    and therefore appear at the timing/debug levels only — progress
    events themselves are timing-level, so the default summary trace
    stays byte-identical between serial and parallel runs.

Schema history: version 3 added the ``p50``/``p90``/``p99`` fields to
summary histograms and dropped the ``metrics`` kind. Version 2 added
the ``progress`` kind and a ``metrics`` snapshot of a labeled metrics
registry (dict fields ``counters``, ``gauges``, ``histograms``).
Traces of versions 1 and 2 stay readable: their six-field summary
histograms validate, and a version-2 ``metrics`` event validates by
its three dict fields and is skipped by the report.

The validator is deliberately dependency-free (no jsonschema): it
checks required fields, types, name syntax, and that every extra
attribute is a JSON scalar or a flat list of scalars.
"""

from __future__ import annotations

import re
from collections.abc import Iterable

from repro.exceptions import TelemetryError

__all__ = [
    "SCHEMA_VERSION",
    "SUPPORTED_SCHEMAS",
    "EVENT_KINDS",
    "sanitise_value",
    "validate_event",
    "validate_trace",
]

#: Bumped whenever the event layout changes. Version 3 added summary
#: histogram quantiles and dropped the ``metrics`` kind; older versions
#: stay readable.
SCHEMA_VERSION = 3
#: Schema versions this validator accepts in ``meta`` headers.
SUPPORTED_SCHEMAS = (1, 2, 3)

_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")
_STATUS_RE = re.compile(r"^(ok|error:[A-Za-z_][A-Za-z0-9_]*)$")

#: Summary histogram layouts: schemas 1-2, then schema 3.
_LEGACY_HIST_FIELDS = frozenset(
    {"count", "total", "mean", "std", "min", "max"}
)
_HIST_FIELDS = _LEGACY_HIST_FIELDS | {"p50", "p90", "p99"}

#: kind -> {field: type check}
EVENT_KINDS = ("meta", "span", "point", "timing", "summary", "metrics",
               "progress")


def sanitise_value(value):
    """Coerce a value to plain JSON-compatible Python.

    NumPy scalars become Python scalars, arrays become lists; nested
    dicts/lists are converted recursively. Anything else unhandled is
    stringified rather than allowed to break serialisation mid-trace.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    # int()/float() normalise NumPy scalar subclasses to plain Python.
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    if isinstance(value, dict):
        return {str(k): sanitise_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitise_value(v) for v in value]
    # NumPy scalars/arrays without importing numpy here.
    item = getattr(value, "item", None)
    if callable(item) and getattr(value, "shape", None) == ():
        return value.item()
    tolist = getattr(value, "tolist", None)
    if callable(tolist):
        return sanitise_value(tolist())
    return str(value)


def _is_scalar(value) -> bool:
    return value is None or isinstance(value, (bool, int, float, str))


def _fail(message: str) -> None:
    raise TelemetryError(message)


def _require(event: dict, field: str, types, kind: str):
    if field not in event:
        _fail(f"{kind} event missing required field {field!r}: {event}")
    value = event[field]
    if not isinstance(value, types) or isinstance(value, bool) and types is not bool:
        _fail(
            f"{kind} event field {field!r} has wrong type "
            f"{type(value).__name__}: {event}"
        )
    return value


def validate_event(event: dict) -> None:
    """Validate one event against the schema; raises TelemetryError."""
    if not isinstance(event, dict):
        _fail(f"event must be an object, got {type(event).__name__}")
    kind = event.get("kind")
    if kind not in EVENT_KINDS:
        _fail(f"unknown event kind {kind!r}: {event}")
    seq = _require(event, "seq", int, kind)
    if seq < 0:
        _fail(f"seq must be non-negative: {event}")

    known = {"kind", "seq", "rep"}
    if "rep" in event and not isinstance(event["rep"], int):
        _fail(f"rep must be an integer spawn key: {event}")

    if kind == "meta":
        schema = _require(event, "schema", int, kind)
        if schema not in SUPPORTED_SCHEMAS:
            _fail(
                f"meta schema must be one of {SUPPORTED_SCHEMAS}: {event}"
            )
        level = _require(event, "level", str, kind)
        if level not in ("summary", "timing", "debug"):
            _fail(f"meta level must be a trace level: {event}")
        known |= {"schema", "level"}
    elif kind == "span":
        name = _require(event, "name", str, kind)
        if not _NAME_RE.match(name):
            _fail(f"span name {name!r} is not a dotted identifier")
        depth = _require(event, "depth", int, kind)
        if depth < 0:
            _fail(f"span depth must be non-negative: {event}")
        status = _require(event, "status", str, kind)
        if not _STATUS_RE.match(status):
            _fail(f"span status {status!r} invalid (ok | error:<Type>)")
        if "wall_s" in event and not isinstance(event["wall_s"], (int, float)):
            _fail(f"span wall_s must be a number: {event}")
        known |= {"name", "depth", "status", "wall_s"}
    elif kind == "point":
        name = _require(event, "name", str, kind)
        if not _NAME_RE.match(name):
            _fail(f"point name {name!r} is not a dotted identifier")
        known |= {"name"}
    elif kind == "timing":
        _require(event, "label", str, kind)
        repeat = _require(event, "repeat", int, kind)
        if repeat < 1:
            _fail(f"timing repeat must be positive: {event}")
        for field in ("min_s", "mean_s", "std_s"):
            _require(event, field, (int, float), kind)
        known |= {"label", "repeat", "min_s", "mean_s", "std_s"}
    elif kind == "summary":
        counters = _require(event, "counters", dict, kind)
        for name, value in counters.items():
            if not _NAME_RE.match(name) or not isinstance(value, (int, float)):
                _fail(f"bad counter entry {name!r}: {value!r}")
        histograms = _require(event, "histograms", dict, kind)
        for name, hist in histograms.items():
            if not _NAME_RE.match(name) or not isinstance(hist, dict):
                _fail(f"bad histogram entry {name!r}")
            if set(hist) not in (_HIST_FIELDS, _LEGACY_HIST_FIELDS):
                _fail(
                    f"histogram {name!r} must have fields "
                    f"{sorted(_HIST_FIELDS)}, got {sorted(hist)}"
                )
        spans = _require(event, "spans", dict, kind)
        for name, stats in spans.items():
            if not _NAME_RE.match(name) or not isinstance(stats, dict):
                _fail(f"bad span stats entry {name!r}")
            if not {"count", "errors"} <= set(stats):
                _fail(f"span stats {name!r} must have count and errors")
        known |= {"counters", "histograms", "spans"}
    elif kind == "metrics":
        # Schema 2 only; the report skips it.
        for field in ("counters", "gauges", "histograms"):
            _require(event, field, dict, kind)
        known |= {"counters", "gauges", "histograms"}
    elif kind == "progress":
        label = _require(event, "label", str, kind)
        if not _NAME_RE.match(label):
            _fail(f"progress label {label!r} is not a dotted identifier")
        done = _require(event, "done", int, kind)
        total = _require(event, "total", int, kind)
        if done < 0 or total < 0 or done > total:
            _fail(f"progress needs 0 <= done <= total: {event}")
        for field in ("elapsed_s", "rate_per_s", "eta_s"):
            if field in event and not isinstance(
                event[field], (int, float)
            ):
                _fail(f"progress {field} must be a number: {event}")
        known |= {"label", "done", "total", "elapsed_s", "rate_per_s",
                  "eta_s"}

    for key, value in event.items():
        if key in known:
            continue
        if _is_scalar(value):
            continue
        if isinstance(value, list) and all(_is_scalar(v) for v in value):
            continue
        _fail(
            f"attribute {key!r} must be a JSON scalar or flat list of "
            f"scalars: {value!r}"
        )


def validate_trace(events: Iterable[dict]) -> int:
    """Validate a whole trace; returns the number of events.

    Beyond per-event checks: the trace must be non-empty, start with a
    ``meta`` event, and have strictly increasing ``seq`` values.
    """
    count = 0
    last_seq = -1
    for event in events:
        validate_event(event)
        if count == 0 and event["kind"] != "meta":
            _fail("trace must start with a meta event")
        if event["seq"] <= last_seq:
            _fail(
                f"seq must be strictly increasing: {event['seq']} after "
                f"{last_seq}"
            )
        last_seq = event["seq"]
        count += 1
    if count == 0:
        _fail("trace is empty")
    return count
