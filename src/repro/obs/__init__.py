"""Observability layer: structured tracing, metrics, and run reports.

See :mod:`repro.obs.core` for the collector design (its counters and
histograms are the one telemetry store), :mod:`repro.obs.events` for
the event schema, :mod:`repro.obs.profile` for span-tree profiling,
:mod:`repro.obs.ledger` for the unified BENCH perf ledger, and
``docs/OBSERVABILITY.md`` for the span/metric taxonomy and how to read
a trace.
"""

from repro.obs.core import (
    TRACE_LEVELS,
    Collector,
    Histogram,
    active,
    capture,
    counter_add,
    enabled,
    event,
    observe,
    progress,
    span,
    timing_sample,
    traced_task,
    tracing,
)
from repro.obs.events import (
    SCHEMA_VERSION,
    SUPPORTED_SCHEMAS,
    sanitise_value,
    validate_event,
    validate_trace,
)
from repro.obs.ledger import compare as compare_bench
from repro.obs.ledger import load_ledger, render_ledger
from repro.obs.ledger import self_check as self_check_bench
from repro.obs.logcfg import configure_verbosity, package_logger
from repro.obs.profile import (
    ProfileNode,
    build_profile,
    fold_stacks,
    render_profile,
)
from repro.obs.heartbeat import Heartbeat
from repro.obs.report import render_report, summarise_report
from repro.obs.sink import JsonlSink, load_validated_trace, read_trace

__all__ = [
    "TRACE_LEVELS",
    "SCHEMA_VERSION",
    "SUPPORTED_SCHEMAS",
    "Collector",
    "Heartbeat",
    "Histogram",
    "JsonlSink",
    "ProfileNode",
    "active",
    "build_profile",
    "capture",
    "compare_bench",
    "configure_verbosity",
    "counter_add",
    "enabled",
    "event",
    "fold_stacks",
    "load_ledger",
    "load_validated_trace",
    "observe",
    "package_logger",
    "progress",
    "read_trace",
    "render_ledger",
    "render_profile",
    "render_report",
    "sanitise_value",
    "self_check_bench",
    "span",
    "summarise_report",
    "timing_sample",
    "traced_task",
    "tracing",
    "validate_event",
    "validate_trace",
]
