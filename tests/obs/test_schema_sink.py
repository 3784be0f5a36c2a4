"""Schema validation, JSONL round-trip, and canonical encoding tests."""

from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.exceptions import TelemetryError
from repro.obs.events import sanitise_value, validate_event, validate_trace
from repro.obs.sink import (
    JsonlSink,
    encode_event,
    load_validated_trace,
    read_trace,
)


class TestSanitiseValue:
    def test_scalars_pass_through(self):
        for value in (None, True, 3, 2.5, "s"):
            assert sanitise_value(value) is value

    def test_numpy_scalars_become_python(self):
        out = sanitise_value(np.float64(1.5))
        assert type(out) is float and out == 1.5
        out = sanitise_value(np.int64(7))
        assert type(out) is int and out == 7

    def test_numpy_array_becomes_list(self):
        assert sanitise_value(np.array([1.0, 2.0])) == [1.0, 2.0]

    def test_nested_structures(self):
        out = sanitise_value({"a": (np.int32(1), [np.float32(2.0)])})
        assert out == {"a": [1, [2.0]]}

    def test_unknown_objects_stringified(self):
        class Weird:
            def __repr__(self):
                return "<weird>"

        assert sanitise_value(Weird()) == "<weird>"


class TestValidateEvent:
    def test_valid_span(self):
        validate_event(
            {"kind": "span", "seq": 1, "name": "vb2.fit", "depth": 0,
             "status": "ok"}
        )

    def test_unknown_kind(self):
        with pytest.raises(TelemetryError, match="kind"):
            validate_event({"kind": "bogus", "seq": 0})

    def test_missing_required_field(self):
        with pytest.raises(TelemetryError, match="status"):
            validate_event(
                {"kind": "span", "seq": 0, "name": "a", "depth": 0}
            )

    def test_bad_span_name(self):
        with pytest.raises(TelemetryError, match="dotted identifier"):
            validate_event(
                {"kind": "span", "seq": 0, "name": "Bad Name", "depth": 0,
                 "status": "ok"}
            )

    def test_bad_status(self):
        with pytest.raises(TelemetryError, match="status"):
            validate_event(
                {"kind": "span", "seq": 0, "name": "a.b", "depth": 0,
                 "status": "crashed"}
            )

    def test_error_status_accepted(self):
        validate_event(
            {"kind": "span", "seq": 0, "name": "a.b", "depth": 0,
             "status": "error:ConvergenceError"}
        )

    def test_meta_level_checked(self):
        with pytest.raises(TelemetryError, match="level"):
            validate_event(
                {"kind": "meta", "seq": 0, "schema": 1, "level": "loud"}
            )

    def test_nested_attribute_rejected(self):
        with pytest.raises(TelemetryError, match="flat list"):
            validate_event(
                {"kind": "point", "seq": 0, "name": "x", "bad": {"a": 1}}
            )

    def test_flat_list_attribute_accepted(self):
        validate_event(
            {"kind": "point", "seq": 0, "name": "fixed_point.divergence",
             "residuals": [1.0, 0.5, 0.25]}
        )

    def test_timing_fields(self):
        with pytest.raises(TelemetryError, match="repeat"):
            validate_event(
                {"kind": "timing", "seq": 0, "label": "x", "repeat": 0,
                 "min_s": 0.1, "mean_s": 0.1, "std_s": 0.0}
            )

    def test_summary_histogram_shape(self):
        with pytest.raises(TelemetryError, match="histogram"):
            validate_event(
                {"kind": "summary", "seq": 0, "counters": {},
                 "histograms": {"m": {"count": 1}}, "spans": {}}
            )

    def test_summary_histogram_layouts(self):
        legacy = {"count": 1, "total": 2.0, "mean": 2.0, "std": 0.0,
                  "min": 2.0, "max": 2.0}
        current = {**legacy, "p50": 2.05, "p90": 2.05, "p99": 2.05}
        for hist in (legacy, current):
            validate_event(
                {"kind": "summary", "seq": 0, "counters": {},
                 "histograms": {"m.x": hist}, "spans": {}}
            )
        with pytest.raises(TelemetryError, match="histogram"):
            validate_event(
                {"kind": "summary", "seq": 0, "counters": {},
                 "histograms": {"m.x": {**legacy, "p50": 2.05}},
                 "spans": {}}
            )

    def test_rep_must_be_int(self):
        with pytest.raises(TelemetryError, match="rep"):
            validate_event(
                {"kind": "point", "seq": 0, "name": "x", "rep": "3"}
            )


class TestValidateTrace:
    def test_must_start_with_meta(self):
        with pytest.raises(TelemetryError, match="meta"):
            validate_trace([{"kind": "point", "seq": 0, "name": "x"}])

    def test_empty_trace_rejected(self):
        with pytest.raises(TelemetryError, match="empty"):
            validate_trace([])

    def test_seq_must_increase(self):
        events = [
            {"kind": "meta", "seq": 0, "schema": 1, "level": "summary"},
            {"kind": "point", "seq": 0, "name": "x"},
        ]
        with pytest.raises(TelemetryError, match="strictly increasing"):
            validate_trace(events)

    def test_counts_events(self):
        events = [
            {"kind": "meta", "seq": 0, "schema": 1, "level": "summary"},
            {"kind": "point", "seq": 1, "name": "x"},
        ]
        assert validate_trace(events) == 2


class TestJsonlRoundTrip:
    def test_write_and_read_back(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        events = [
            {"kind": "meta", "seq": 0, "schema": 1, "level": "summary"},
            {"kind": "point", "seq": 1, "name": "x", "value": 2.5},
        ]
        with JsonlSink(path) as sink:
            for ev in events:
                sink.write(ev)
        assert read_trace(path) == events
        assert load_validated_trace(path) == events

    def test_encoding_is_canonical(self):
        ev = {"seq": 0, "kind": "meta", "schema": 1, "level": "summary"}
        line = encode_event(ev)
        assert line == '{"kind":"meta","level":"summary","schema":1,"seq":0}'
        # Key order in the dict must not matter.
        assert line == encode_event(dict(reversed(list(ev.items()))))

    def test_corrupt_line_raises_telemetry_error(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"kind":"meta","seq":0}\nnot json\n')
        with pytest.raises(TelemetryError, match="not valid JSON"):
            read_trace(path)

    def test_invalid_event_caught_on_load(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"kind":"mystery","seq":0}\n')
        with pytest.raises(TelemetryError, match="kind"):
            load_validated_trace(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"kind":"meta","seq":0,"schema":1,"level":"summary"}\n\n')
        assert len(read_trace(path)) == 1

    def test_sink_creates_parent_directory(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "trace.jsonl"
        with JsonlSink(path) as sink:
            sink.write({"kind": "meta", "seq": 0})
        assert path.exists()


#: A schema-1 trace as written before the metrics registry existed.
_SCHEMA_1_TRACE = [
    {"kind": "meta", "seq": 0, "schema": 1, "level": "summary"},
    {"kind": "span", "seq": 1, "name": "vb2.fit", "depth": 0,
     "status": "ok"},
    {"kind": "summary", "seq": 2, "counters": {"vb2.solves": 201},
     "histograms": {"vb2.nmax": {"count": 1, "total": 228.0,
                                 "mean": 228.0, "std": 0.0, "min": 228.0,
                                 "max": 228.0}},
     "spans": {"vb2.fit": {"count": 1, "errors": 0}}},
]

#: A schema-2 trace: the same, plus the labeled registry's snapshot.
_SCHEMA_2_TRACE = [
    {**_SCHEMA_1_TRACE[0], "schema": 2},
    _SCHEMA_1_TRACE[1],
    {"kind": "metrics", "seq": 2, "counters": {"vb2.fits": 1},
     "gauges": {"fit.elbo{method=VB2}": {"value": -5.0, "updates": 1}},
     "histograms": {"fit.nmax{method=VB2}": {
         "count": 1, "total": 228.0, "mean": 228.0, "min": 228.0,
         "max": 228.0, "p50": 237.1, "p90": 237.1, "p99": 237.1}}},
    {**_SCHEMA_1_TRACE[2], "seq": 3},
]


def _write_trace(path, events):
    with JsonlSink(path) as sink:
        for ev in events:
            sink.write(ev)
    return path


class TestSchema2Events:
    def test_metrics_event_round_trip(self, tmp_path, capsys):
        import json

        from repro.cli import main

        path = _write_trace(tmp_path / "v2.jsonl", _SCHEMA_2_TRACE)
        assert load_validated_trace(path) == _SCHEMA_2_TRACE
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "vb2.nmax" in out
        assert "fit." not in out  # the report skips the metrics event
        assert main(["report", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 2
        assert "metrics" not in payload
        assert payload["histograms"]["vb2.nmax"]["max"] == 228.0

    @pytest.mark.parametrize("field", ["counters", "gauges", "histograms"])
    def test_metrics_event_needs_its_dict_fields(self, field):
        event = {"kind": "metrics", "seq": 0, "counters": {}, "gauges": {},
                 "histograms": {}}
        validate_event(event)
        del event[field]
        with pytest.raises(TelemetryError, match=field):
            validate_event(event)

    def test_progress_event_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with obs.tracing(path, level="timing"):
            obs.progress("sbc.replications", 3, 10, elapsed_s=1.5,
                         rate_per_s=2.0, eta_s=3.5)
        events = load_validated_trace(path)
        (progress,) = [e for e in events if e["kind"] == "progress"]
        assert progress["done"] == 3 and progress["total"] == 10

    def test_progress_gated_behind_timing(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with obs.tracing(path, level="summary"):
            obs.progress("sbc.replications", 3, 10)
        events = load_validated_trace(path)
        assert not [e for e in events if e["kind"] == "progress"]

    def test_no_metrics_event_when_registry_empty(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with obs.tracing(path, level="summary"):
            obs.counter_add("vb2.solves")
            obs.observe("vb2.elbo", -5.0)
        events = load_validated_trace(path)
        assert events[0]["schema"] == 3
        assert not [e for e in events if e["kind"] == "metrics"]
        assert events[-1]["histograms"]["vb2.elbo"]["p50"] is None

    def test_schema_1_trace_still_valid(self, tmp_path, capsys):
        from repro.cli import main

        assert validate_trace(_SCHEMA_1_TRACE) == 3
        path = _write_trace(tmp_path / "v1.jsonl", _SCHEMA_1_TRACE)
        assert main(["report", str(path)]) == 0
        row = next(line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("vb2.nmax"))
        # The six-field layout has no quantiles to show.
        assert row.split()[-3:] == ["-", "-", "-"]

    def test_unsupported_schema_rejected(self):
        with pytest.raises(TelemetryError, match="schema"):
            validate_trace(
                [{"kind": "meta", "seq": 0, "schema": 4, "level": "summary"}]
            )

    def test_bad_metric_key_rejected(self):
        with pytest.raises(TelemetryError, match="counter"):
            validate_event(
                {"kind": "summary", "seq": 0,
                 "counters": {"Bad Key": 1}, "histograms": {},
                 "spans": {}}
            )
        with pytest.raises(TelemetryError, match="histogram"):
            validate_event(
                {"kind": "summary", "seq": 0, "counters": {},
                 "histograms": {"fit.elbo{method=VB2}": {}}, "spans": {}}
            )

    def test_gauge_shape_checked(self):
        # A schema-2 metrics event is read by its three dict fields.
        with pytest.raises(TelemetryError, match="gauges"):
            validate_event(
                {"kind": "metrics", "seq": 0, "counters": {},
                 "gauges": [{"value": 1.0}], "histograms": {}}
            )

    def test_progress_done_beyond_total_rejected(self):
        with pytest.raises(TelemetryError, match="done"):
            validate_event(
                {"kind": "progress", "seq": 0, "label": "x.y",
                 "done": 11, "total": 10}
            )


class TestCrashSafety:
    def test_killed_writer_leaves_readable_trace(self, tmp_path):
        """A process killed mid-trace (os._exit, no atexit, no flush
        of Python-level buffers) must leave every completed event
        readable — the JsonlSink flushes per event."""
        import subprocess
        import sys as _sys

        path = tmp_path / "killed.jsonl"
        script = (
            "import os, sys\n"
            "sys.path.insert(0, sys.argv[2])\n"
            "from repro import obs\n"
            "from repro.obs.sink import JsonlSink\n"
            "sink = JsonlSink(sys.argv[1])\n"
            "with obs.capture(level='summary', sink=sink) as col:\n"
            "    col.emit('meta', schema=3, level='summary')\n"
            "    with obs.span('vb2.fit'):\n"
            "        obs.counter_add('vb2.solves')\n"
            "    os._exit(1)  # simulated hard crash, nothing runs after\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        proc = subprocess.run(
            [_sys.executable, "-c", script, str(path), src],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1, proc.stderr
        events = read_trace(path)
        assert [e["kind"] for e in events] == ["meta", "span"]
        validate_trace(events)


class TestTracingContext:
    def test_full_trace_is_valid(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with obs.tracing(path, level="summary", command="test"):
            with obs.span("vb2.fit"):
                obs.counter_add("vb2.solves", 2)
        events = load_validated_trace(path)
        assert events[0]["kind"] == "meta"
        assert events[0]["command"] == "test"
        assert events[-1]["kind"] == "summary"
        assert events[-1]["counters"] == {"vb2.solves": 2}

    def test_file_closed_on_error(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with pytest.raises(RuntimeError):
            with obs.tracing(path):
                raise RuntimeError
        # Partial trace is still readable (meta event was flushed).
        events = read_trace(path)
        assert events and events[0]["kind"] == "meta"
        assert not obs.enabled()
