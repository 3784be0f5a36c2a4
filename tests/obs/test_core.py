"""Unit tests for the telemetry core: spans, counters, histograms."""

import math

import pytest

from repro import obs
from repro.obs.core import Collector, Histogram


class TestHistogram:
    def test_empty(self):
        hist = Histogram()
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.std == 0.0

    def test_single_value(self):
        hist = Histogram()
        hist.record(3.5)
        assert hist.count == 1
        assert hist.mean == 3.5
        assert hist.std == 0.0
        assert hist.min == 3.5
        assert hist.max == 3.5

    def test_mean_and_population_std(self):
        hist = Histogram()
        values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        for v in values:
            hist.record(v)
        assert hist.mean == pytest.approx(5.0)
        assert hist.std == pytest.approx(2.0)  # classic population-std example
        assert hist.min == 2.0
        assert hist.max == 9.0

    def test_merge_state_is_exact(self):
        left, right, whole = Histogram(), Histogram(), Histogram()
        values = [0.1, -2.5, 3.75, 11.0, 0.0, 6.25]
        for v in values[:3]:
            left.record(v)
            whole.record(v)
        for v in values[3:]:
            right.record(v)
            whole.record(v)
        left.merge_state(right.state())
        assert left.summary() == whole.summary()

    def test_summary_fields(self):
        hist = Histogram()
        hist.record(1.0)
        assert set(hist.summary()) == {
            "count", "total", "mean", "std", "min", "max", "p50", "p90",
            "p99",
        }


class TestDisabledMode:
    def test_module_api_is_noop(self):
        assert not obs.enabled()
        assert obs.active() is None
        # None of these should raise or allocate a collector.
        obs.counter_add("x.y")
        obs.observe("x.y", 1.0)
        obs.event("x.y", value=1)
        obs.timing_sample("label", [0.1])

    def test_span_returns_shared_noop(self):
        first = obs.span("a.b")
        second = obs.span("c.d", collect=True)
        assert first is second  # shared singleton — zero allocation
        with first as sp:
            assert sp.collecting is False
            assert sp.telemetry() == {}

    def test_noop_span_does_not_swallow_exceptions(self):
        with pytest.raises(RuntimeError):
            with obs.span("a.b"):
                raise RuntimeError("boom")


class TestCapture:
    def test_install_and_restore(self):
        assert not obs.enabled()
        with obs.capture() as col:
            assert obs.enabled()
            assert obs.active() is col
        assert not obs.enabled()

    def test_nesting_restores_previous(self):
        with obs.capture() as outer:
            with obs.capture() as inner:
                assert obs.active() is inner
            assert obs.active() is outer

    def test_restored_on_exception(self):
        with pytest.raises(ValueError):
            with obs.capture():
                raise ValueError
        assert not obs.enabled()

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError, match="level"):
            Collector(level="verbose")

    def test_event_with_invalid_level_fails_loudly(self):
        # Catches `level=` attribute collisions at call sites: the
        # keyword is reserved for the trace level.
        with obs.capture():
            with pytest.raises(ValueError, match="unknown trace level"):
                obs.event("coverage.campaign", level=0.99)


class TestSpans:
    def test_span_event_fields(self):
        with obs.capture() as col:
            with obs.span("vb2.fit", data="FailureTimeData"):
                pass
        (ev,) = [e for e in col.events if e["kind"] == "span"]
        assert ev["name"] == "vb2.fit"
        assert ev["depth"] == 0
        assert ev["status"] == "ok"
        assert ev["data"] == "FailureTimeData"
        assert "wall_s" not in ev  # summary level is deterministic

    def test_wall_clock_only_at_timing_level(self):
        with obs.capture(level="timing") as col:
            with obs.span("vb2.fit"):
                pass
        (ev,) = [e for e in col.events if e["kind"] == "span"]
        assert ev["wall_s"] >= 0.0

    def test_nesting_depth(self):
        with obs.capture() as col:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        inner, outer = [e for e in col.events if e["kind"] == "span"]
        # Inner span closes (and is emitted) first.
        assert (inner["name"], inner["depth"]) == ("inner", 1)
        assert (outer["name"], outer["depth"]) == ("outer", 0)

    def test_error_status_and_propagation(self):
        with obs.capture() as col:
            with pytest.raises(ZeroDivisionError):
                with obs.span("mle.em.fit"):
                    1 / 0
        (ev,) = col.events
        assert ev["status"] == "error:ZeroDivisionError"
        assert col.span_stats["mle.em.fit"]["errors"] == 1

    def test_collecting_span_scopes_metrics(self):
        with obs.capture() as col:
            obs.counter_add("before", 1)
            with obs.span("fit", collect=True) as sp:
                obs.counter_add("fit.solves", 3)
                obs.observe("fit.nmax", 100)
                obs.observe("fit.nmax", 200)
            telemetry = sp.telemetry()
        assert telemetry["counters"] == {"fit.solves": 3}
        assert telemetry["histograms"]["fit.nmax"]["count"] == 2
        assert telemetry["histograms"]["fit.nmax"]["mean"] == 150.0
        assert "before" not in telemetry["counters"]
        # Global aggregates still see everything.
        assert col.counters == {"before": 1, "fit.solves": 3}

    def test_nested_collecting_spans_both_see_updates(self):
        with obs.capture():
            with obs.span("outer", collect=True) as outer_sp:
                obs.counter_add("a")
                with obs.span("inner", collect=True) as inner_sp:
                    obs.counter_add("a")
        assert outer_sp.telemetry()["counters"]["a"] == 2
        assert inner_sp.telemetry()["counters"]["a"] == 1

    def test_level_gated_span_is_noop(self):
        with obs.capture(level="summary") as col:
            with obs.span("vb2.solve_n", level="debug") as sp:
                pass
            assert sp.collecting is False
        assert col.events == []


class TestEventsAndMetrics:
    def test_point_event(self):
        with obs.capture() as col:
            obs.event("fixed_point.divergence", residuals=[1.0, 0.5])
        (ev,) = col.events
        assert ev["kind"] == "point"
        assert ev["name"] == "fixed_point.divergence"
        assert ev["residuals"] == [1.0, 0.5]

    def test_level_gated_event(self):
        with obs.capture(level="summary") as col:
            obs.event("vb2.growth_round", level="debug", nmax=64)
        assert col.events == []

    def test_seq_strictly_increasing(self):
        with obs.capture() as col:
            for _ in range(5):
                obs.event("tick")
        assert [e["seq"] for e in col.events] == [0, 1, 2, 3, 4]

    def test_timing_sample_suppressed_at_summary_level(self):
        with obs.capture(level="summary") as col:
            obs.timing_sample("bench", [0.1, 0.2])
        assert col.events == []

    def test_timing_sample_statistics(self):
        with obs.capture(level="timing") as col:
            obs.timing_sample("bench", [0.1, 0.2, 0.3])
        (ev,) = col.events
        assert ev["kind"] == "timing"
        assert ev["label"] == "bench"
        assert ev["repeat"] == 3
        assert ev["min_s"] == pytest.approx(0.1)
        assert ev["mean_s"] == pytest.approx(0.2)
        assert ev["std_s"] == pytest.approx(math.sqrt(0.02 / 3))

    def test_summary_event_sorted_and_complete(self):
        with obs.capture() as col:
            obs.counter_add("z.last")
            obs.counter_add("a.first", 2)
            obs.observe("m.metric", 7.0)
            with obs.span("fit"):
                pass
            ev = col.emit_summary()
        assert list(ev["counters"]) == ["a.first", "z.last"]
        assert ev["histograms"]["m.metric"]["count"] == 1
        assert ev["spans"]["fit"] == {"count": 1, "errors": 0}


class TestMerge:
    def test_merge_re_sequences_and_tags_rep(self):
        with obs.capture() as child:
            with obs.span("vb1.fit"):
                pass
            obs.counter_add("vb1.fits")
            obs.observe("vb1.iterations", 12)
        payload = child.export()

        with obs.capture() as parent:
            parent.emit("meta", schema=1, level="summary")
            parent.merge(payload, rep=4)
            parent.merge(payload, rep=9)
        spans = [e for e in parent.events if e["kind"] == "span"]
        assert [e["rep"] for e in spans] == [4, 9]
        assert [e["seq"] for e in parent.events] == list(
            range(len(parent.events))
        )
        assert parent.counters["vb1.fits"] == 2
        assert parent.histograms["vb1.iterations"].count == 2
        assert parent.span_stats["vb1.fit"]["count"] == 2

    def test_export_roundtrips_through_pickle(self):
        import pickle

        with obs.capture() as child:
            obs.observe("x", 1.5)
        payload = pickle.loads(pickle.dumps(child.export()))
        with obs.capture() as parent:
            parent.merge(payload)
        assert parent.histograms["x"].total == 1.5

    def test_traced_task_returns_result_and_export(self):
        result, payload = obs.traced_task(lambda x: x * 2, "summary", 21)
        assert result == 42
        assert set(payload) == {"events", "counters", "histograms", "spans"}
        assert not obs.enabled()  # capture restored
