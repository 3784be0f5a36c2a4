"""Tests for `repro report` rendering and the CLI trace plumbing."""

import pytest

from repro import obs
from repro.cli import main
from repro.obs.report import method_of, render_report
from repro.obs.sink import load_validated_trace


def _trace_events(level="summary"):
    """A small realistic event list built through the real collector."""
    with obs.capture(level=level) as col:
        col.emit("meta", schema=1, level=level, command="fit")
        with obs.span("vb2.fit"):
            obs.counter_add("vb2.solves", 201)
            obs.observe("vb2.nmax", 228)
            obs.observe("vb2.tail_mass", 1e-12)
        col.emit_summary()
    return col.events


class TestMethodOf:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("vb2.fit", "VB2"),
            ("vb1.outer_iterations", "VB1"),
            ("nint.grid_evaluations", "NINT"),
            ("laplace.fits", "LAPL"),
            ("mcmc.ess_omega", "MCMC"),
            ("fixed_point.iterations", "fixed_point"),
        ],
    )
    def test_prefix_mapping(self, name, expected):
        assert method_of(name) == expected


class TestRenderReport:
    def test_header_and_sections(self):
        text = render_report(_trace_events())
        assert "level summary" in text
        assert "command fit" in text
        assert "## cost per method (spans)" in text
        assert "## convergence metrics (histograms)" in text
        assert "## counters" in text
        assert "VB2" in text
        assert "vb2.solves" in text

    def test_summary_level_has_no_wall_clock_column_values(self):
        text = render_report(_trace_events())
        # Span table shows "-" for wall clock at the summary level.
        vb2_row = next(
            line for line in text.splitlines() if line.startswith("VB2")
        )
        assert "-" in vb2_row

    def test_timing_level_reports_wall_clock(self):
        text = render_report(_trace_events(level="timing"))
        vb2_row = next(
            line for line in text.splitlines() if line.startswith("VB2")
        )
        assert "-" not in vb2_row.split()[3]

    def test_failure_events_listed(self):
        with obs.capture() as col:
            col.emit("meta", schema=1, level="summary")
            obs.event("vb1.divergence", iterations=100)
            col.emit_summary()
        text = render_report(col.events)
        assert "## failure events" in text
        assert "vb1.divergence" in text

    def test_failed_spans_listed(self):
        with obs.capture() as col:
            col.emit("meta", schema=1, level="summary")
            with pytest.raises(ValueError):
                with obs.span("vb1.fit"):
                    raise ValueError
            col.emit_summary()
        text = render_report(col.events)
        assert "## failed spans" in text
        assert "error:ValueError" in text

    def test_merged_replications_counted(self):
        with obs.capture() as child:
            with obs.span("vb2.fit"):
                pass
        payload = child.export()
        with obs.capture() as parent:
            parent.emit("meta", schema=1, level="summary")
            for rep in range(3):
                parent.merge(payload, rep=rep)
            parent.emit_summary()
        text = render_report(parent.events)
        assert "replications merged: 3" in text
        assert "spawn keys 0..2" in text

    def test_empty_trace_renders_placeholder(self):
        text = render_report([])
        assert "(no telemetry recorded)" in text


@pytest.fixture()
def sim_csv(tmp_path):
    path = tmp_path / "sim.csv"
    code = main([
        "simulate", "--model", "goel-okumoto", "--omega", "40",
        "--beta", "0.1", "--horizon", "25", "--seed", "3",
        "--out", str(path),
    ])
    assert code == 0
    return path


class TestCliTraceRoundTrip:
    def test_fit_trace_report(self, sim_csv, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code = main([
            "fit", "--data", str(sim_csv), "--kind", "times",
            "--omega-mean", "40", "--omega-std", "12",
            "--beta-mean", "0.1", "--beta-std", "0.04",
            "--trace", str(trace), "--trace-level", "timing",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert f"trace written to {trace}" in err

        events = load_validated_trace(trace)
        assert events[0]["kind"] == "meta"
        assert events[0]["command"] == "fit"
        assert events[0]["level"] == "timing"
        assert events[-1]["kind"] == "summary"
        assert events[-1]["counters"]["vb2.solves"] >= 1

        code = main(["report", str(trace)])
        assert code == 0
        out = capsys.readouterr().out
        assert "telemetry report" in out
        assert "VB2" in out

    def test_validate_sbc_trace_tags_command(self, tmp_path, capsys):
        trace = tmp_path / "sbc.jsonl"
        code = main([
            "validate", "sbc", "--method", "VB2", "--replications", "4",
            "--seed", "11", "--out", str(tmp_path / "sbc.json"),
            "--trace", str(trace),
        ])
        assert code == 0
        events = load_validated_trace(trace)
        assert events[0]["command"] == "validate sbc"
        assert any(e.get("name") == "sbc.campaign" for e in events)

    def test_validate_coverage_trace(self, tmp_path, capsys):
        trace = tmp_path / "cov.jsonl"
        code = main([
            "validate", "coverage", "--replications", "8",
            "--methods", "VB1", "--seed", "13",
            "--out", str(tmp_path / "cov.json"), "--trace", str(trace),
        ])
        assert code == 0
        events = load_validated_trace(trace)
        assert events[0]["command"] == "validate coverage"
        (ev,) = [e for e in events if e.get("name") == "coverage.campaign"]
        assert ev["replications"] == 8
        assert 0.0 < ev["confidence"] < 1.0

    def test_no_trace_flag_writes_nothing(self, sim_csv, tmp_path, capsys):
        code = main([
            "fit", "--data", str(sim_csv), "--kind", "times",
            "--omega-mean", "40", "--omega-std", "12",
            "--beta-mean", "0.1", "--beta-std", "0.04",
        ])
        assert code == 0
        assert "trace written" not in capsys.readouterr().err
        assert not obs.enabled()

    def test_report_missing_file_exits_nonzero(self, tmp_path):
        with pytest.raises(SystemExit, match="error:"):
            main(["report", str(tmp_path / "missing.jsonl")])

    def test_report_invalid_trace_exits_nonzero(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind":"mystery","seq":0}\n')
        with pytest.raises(SystemExit, match="invalid trace"):
            main(["report", str(bad)])


@pytest.fixture()
def fit_trace(sim_csv, tmp_path):
    trace = tmp_path / "trace.jsonl"
    code = main([
        "fit", "--data", str(sim_csv), "--kind", "times",
        "--omega-mean", "40", "--omega-std", "12",
        "--beta-mean", "0.1", "--beta-std", "0.04",
        "--trace", str(trace), "--trace-level", "timing",
    ])
    assert code == 0
    return trace


class TestReportFormats:
    def test_json_format(self, fit_trace, capsys):
        import json

        assert main(["report", str(fit_trace), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 3
        assert payload["command"] == "fit"
        assert "VB2" in payload["methods"]
        assert "metrics" not in payload
        elbo = payload["histograms"]["vb2.elbo"]
        assert elbo["count"] == 1
        assert set(elbo) >= {"p50", "p90", "p99"}

    def test_json_format_with_profile(self, fit_trace, capsys):
        import json

        code = main([
            "report", str(fit_trace), "--format", "json", "--profile",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        names = {c["name"] for c in payload["profile"]["children"]}
        assert "vb2.fit" in names

    def test_metrics_section(self, fit_trace, capsys):
        # The convergence-metrics table carries each fit's health with
        # its approximate quantiles; there is no separate snapshot.
        assert main(["report", str(fit_trace)]) == 0
        out = capsys.readouterr().out
        assert "## convergence metrics (histograms)" in out
        assert "metrics snapshot" not in out
        lines = out.splitlines()
        header = next(line for line in lines if line.startswith("metric "))
        assert header.split()[-3:] == ["~p50", "~p90", "~p99"]
        nmax = next(line for line in lines if line.startswith("vb2.nmax"))
        assert "-" not in nmax.split()[-3:]
        assert any(line.startswith("vb2.elbo") for line in lines)

    def test_metrics_flag_is_gone(self, fit_trace):
        with pytest.raises(SystemExit):
            main(["report", str(fit_trace), "--metrics"])

    def test_profile_section(self, fit_trace, capsys):
        assert main(["report", str(fit_trace), "--profile"]) == 0
        out = capsys.readouterr().out
        assert "## span profile" in out
        assert "vb2.fit" in out
        assert "cum_s" in out  # timing-level trace carries wall time

    def test_folded_export(self, fit_trace, tmp_path, capsys):
        folded = tmp_path / "stacks.folded"
        code = main(["report", str(fit_trace), "--folded", str(folded)])
        assert code == 0
        lines = folded.read_text().splitlines()
        assert lines
        for line in lines:
            path, value = line.rsplit(" ", 1)
            assert path
            int(value)  # folded values are integers

    def test_unbalanced_trace_profile_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"kind":"meta","seq":0,"schema":2,"level":"summary"}\n'
            '{"kind":"span","seq":1,"name":"a.b","depth":3,"status":"ok"}\n'
        )
        with pytest.raises(SystemExit, match="invalid trace"):
            main(["report", str(bad), "--profile"])
