"""Telemetry integration tests: instrumented solvers, campaign traces.

The two load-bearing guarantees checked here:

1. **No-op bit-identity** — enabling telemetry must not change a single
   bit of any numerical result.
2. **Serial/parallel trace byte-identity** — an SBC campaign traced at
   the default ``summary`` level produces the same canonical event
   stream whether replications run in-process or on a worker pool.
"""

import numpy as np
import pytest

from repro import obs
from repro.bayes.laplace import fit_laplace
from repro.bayes.nint import fit_nint
from repro.core.vb1 import fit_vb1
from repro.core.vb2 import fit_vb2
from repro.obs.sink import encode_event
from repro.validation.sbc import SBCSpec, run_sbc

_SMOKE = dict(replications=6, ranks=7, seed=17)


class TestTelemetryOnResults:
    def test_vb2_attaches_telemetry(self, times_data, info_prior_times):
        with obs.capture():
            post = fit_vb2(times_data, info_prior_times, alpha0=1.0)
        telemetry = post.diagnostics["telemetry"]
        assert telemetry["counters"]["vb2.solves"] >= 1
        assert telemetry["histograms"]["vb2.nmax"]["count"] == 1
        assert telemetry["histograms"]["vb2.nmax"]["max"] == pytest.approx(
            post.diagnostics["nmax"]
        )

    def test_vb1_attaches_telemetry(self, times_data, info_prior_times):
        with obs.capture():
            post = fit_vb1(times_data, info_prior_times, alpha0=1.0)
        telemetry = post.diagnostics["telemetry"]
        hist = telemetry["histograms"]["vb1.outer_iterations"]
        assert hist["count"] == 1
        assert hist["max"] == post.diagnostics["iterations"]

    def test_nint_attaches_telemetry(self, times_data, info_prior_times,
                                     vb2_times):
        with obs.capture():
            post = fit_nint(
                times_data, info_prior_times, 1.0,
                reference_posterior=vb2_times, n_omega=41, n_beta=41,
            )
        telemetry = post.diagnostics["telemetry"]
        assert telemetry["counters"]["nint.grid_evaluations"] == 41 * 41

    def test_laplace_attaches_telemetry(self, times_data, info_prior_times):
        with obs.capture():
            post = fit_laplace(times_data, info_prior_times, alpha0=1.0)
        telemetry = post.diagnostics["telemetry"]
        assert telemetry["counters"]["laplace.fits"] == 1

    def test_no_telemetry_key_when_disabled(self, times_data,
                                            info_prior_times):
        post = fit_vb2(times_data, info_prior_times, alpha0=1.0)
        assert "telemetry" not in post.diagnostics


class TestNoOpBitIdentity:
    def test_vb2_results_identical(self, times_data, info_prior_times):
        plain = fit_vb2(times_data, info_prior_times, alpha0=1.0)
        with obs.capture(level="debug"):
            traced = fit_vb2(times_data, info_prior_times, alpha0=1.0)
        np.testing.assert_array_equal(plain.weights, traced.weights)
        np.testing.assert_array_equal(plain.n_values, traced.n_values)
        for param in ("omega", "beta"):
            assert plain.mean(param) == traced.mean(param)
            assert plain.variance(param) == traced.variance(param)
        assert plain.diagnostics["nmax"] == traced.diagnostics["nmax"]
        assert plain.elbo == traced.elbo

    def test_laplace_results_identical(self, times_data, info_prior_times):
        plain = fit_laplace(times_data, info_prior_times)
        with obs.capture(level="debug"):
            traced = fit_laplace(times_data, info_prior_times)
        assert np.all(plain.map_estimate == traced.map_estimate)
        assert np.all(plain.covariance_matrix() == traced.covariance_matrix())

    def test_sbc_ranks_identical(self):
        from repro.validation.sbc import SBC_QUANTITIES

        plain = run_sbc(SBCSpec(method="VB2", **_SMOKE))
        with obs.capture():
            traced = run_sbc(SBCSpec(method="VB2", **_SMOKE))
        for quantity in SBC_QUANTITIES:
            np.testing.assert_array_equal(
                plain.ranks(quantity), traced.ranks(quantity)
            )


def _campaign_events(workers):
    """Run the smoke SBC campaign traced; return its canonical lines."""
    with obs.capture(level="summary") as col:
        col.emit("meta", schema=1, level="summary")
        run_sbc(SBCSpec(method="VB2", **_SMOKE), workers=workers)
        col.emit_summary()
    return [encode_event(ev) for ev in col.events]


class TestCampaignTraces:
    def test_serial_repeat_is_byte_identical(self):
        assert _campaign_events(1) == _campaign_events(1)

    def test_parallel_matches_serial_byte_for_byte(self):
        # The pool may fall back to serial in restricted sandboxes
        # (parallel_map warns and degrades) — the guarantee under test
        # is unchanged either way: one canonical event stream.
        import warnings

        serial = _campaign_events(1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            parallel = _campaign_events(2)
        assert serial == parallel

    def test_campaign_event_emitted(self):
        with obs.capture() as col:
            run_sbc(SBCSpec(method="VB2", **_SMOKE))
        (ev,) = [e for e in col.events if e.get("name") == "sbc.campaign"]
        assert ev["replications"] == _SMOKE["replications"]
        assert ev["method"] == "VB2"
        assert ev["ok"] + ev["skipped"] + ev["failed"] == ev["replications"]

    def test_replication_spans_tagged_with_rep(self):
        with obs.capture() as col:
            run_sbc(SBCSpec(method="VB2", **_SMOKE))
        spans = [e for e in col.events if e["kind"] == "span"]
        assert spans, "campaign should merge replication spans"
        reps = {e["rep"] for e in spans}
        assert reps <= set(range(_SMOKE["replications"]))

    def test_histograms_aggregate_across_replications(self):
        with obs.capture() as col:
            result = run_sbc(SBCSpec(method="VB2", **_SMOKE))
        assert col.counters["vb2.solves"] > 0
        assert col.histograms["vb2.nmax"].count == result.used


def _traced_campaign_bytes(path, workers):
    """Full tracing() run (meta + spans + summary) to disk."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with obs.tracing(path, level="summary", command="sbc"):
            run_sbc(SBCSpec(method="VB2", **_SMOKE), workers=workers)
    return path.read_bytes()


class TestMetricsByteIdentity:
    """Merged solver health (histograms with their log-bucket counts)
    is part of the summary event, and must keep the serial-vs-parallel
    byte-identity guarantee."""

    def test_serial_and_parallel_traces_identical(self, tmp_path):
        serial = _traced_campaign_bytes(tmp_path / "serial.jsonl", 1)
        parallel = _traced_campaign_bytes(tmp_path / "parallel.jsonl", 2)
        assert serial == parallel

    def test_trace_contains_merged_solver_health(self, tmp_path):
        from repro.obs.sink import load_validated_trace

        _traced_campaign_bytes(tmp_path / "trace.jsonl", 1)
        events = load_validated_trace(tmp_path / "trace.jsonl")
        assert not [e for e in events if e["kind"] == "metrics"]
        histograms = events[-1]["histograms"]
        hist = histograms["vb2.fixed_point_iterations"]
        assert hist["count"] > 0
        assert histograms["vb2.nmax"]["p50"] is not None
        assert histograms["vb2.elbo"]["count"] == hist["count"]

    def test_merged_summary_equals_serial_summary(self):
        import warnings

        collectors = []
        for workers in (1, 2):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with obs.capture(level="summary") as col:
                    run_sbc(SBCSpec(method="VB2", **_SMOKE), workers=workers)
            collectors.append(col)
        serial, parallel = collectors
        assert serial.summary() == parallel.summary()
        assert {k: h.state() for k, h in serial.histograms.items()} == {
            k: h.state() for k, h in parallel.histograms.items()
        }


#: Where each fit's health lands in the one store, one name per value.
_HEALTH_HISTOGRAMS = (
    "vb2.fixed_point_iterations", "vb2.tail_mass", "vb2.nmax", "vb2.elbo",
    "vb1.outer_iterations", "vb1.lambda_star", "vb1.elbo",
    "laplace.map_iterations", "laplace.log_posterior_at_map",
    "mcmc.ess_omega", "mcmc.ess_beta",
    "sandwich.vb2.kappa_omega", "sandwich.vb2.kappa_beta",
)


class TestOneStore:
    """A traced DT-Info run of VB2, VB1, LAPL, MCMC and VB2+SW records
    every health value once, in the summary's histograms."""

    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory, times_data, info_prior_times):
        from repro.bayes.mcmc.chains import ChainSettings
        from repro.bayes.mcmc.gibbs_failure_time import gibbs_failure_time
        from repro.bayes.sandwich import apply_sandwich
        from repro.obs.sink import load_validated_trace

        path = tmp_path_factory.mktemp("one_store") / "trace.jsonl"
        settings = ChainSettings(n_samples=200, burn_in=100, thin=1, seed=7)
        with obs.tracing(path, level="summary", command="test"):
            vb2 = fit_vb2(times_data, info_prior_times)
            vb1 = fit_vb1(times_data, info_prior_times)
            lapl = fit_laplace(times_data, info_prior_times)
            gibbs_failure_time(times_data, info_prior_times,
                               settings=settings)
            sw = apply_sandwich(vb2, times_data)
        events = load_validated_trace(path)
        return events, dict(vb2=vb2, vb1=vb1, lapl=lapl, sw=sw)

    def test_summary_is_the_only_snapshot(self, traced):
        events, _ = traced
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "meta" and kinds[-1] == "summary"
        assert kinds.count("summary") == 1
        assert "metrics" not in kinds
        assert events[0]["schema"] == obs.SCHEMA_VERSION == 3

    def test_each_health_value_has_one_name(self, traced):
        events, fits = traced
        summary = events[-1]
        names = list(summary["histograms"]) + list(summary["counters"])
        assert not [name for name in names if name.startswith("fit.")]
        for name in _HEALTH_HISTOGRAMS:
            assert summary["histograms"][name]["count"] == 1, name
        histograms = summary["histograms"]
        assert histograms["vb2.elbo"]["max"] == fits["vb2"].elbo
        assert histograms["vb1.elbo"]["max"] == fits["vb1"].elbo
        assert histograms["laplace.log_posterior_at_map"]["max"] == (
            fits["lapl"].diagnostics["log_posterior_at_map"]
        )
        for param in ("omega", "beta"):
            assert histograms[f"sandwich.vb2.kappa_{param}"]["max"] == (
                fits["sw"].diagnostics[f"kappa_{param}"]
            )
