"""Unit tests for the SBC engine (small, fast campaigns)."""

import numpy as np
import pytest

from repro.bayes.priors import ModelPrior
from repro.validation.fitters import (
    MCMCFitter,
    coverage_fitters,
    fit_nint_via_vb2,
)
from repro.validation.sbc import (
    SBC_METHODS,
    SBC_QUANTITIES,
    SBCSpec,
    run_replication,
    run_sbc,
)

_SMALL = dict(replications=12, ranks=15, seed=21)


@pytest.fixture(scope="module")
def vb2_result():
    return run_sbc(SBCSpec(method="VB2", **_SMALL))


class TestSpecValidation:
    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            SBCSpec(method="EM")

    def test_known_methods_accepted(self):
        for method in SBC_METHODS:
            assert SBCSpec(method=method).method == method

    def test_improper_prior_rejected(self):
        with pytest.raises(ValueError, match="proper"):
            SBCSpec(prior=ModelPrior.noninformative())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"replications": 0},
            {"ranks": 0},
            {"horizon": 0.0},
            {"min_failures": 0},
        ],
    )
    def test_positive_fields_enforced(self, kwargs):
        with pytest.raises(ValueError):
            SBCSpec(**kwargs)

    def test_window_defaults_to_fifth_of_horizon(self):
        assert SBCSpec(horizon=25.0).window == pytest.approx(5.0)
        assert SBCSpec(horizon=25.0, reliability_window=2.0).window == 2.0

    def test_config_dict_is_json_ready(self):
        import json

        json.dumps(SBCSpec().config_dict())


class TestRunReplication:
    def test_deterministic(self):
        spec = SBCSpec(method="VB1", **_SMALL)
        assert run_replication(spec, 4) == run_replication(spec, 4)

    def test_indices_give_distinct_campaigns(self):
        spec = SBCSpec(method="VB1", **_SMALL)
        a, b = run_replication(spec, 0), run_replication(spec, 1)
        assert a.truth != b.truth

    def test_high_min_failures_skips(self):
        spec = SBCSpec(method="VB2", min_failures=10_000, **_SMALL)
        outcome = run_replication(spec, 0)
        assert outcome.status == "skipped"
        assert outcome.ranks is None


class TestRunSbc:
    def test_all_ranks_in_range(self, vb2_result):
        spec = vb2_result.spec
        for quantity in SBC_QUANTITIES:
            ranks = vb2_result.ranks(quantity)
            assert ranks.size == vb2_result.used
            assert ranks.min() >= 0 and ranks.max() <= spec.ranks

    def test_outcome_accounting(self, vb2_result):
        total = vb2_result.used + vb2_result.skipped + vb2_result.failed
        assert total == vb2_result.spec.replications

    def test_serial_rerun_identical(self, vb2_result):
        again = run_sbc(vb2_result.spec)
        assert again.to_dict() == vb2_result.to_dict()

    def test_indices_subset_matches_full_run(self, vb2_result):
        subset = run_sbc(vb2_result.spec, indices=[5, 2])
        by_index = {o.index: o for o in vb2_result.outcomes}
        assert subset.outcomes == (by_index[5], by_index[2])

    def test_unknown_quantity_rejected(self, vb2_result):
        with pytest.raises(ValueError, match="quantity"):
            vb2_result.ranks("lambda")

    def test_to_dict_shape(self, vb2_result):
        payload = vb2_result.to_dict()
        assert set(payload) == {"config", "replications", "uniformity",
                                "ranks"}
        assert set(payload["uniformity"]) == set(SBC_QUANTITIES)
        for quantity in SBC_QUANTITIES:
            assert "p_value" in payload["uniformity"][quantity]["chi_square"]


class TestCoverageFitters:
    def test_requested_labels_returned(self):
        fitters = coverage_fitters(["VB1", "VB2", "LAPL", "NINT"])
        assert set(fitters) == {"VB1", "VB2", "LAPL", "NINT"}
        assert fitters["NINT"].func is fit_nint_via_vb2

    def test_mcmc_label_is_mcmc_fitter(self):
        fitters = coverage_fitters(["MCMC"])
        assert isinstance(fitters["MCMC"], MCMCFitter)
        assert fitters["MCMC"].settings.total_iterations == 10_000

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="BOGUS"):
            coverage_fitters(["BOGUS"])
