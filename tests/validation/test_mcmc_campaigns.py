"""Determinism of the validation campaigns with MCMC.

Every campaign replication runs one direct Gibbs chain on its own
``(…, 1)`` seed branch inside the per-replication worker, so a campaign
must give the same result on any number of worker processes, and MCMC
must be scored on exactly the campaigns the other methods are.
"""

import numpy as np
import pytest

from repro.bayes.mcmc.chains import ChainSettings
from repro.bayes.mcmc.gibbs_failure_time import gibbs_failure_time
from repro.bayes.priors import ModelPrior
from repro.core.vb2 import fit_vb2
from repro.data.simulation import simulate_failure_times
from repro.exceptions import ConvergenceError
from repro.experiments.config import ExperimentScale
from repro.metrics.coverage import _coverage_replication, interval_coverage_study
from repro.models.goel_okumoto import GoelOkumoto
from repro.robustness.campaign import RobustnessSpec, run_robustness
from repro.validation.fitters import MCMCFitter
from repro.validation.sbc import SBCSpec, run_replication, run_sbc
from repro.validation.seeding import replication_seed

_SHORT = ChainSettings(n_samples=300, burn_in=150, thin=1)
_SCALE = ExperimentScale(mcmc=_SHORT, nint_resolution=161, label="mcmc-test")
_TRUE_MODEL = GoelOkumoto(omega=50.0, beta=0.1)
_PRIOR = ModelPrior.informative(45.0, 20.0, 0.12, 0.06)


class _FailingMCMC(MCMCFitter):
    """An MCMC fitter whose chain always fails to converge."""

    def __call__(self, data, prior, rng=None):
        raise ConvergenceError("chain did not mix")


class TestMCMCFitter:
    def test_called_without_rng_seeds_from_settings(
        self, times_data, info_prior_times
    ):
        settings = _SHORT.with_seed(40)
        posterior = MCMCFitter(settings=settings)(times_data, info_prior_times)
        chain = gibbs_failure_time(times_data, info_prior_times,
                                   settings=settings)
        assert np.array_equal(posterior.samples, chain.samples)

    def test_rng_chain_matches_sampler(self, times_data, info_prior_times):
        posterior = MCMCFitter(settings=_SHORT)(
            times_data, info_prior_times, rng=np.random.default_rng(41)
        )
        chain = gibbs_failure_time(
            times_data, info_prior_times, settings=_SHORT,
            rng=np.random.default_rng(41),
        )
        assert np.array_equal(posterior.samples, chain.samples)


class TestSbcMCMC:
    @pytest.fixture(scope="class")
    def serial(self):
        spec = SBCSpec(method="MCMC", replications=10, ranks=15, seed=33,
                       scale=_SCALE)
        return run_sbc(spec, workers=1)

    def test_parallel_matches_serial(self, serial):
        parallel = run_sbc(serial.spec, workers=2)
        assert parallel.to_dict() == serial.to_dict()
        assert parallel.outcomes == serial.outcomes

    def test_indices_subset_matches(self, serial):
        subset = run_sbc(serial.spec, indices=[4, 1])
        by_index = {o.index: o for o in serial.outcomes}
        assert subset.outcomes == (by_index[4], by_index[1])

    def test_outcomes_are_per_replication(self, serial):
        assert serial.used > 0
        for outcome in serial.outcomes[:3]:
            assert outcome == run_replication(serial.spec, outcome.index)


class TestCoverageMCMC:
    @staticmethod
    def _study(workers):
        return interval_coverage_study(
            _TRUE_MODEL,
            _PRIOR,
            {"MCMC": MCMCFitter(settings=_SHORT), "VB2": fit_vb2},
            horizon=25.0,
            level=0.9,
            replications=16,
            seed=13,
            workers=workers,
        )

    @pytest.fixture(scope="class")
    def serial(self):
        return self._study(workers=1)

    def test_parallel_matches_serial(self, serial):
        parallel = self._study(workers=2)
        assert {k: v.to_dict() for k, v in parallel.items()} == {
            k: v.to_dict() for k, v in serial.items()
        }

    def test_mcmc_scored_on_vb2_campaigns(self, serial):
        assert serial["MCMC"].replications == serial["VB2"].replications
        assert serial["MCMC"].replications > 0

    def test_coverage_and_widths_sane(self, serial):
        for param in ("omega", "beta"):
            assert 0.0 <= serial["MCMC"].coverage(param) <= 1.0
            assert serial["MCMC"].widths[param] > 0.0

    def test_mcmc_tracks_vb2(self, serial):
        # Both procedures target the same posterior; on common
        # campaigns their interval widths agree to MC error.
        for param in ("omega", "beta"):
            assert serial["MCMC"].widths[param] == pytest.approx(
                serial["VB2"].widths[param], rel=0.3
            )

    def test_chain_draws_from_the_fit_branch(self):
        fitter = MCMCFitter(settings=_SHORT)
        scores = _coverage_replication(
            _TRUE_MODEL, _PRIOR, {"MCMC": fitter}, 25.0, 0.9, 3, 13, 2
        )
        data_rng = np.random.default_rng(replication_seed(13, 2))
        data = simulate_failure_times(_TRUE_MODEL, 25.0, data_rng)
        posterior = gibbs_failure_time(
            data,
            _PRIOR,
            settings=_SHORT,
            rng=np.random.default_rng(replication_seed(13, 2, 1)),
        ).posterior()
        lo, hi = posterior.quantile_batch("omega", np.array([0.05, 0.95]))
        assert scores["MCMC"][1]["omega"] == float(hi - lo)

    def test_mcmc_error_skips_the_replication_for_every_method(self):
        fitters = {"VB2": fit_vb2, "MCMC": _FailingMCMC(settings=_SHORT)}
        assert (
            _coverage_replication(
                _TRUE_MODEL, _PRIOR, fitters, 25.0, 0.9, 3, 13, 2
            )
            is None
        )


class TestRobustnessMCMC:
    @staticmethod
    def _spec():
        return RobustnessSpec(
            families=("contaminated",),
            severities={"contaminated": (0.0, 0.7)},
            methods=("MCMC", "VB2"),
            sandwich=False,
            replications=5,
            seed=42,
            scale=_SCALE,
        )

    def test_parallel_matches_serial(self):
        serial = run_robustness(self._spec(), workers=1)
        parallel = run_robustness(self._spec(), workers=2)
        assert parallel.to_dict() == serial.to_dict()
        for cell in serial.cells:
            assert cell.used > 0
            assert set(cell.hits) == {"MCMC", "VB2"}
