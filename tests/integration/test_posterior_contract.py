"""Interface-contract tests: every posterior type must honour the
JointPosterior API identically.

Parametrised over all five approximation methods fitted to DT-Info, so
a regression in any one implementation (moment sign conventions,
quantile monotonicity, reliability CDF limits...) is caught uniformly.
"""

import numpy as np
import pytest

from repro.bayes.laplace import fit_laplace
from repro.bayes.mcmc.chains import ChainSettings
from repro.bayes.mcmc.gibbs_failure_time import gibbs_failure_time
from repro.bayes.nint import fit_nint
from repro.core.reliability import estimate_reliability, reliability_increment
from repro.core.vb1 import fit_vb1
from repro.core.vb2 import fit_vb2

METHODS = ("NINT", "LAPL", "MCMC", "VB1", "VB2")


@pytest.fixture(scope="module")
def posteriors(times_data, info_prior_times):
    vb2 = fit_vb2(times_data, info_prior_times)
    return {
        "VB2": vb2,
        "VB1": fit_vb1(times_data, info_prior_times),
        "NINT": fit_nint(
            times_data, info_prior_times, reference_posterior=vb2,
            n_omega=161, n_beta=161,
        ),
        "LAPL": fit_laplace(times_data, info_prior_times),
        "MCMC": gibbs_failure_time(
            times_data,
            info_prior_times,
            settings=ChainSettings(n_samples=3000, burn_in=1000, thin=2, seed=11),
        ).posterior(),
    }


@pytest.mark.parametrize("method", METHODS)
class TestContract:
    def test_method_name_label(self, posteriors, method):
        assert posteriors[method].method_name == method

    def test_moments_summary_keys(self, posteriors, method):
        summary = posteriors[method].moments_summary()
        assert set(summary) == {
            "E[omega]", "E[beta]", "Var(omega)", "Var(beta)", "Cov(omega,beta)",
        }

    def test_positive_means_and_variances(self, posteriors, method):
        posterior = posteriors[method]
        for param in ("omega", "beta"):
            assert posterior.mean(param) > 0.0
            assert posterior.variance(param) > 0.0
            assert posterior.std(param) == pytest.approx(
                posterior.variance(param) ** 0.5
            )

    def test_covariance_consistency(self, posteriors, method):
        posterior = posteriors[method]
        implied = posterior.cross_moment() - posterior.mean("omega") * posterior.mean(
            "beta"
        )
        # Sample posteriors use ddof=1 in covariance() but 1/n moments in
        # cross_moment(): an O(1/n) discrepancy by design.
        tolerance = 1e-3 if method == "MCMC" else 1e-6
        assert posterior.covariance() == pytest.approx(
            implied, rel=tolerance, abs=1e-12
        )
        matrix = posterior.covariance_matrix()
        assert matrix[0, 1] == matrix[1, 0]
        assert abs(posterior.correlation()) <= 1.0 + 1e-9

    def test_quantiles_monotone_and_bracket_median(self, posteriors, method):
        posterior = posteriors[method]
        for param in ("omega", "beta"):
            q_levels = (0.01, 0.25, 0.5, 0.75, 0.99)
            values = [posterior.quantile(param, q) for q in q_levels]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_cdf_inverts_quantile(self, posteriors, method):
        posterior = posteriors[method]
        for param in ("omega", "beta"):
            for q in (0.005, 0.1, 0.5, 0.9, 0.995):
                x = posterior.quantile(param, q)
                assert abs(posterior.cdf(param, x) - q) <= 1e-12

    def test_credible_interval_ordering(self, posteriors, method):
        posterior = posteriors[method]
        narrow = posterior.credible_interval("omega", 0.5)
        wide = posterior.credible_interval("omega", 0.99)
        assert wide[0] <= narrow[0] < narrow[1] <= wide[1]

    def test_invalid_param_rejected(self, posteriors, method):
        with pytest.raises(ValueError):
            posteriors[method].mean("sigma")

    def test_reliability_cdf_limits_and_monotonicity(
        self, posteriors, method, times_data
    ):
        posterior = posteriors[method]
        c = reliability_increment(1.0, times_data.horizon, 5000.0)
        if method == "LAPL":
            # The delta-method CDF is a normal law whose support spills
            # outside [0, 1] — the paper's documented LAPL pathology.
            assert posterior.reliability_cdf(0.0, c) < 0.01
            assert posterior.reliability_cdf(1.0, c) > 0.99
        else:
            assert posterior.reliability_cdf(0.0, c) == 0.0
            assert posterior.reliability_cdf(1.0, c) == 1.0
        values = [posterior.reliability_cdf(r, c) for r in (0.3, 0.6, 0.9)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_reliability_point_is_central(self, posteriors, method, times_data):
        posterior = posteriors[method]
        c = reliability_increment(1.0, times_data.horizon, 5000.0)
        point = posterior.reliability_point(c)
        lower = posterior.reliability_quantile(0.005, c)
        upper = posterior.reliability_quantile(0.995, c)
        assert lower <= point <= upper

    def test_reliability_interval_matches_quantiles(
        self, posteriors, method, times_data
    ):
        posterior = posteriors[method]
        c = reliability_increment(1.0, times_data.horizon, 5000.0)
        lo, hi = posterior.reliability_interval(0.95, c)
        assert lo == pytest.approx(posterior.reliability_quantile(0.025, c))
        assert hi == pytest.approx(posterior.reliability_quantile(0.975, c))

    def test_lower_bound_alone_matches_the_two_sided_estimate(
        self, posteriors, method, times_data
    ):
        posterior = posteriors[method]
        both = estimate_reliability(posterior, times_data.horizon, 5000.0)
        lower = estimate_reliability(posterior, times_data.horizon, 5000.0,
                                     upper=False)
        assert (lower.point, lower.lower) == (both.point, both.lower)
        assert lower.upper is None and both.upper is not None


class TestCrossMethodAgreement:
    """All five posteriors describe the same target; pairwise means
    agree to within method-specific tolerances."""

    def test_omega_means_cluster(self, posteriors):
        means = {m: p.mean("omega") for m, p in posteriors.items()}
        reference = means["NINT"]
        for method, value in means.items():
            # LAPL and VB1 carry documented location biases; give them
            # the looser band.
            tolerance = 0.05 if method in ("LAPL", "VB1") else 0.02
            assert value == pytest.approx(reference, rel=tolerance), method

    def test_beta_means_cluster(self, posteriors):
        means = {m: p.mean("beta") for m, p in posteriors.items()}
        reference = means["NINT"]
        for method, value in means.items():
            tolerance = 0.06
            assert value == pytest.approx(reference, rel=tolerance), method

    def test_all_negative_covariance_except_vb1(self, posteriors):
        for method, posterior in posteriors.items():
            if method == "VB1":
                assert posterior.covariance() == 0.0
            else:
                assert posterior.covariance() < 0.0, method
