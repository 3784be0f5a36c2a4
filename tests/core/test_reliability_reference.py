"""Reliability quantiles against converged quadrature.

The reference integrates β per component with 400 Gauss–Legendre nodes
between its ``1e-15`` tail quantiles: far past the point where more
nodes change anything. The tables of
:meth:`repro.core.posterior.VBPosterior.reliability_tables` must give
every quantile at the paper's levels within 1e-10 of it.
"""

import numpy as np
import pytest

from repro.stats import scipy_special as sc

pytestmark = [pytest.mark.slow, pytest.mark.filterwarnings("error::RuntimeWarning")]

LEVELS = np.array([0.005, 0.025, 0.5, 0.975, 0.995])
_REFERENCE_NODES = 400
_REFERENCE_CLIP = 1e-15


def reference_cdf(posterior, c, r):
    """``P(R <= r)`` at each ``r`` from per-component 400-node tables
    (components lighter than 1e-17 left out: together below 1e-13)."""
    x, w = np.polynomial.legendre.leggauss(_REFERENCE_NODES)
    keep = posterior.weights > 1e-17
    a, b, a_omega, b_omega = (
        np.array([getattr(d, field) for d in components])[keep]
        for components in (posterior._beta_components,
                           posterior._omega_components)
        for field in ("shape", "rate")
    )
    lo = sc.gammaincinv(a, _REFERENCE_CLIP) / b
    hi = sc.gammainccinv(a, _REFERENCE_CLIP) / b
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    beta = mid[:, None] + half[:, None] * x
    log_pdf = ((a * np.log(b) - sc.gammaln(a))[:, None]
               + (a - 1.0)[:, None] * np.log(beta) - b[:, None] * beta)
    quad = (posterior.weights[keep] * half)[:, None] * w * np.exp(log_pdf)
    quad /= quad.sum()
    c_values = np.asarray(c(beta))
    a_omega, b_omega = a_omega[:, None], b_omega[:, None]
    out = []
    for value in np.atleast_1d(r):
        with np.errstate(divide="ignore", over="ignore"):
            cut = np.where(c_values > 0.0, -np.log(value) / c_values, np.inf)
            out.append(float(np.sum(quad * sc.gammaincc(a_omega, b_omega * cut))))
    return np.array(out)


def assert_within_reference(posterior, c, tol=1e-10):
    """Each quantile ``r`` brackets the reference root: ``F(r - tol) <= q
    <= F(r + tol)`` under the reference CDF ``F``."""
    r = posterior.reliability_quantile_batch(LEVELS, c)
    below = reference_cdf(posterior, c, np.clip(r - tol, 1e-300, None))
    above = reference_cdf(posterior, c, np.minimum(r + tol, 1.0))
    assert np.all(below <= LEVELS), (r, below - LEVELS)
    assert np.all(above >= LEVELS), (r, above - LEVELS)


def _paper_cases():
    from repro.experiments.config import paper_scenarios

    return [(name, alpha0, u)
            for name in paper_scenarios()
            for alpha0 in (1.0, 2.0)
            for u in (0.01, 0.1, 1.0)]


@pytest.fixture(scope="module")
def paper_fits():
    from repro.core.vb2 import fit_vb2
    from repro.exceptions import ReproError
    from repro.experiments.config import paper_scenarios

    fits = {}
    for name, scenario in paper_scenarios().items():
        data = scenario.load_data()
        for alpha0 in (1.0, 2.0):
            try:
                fits[name, alpha0] = (
                    fit_vb2(data, scenario.prior(), alpha0, scenario.vb_config),
                    data,
                )
            except ReproError:  # fits that do not succeed are skipped
                pass
    return fits


@pytest.mark.parametrize("name, alpha0, u", _paper_cases())
def test_paper_scenarios(paper_fits, name, alpha0, u):
    from repro.core.reliability import reliability_increment

    if (name, alpha0) not in paper_fits:
        pytest.skip(f"{name} does not fit at alpha0 = {alpha0}")
    posterior, data = paper_fits[name, alpha0]
    assert_within_reference(
        posterior, reliability_increment(alpha0, data.horizon, u * data.horizon)
    )


@pytest.mark.parametrize("alpha0", [1.0, 2.0])
@pytest.mark.parametrize("periods", [3, 10, 34])
def test_tracker_posteriors(periods, alpha0):
    from repro.bayes.priors import ModelPrior
    from repro.core.reliability import reliability_increment
    from repro.core.vb2 import fit_vb2
    from repro.data.failure_data import GroupedData

    intensity = np.exp(-np.arange(34) / 25.0)
    counts = np.random.default_rng(501).multinomial(45, intensity / intensity.sum())
    data = GroupedData(counts=counts, boundaries=np.arange(1.0, 35.0))
    data = data.truncate(periods)
    posterior = fit_vb2(data, ModelPrior.informative(100.0, 50.0, 0.2, 0.1),
                        alpha0)
    assert_within_reference(
        posterior, reliability_increment(alpha0, data.horizon, 1.0)
    )


def test_fleet_projects():
    from repro.bayes.priors import ModelPrior
    from repro.core.fleet import fit_vb2_fleet
    from repro.core.reliability import reliability_increment
    from repro.data.simulation import simulate_failure_times, simulate_grouped
    from repro.models.goel_okumoto import GoelOkumoto

    rng = np.random.default_rng(11)
    projects = [
        simulate_failure_times(GoelOkumoto(12.0 + 3.0 * i, 0.008 + 0.002 * i),
                               60.0 + 4.0 * i, rng)
        for i in range(4)
    ] + [simulate_grouped(GoelOkumoto(22.0, 0.013),
                          np.linspace(0.0, 80.0, 10)[1:], rng)]
    fleet = fit_vb2_fleet(projects, ModelPrior.informative(30.0, 10.0, 0.01,
                                                           0.005), 1.0)
    for i, data in enumerate(projects):
        assert_within_reference(
            fleet.posterior(i),
            reliability_increment(1.0, data.horizon, 0.1 * data.horizon),
        )
