"""Grouped increments past the median are survival differences.

A CDF difference ``G(t_i) - G(t_{i-1})`` cancels once ``G`` is past
one half. On ``GroupedData([5000, 0, 0, 0, 1], [1, 2, 3, 4, 5])`` at
``β = 7.1319`` the last increment reads 4.076739e-13 as a CDF
difference against 4.076369e-13 exactly, 9.1e-5 apart. Every grouped
kernel must carry the exact value: here ``α0 = 1``, where
``ΔG_i = e^{-β t_{i-1}} (1 - e^{-β (t_i - t_{i-1})})`` holds in closed
form and ``expm1`` keeps every digit.
"""

import math

import numpy as np
import pytest

from repro.bayes.nint import log_posterior_matrix
from repro.bayes.priors import ModelPrior
from repro.bayes.sandwich import (
    _g_increments,
    observed_information,
    score_covariance,
)
from repro.data.failure_data import GroupedData
from repro.models.gamma_srm import GammaSRM

DATA = GroupedData([5000, 0, 0, 0, 1], [1, 2, 3, 4, 5])
BETA = 7.1319
OMEGA = 5001.0
COUNTS = np.array([5000.0, 0.0, 0.0, 0.0, 1.0])
LO = np.arange(5.0)  # interval starts
WIDTH = 1.0


def _exact():
    """``ΔG``, ``ΔG'`` and ``ΔG''`` (β-derivatives) for ``α0 = 1``."""
    inc = np.exp(-BETA * LO) * -np.expm1(-BETA * WIDTH)
    hi = LO + WIDTH
    d1 = hi * np.exp(-BETA * hi) - LO * np.exp(-BETA * LO)
    d2 = -(hi**2) * np.exp(-BETA * hi) + LO**2 * np.exp(-BETA * LO)
    return inc, d1, d2


def test_helper_takes_survival_differences_past_the_median():
    g, inc = _g_increments(DATA.interval_edges(), 1.0, BETA)
    exact, _, _ = _exact()
    np.testing.assert_allclose(inc, exact, rtol=1e-12, atol=0)
    np.testing.assert_allclose(g, -np.expm1(-BETA * DATA.interval_edges()),
                               rtol=1e-15)


def test_helper_broadcasts_over_a_beta_column():
    edges = DATA.interval_edges()
    betas = np.array([0.01, 0.7, BETA, 30.0])
    g, inc = _g_increments(edges, 1.5, betas[:, None])
    assert g.shape == (4, 6) and inc.shape == (4, 5)
    for row, beta in enumerate(betas):
        g_row, inc_row = _g_increments(edges, 1.5, beta)
        np.testing.assert_array_equal(g[row], g_row)
        np.testing.assert_array_equal(inc[row], inc_row)


def test_log_likelihood_grouped():
    inc, _, _ = _exact()
    model = GammaSRM(omega=OMEGA, beta=BETA, alpha0=1.0)
    occupied = COUNTS > 0
    expected = (
        -OMEGA * -math.expm1(-BETA * 5.0)
        + float(np.sum(COUNTS[occupied]
                       * (np.log(inc[occupied]) + math.log(OMEGA))))
        - math.lgamma(5001.0)
    )
    assert model.log_likelihood(DATA) == pytest.approx(expected, rel=1e-12)


def test_observed_information():
    inc, d1, d2 = _exact()
    occupied = COUNTS > 0
    curv = np.sum(
        COUNTS[occupied] * (d1[occupied] ** 2 - d2[occupied] * inc[occupied])
        / inc[occupied] ** 2
    )
    a = observed_information(DATA, OMEGA, BETA, 1.0)
    assert a[1, 1] == pytest.approx(curv + OMEGA * d2.sum(), rel=1e-12)
    assert a[0, 1] == pytest.approx(d1.sum(), rel=1e-12)


def test_score_covariance():
    inc, d1, _ = _exact()
    ratio = np.where(COUNTS > 0, COUNTS * d1 / inc, 0.0)
    scores = np.stack([COUNTS / OMEGA - inc, ratio - OMEGA * d1], axis=1)
    centred = scores - scores.mean(axis=0)
    expected = centred.T @ centred * (5 / 4)
    np.testing.assert_allclose(
        score_covariance(DATA, OMEGA, BETA, 1.0), expected, rtol=1e-12
    )


def test_nint_log_posterior_matrix():
    inc, _, _ = _exact()
    prior = ModelPrior.informative(5000.0, 100.0, 7.0, 1.0)
    omegas = np.array([4900.0, OMEGA])
    matrix = log_posterior_matrix(DATA, prior, 1.0, omegas, np.array([BETA]))
    occupied = COUNTS > 0
    data_part = (
        float(COUNTS[occupied] @ np.log(inc[occupied])) - math.lgamma(5001.0)
    )
    for row, omega in enumerate(omegas):
        expected = (
            5001.0 * math.log(omega)
            + float(prior.omega.log_pdf(omega))
            + data_part
            + float(prior.beta.log_pdf(BETA))
            - omega * -math.expm1(-BETA * 5.0)
        )
        assert matrix[row, 0] == pytest.approx(expected, rel=1e-12)
