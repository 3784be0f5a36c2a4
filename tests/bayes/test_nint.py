"""Tests for the NINT grid posterior."""

import math

import numpy as np
import pytest

from repro.bayes.nint import (
    fit_nint,
    integration_limits_from_posterior,
    log_posterior_matrix,
)
from repro.core.reliability import reliability_increment
from repro.models.gamma_srm import GammaSRM


def _reliability_cdf_loop(posterior, r, c):
    """``P(R <= r)`` one β column at a time, with one ``np.interp`` call
    per column: the reference for ``GridPosterior.reliability_cdf``."""
    if r <= 0.0:
        return 0.0
    if r >= 1.0:
        return 1.0
    grid = posterior.grid
    c_values = np.asarray(c(grid.y), dtype=float)
    threshold = -math.log(r)
    columns = posterior.density * grid.wy[None, :]
    cell_mass = 0.5 * (columns[1:, :] + columns[:-1, :]) * np.diff(grid.x)[:, None]
    cum = np.vstack([np.zeros(columns.shape[1]), np.cumsum(cell_mass, axis=0)])
    col_totals = cum[-1, :]
    norm = float(col_totals.sum())
    total = 0.0
    for j in range(grid.y.size):
        if col_totals[j] == 0.0 or c_values[j] <= 0.0:
            continue
        with np.errstate(over="ignore"):
            cut = threshold / c_values[j]
        below = float(np.interp(cut, grid.x, cum[:, j]))
        total += col_totals[j] - below
    return float(total / norm)


#: 204 reliability levels: the far tails at both ends and a sweep between.
_R_VALUES = np.concatenate(
    [
        [1e-320, 1e-310, 1e-305, 1e-300],
        np.linspace(1e-6, 1.0 - 1e-6, 194),
        1.0 - np.array([1e-11, 1e-12, 1e-13, 1e-15]),
        [1.0 - 2.0**-53, np.nextafter(1.0, 0.0)],
    ]
)


class TestLogPosteriorMatrix:
    def test_matches_model_loglik_pointwise_times(
        self, times_data, info_prior_times
    ):
        omega_nodes = np.array([35.0, 45.0])
        beta_nodes = np.array([8e-6, 1.2e-5])
        matrix = log_posterior_matrix(
            times_data, info_prior_times, 1.0, omega_nodes, beta_nodes
        )
        for i, omega in enumerate(omega_nodes):
            for j, beta in enumerate(beta_nodes):
                model = GammaSRM(omega=omega, beta=beta, alpha0=1.0)
                expected = (
                    model.log_likelihood(times_data)
                    + info_prior_times.omega.log_pdf(omega)
                    + info_prior_times.beta.log_pdf(beta)
                )
                assert matrix[i, j] == pytest.approx(expected, rel=1e-10)

    def test_matches_model_loglik_pointwise_grouped(
        self, grouped_data, info_prior_grouped
    ):
        omega_nodes = np.array([40.0])
        beta_nodes = np.array([0.03, 0.05])
        matrix = log_posterior_matrix(
            grouped_data, info_prior_grouped, 1.0, omega_nodes, beta_nodes
        )
        for j, beta in enumerate(beta_nodes):
            model = GammaSRM(omega=40.0, beta=beta, alpha0=1.0)
            expected = (
                model.log_likelihood(grouped_data)
                + info_prior_grouped.omega.log_pdf(40.0)
                + info_prior_grouped.beta.log_pdf(beta)
            )
            # The grouped likelihood includes the -log x_i! terms.
            assert matrix[0, j] == pytest.approx(expected, rel=1e-10)

    def test_grouped_broadcast_matches_per_row_loop(
        self, grouped_data, info_prior_grouped
    ):
        # The grouped beta term is filled with one incomplete-gamma
        # broadcast over the whole (beta, edge) mesh; it must agree with
        # the straightforward one-row-per-beta evaluation up to the
        # BLAS reduction order of the count matmul (a few ulp).
        import scipy.special as sc

        omega_nodes = np.linspace(25.0, 65.0, 7)
        beta_nodes = np.linspace(0.015, 0.09, 9)
        matrix = log_posterior_matrix(
            grouped_data, info_prior_grouped, 1.0, omega_nodes, beta_nodes
        )
        edges = grouped_data.interval_edges()
        counts = np.asarray(grouped_data.counts, dtype=float)
        norm = float(np.sum(sc.gammaln(counts + 1.0)))
        for j, beta in enumerate(beta_nodes):
            cdf = sc.gammainc(1.0, beta * edges)
            incs = np.diff(cdf)[counts > 0]
            beta_part = float(np.log(incs) @ counts[counts > 0]) - norm
            tail = float(sc.gammainc(1.0, beta * grouped_data.horizon))
            beta_term = beta_part + float(
                info_prior_grouped.beta.log_pdf(beta)
            )
            for i, omega in enumerate(omega_nodes):
                omega_part = grouped_data.total_count * np.log(omega) + float(
                    info_prior_grouped.omega.log_pdf(omega)
                )
                expected = omega_part + beta_term - omega * tail
                assert matrix[i, j] == pytest.approx(expected, rel=1e-13)

    def test_grouped_zero_increment_rows_are_neg_inf(
        self, grouped_data, info_prior_grouped
    ):
        # A beta so large that an occupied far interval has zero CDF
        # increment must give -inf posterior mass, not a warning or NaN.
        matrix = log_posterior_matrix(
            grouped_data, info_prior_grouped, 1.0,
            np.array([40.0]), np.array([1e6]),
        )
        assert matrix[0, 0] == -np.inf

    def test_rejects_nonpositive_nodes(self, times_data, info_prior_times):
        with pytest.raises(ValueError):
            log_posterior_matrix(
                times_data, info_prior_times, 1.0, np.array([0.0]), np.array([1.0])
            )


class TestLimitsHeuristic:
    def test_paper_heuristic(self, vb2_times):
        limits = integration_limits_from_posterior(vb2_times)
        assert limits["omega"][0] == pytest.approx(
            vb2_times.quantile("omega", 0.005) * 0.5
        )
        assert limits["omega"][1] == pytest.approx(
            vb2_times.quantile("omega", 0.995) * 1.5
        )
        assert limits["beta"][0] < vb2_times.mean("beta") < limits["beta"][1]


class TestGridPosterior:
    def test_density_normalised(self, nint_times):
        density = nint_times.density
        grid = nint_times.grid
        assert grid.integrate(density) == pytest.approx(1.0, rel=1e-9)

    def test_moments_match_mcmc_free_reference(self, nint_times, vb2_times):
        # Two fully independent approximations must agree closely.
        assert nint_times.mean("omega") == pytest.approx(
            vb2_times.mean("omega"), rel=0.01
        )
        assert nint_times.mean("beta") == pytest.approx(
            vb2_times.mean("beta"), rel=0.02
        )

    def test_quantile_inverts_marginal_cdf(self, nint_times):
        for q in (0.005, 0.5, 0.995):
            value = nint_times.quantile("omega", q)
            assert nint_times.grid.x[0] <= value <= nint_times.grid.x[-1]
        assert nint_times.quantile("omega", 0.25) < nint_times.quantile("omega", 0.75)

    def test_log_pdf_grid_reevaluation(self, nint_times):
        omega = np.linspace(35.0, 55.0, 5)
        beta = np.linspace(6e-6, 1.4e-5, 5)
        values = nint_times.log_pdf_grid(omega, beta)
        assert values.shape == (5, 5)
        # Normalised: the peak of the log density should be around the
        # density scale of the stored grid.
        assert np.all(np.isfinite(values))

    def test_pickle_round_trip_keeps_reevaluation(self, nint_grouped):
        # Parallel scenario runs return NINT posteriors pickled; Figure 1
        # then re-evaluates them off the stored grid.
        import pickle

        copy = pickle.loads(pickle.dumps(nint_grouped))
        omega = np.linspace(35.0, 55.0, 4)
        beta = np.linspace(0.05, 0.2, 3)
        np.testing.assert_array_equal(
            copy.log_pdf_grid(omega, beta), nint_grouped.log_pdf_grid(omega, beta)
        )
        assert copy.mean("omega") == nint_grouped.mean("omega")

    def test_cross_moment_implies_negative_covariance(self, nint_times):
        assert nint_times.covariance() < 0.0

    def test_central_moment_skewness(self, nint_times):
        assert nint_times.central_moment("omega", 3) > 0.0

    def test_reliability_point_and_cdf(self, nint_times, times_data):
        from repro.core.reliability import reliability_increment

        c = reliability_increment(1.0, times_data.horizon, 1000.0)
        point = nint_times.reliability_point(c)
        assert 0.9 < point < 1.0
        assert nint_times.reliability_cdf(0.0, c) == 0.0
        assert nint_times.reliability_cdf(1.0, c) == 1.0
        mid = nint_times.reliability_cdf(point, c)
        assert 0.2 < mid < 0.8

    def test_invalid_quantile_level(self, nint_times):
        with pytest.raises(ValueError):
            nint_times.quantile("omega", 1.5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestReliabilityCdfIdentity:
    """The one-pass CDF equals the per-column ``np.interp`` loop bit for
    bit, on the paper's windows and on a window where ``c(β)`` underflows
    to 0 (and the cut overflows to inf) on part of the β grid."""

    @pytest.mark.parametrize(
        "view, windows",
        [("times", (1000.0, 10000.0)), ("grouped", (1.0, 5.0))],
    )
    def test_matches_per_column_loop(self, request, view, windows):
        posterior = request.getfixturevalue(f"nint_{view}")
        data = request.getfixturevalue(f"{view}_data")
        beta_mid = float(np.median(posterior.grid.y))
        increments = [reliability_increment(1.0, data.horizon, u) for u in windows]
        underflow = reliability_increment(1.0, 745.0 / beta_mid, data.horizon)
        c_values = underflow(posterior.grid.y)
        assert np.any(c_values == 0.0) and np.any(c_values > 0.0)
        assert np.any((c_values > 0.0) & (c_values < 1e-300))
        for c in (*increments, underflow):
            for r in _R_VALUES:
                assert posterior.reliability_cdf(r, c) == _reliability_cdf_loop(
                    posterior, r, c
                )

    def test_node_hits_and_skipped_columns(self, nint_times):
        omega = nint_times.grid.x
        beta = nint_times.grid.y
        # c = 1 puts the cut at -log r in every column; pick r so that it
        # lands exactly on ω nodes, and on the first and last node.
        levels = []
        for node in (omega[0], omega[7], omega[80], omega[-1]):
            r = math.exp(-node)
            for _ in range(64):
                if -math.log(r) == node:
                    break
                r = float(np.nextafter(r, 0.0 if -math.log(r) < node else 1.0))
            assert -math.log(r) == node
            levels.append(r)
        # Columns with c <= 0 are skipped: a mix of zero, negative and
        # positive c, and a c that skips every column.
        mixed = lambda b: np.where(
            b < beta[60], 0.0, np.where(b > beta[140], -1.0, 1.0)
        )
        for c in (np.ones_like, mixed, lambda b: -np.ones_like(b)):
            for r in (*levels, *_R_VALUES):
                assert nint_times.reliability_cdf(r, c) == _reliability_cdf_loop(
                    nint_times, r, c
                )


class TestFitNint:
    def test_needs_limits_or_reference(self, times_data, info_prior_times):
        with pytest.raises(ValueError):
            fit_nint(times_data, info_prior_times)

    def test_explicit_limits(self, times_data, info_prior_times):
        posterior = fit_nint(
            times_data,
            info_prior_times,
            limits={"omega": (20.0, 80.0), "beta": (2e-6, 3e-5)},
            n_omega=101,
            n_beta=101,
        )
        assert 40.0 < posterior.mean("omega") < 50.0

    def test_invalid_limits(self, times_data, info_prior_times):
        with pytest.raises(ValueError):
            fit_nint(
                times_data,
                info_prior_times,
                limits={"omega": (-1.0, 10.0), "beta": (1e-6, 1e-5)},
            )

    def test_resolution_convergence(self, times_data, info_prior_times, vb2_times):
        # Doubling the resolution should barely move the moments
        # (Simpson is O(h^4)).
        coarse = fit_nint(
            times_data, info_prior_times, reference_posterior=vb2_times,
            n_omega=81, n_beta=81,
        )
        fine = fit_nint(
            times_data, info_prior_times, reference_posterior=vb2_times,
            n_omega=161, n_beta=161,
        )
        assert coarse.mean("omega") == pytest.approx(fine.mean("omega"), rel=1e-5)
        assert coarse.variance("beta") == pytest.approx(
            fine.variance("beta"), rel=1e-4
        )
