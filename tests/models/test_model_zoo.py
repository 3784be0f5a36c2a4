"""Tests for the concrete model families and the registry."""

import math

import numpy as np
import pytest
from scipy import stats as stdist

from repro.cli import main
from repro.exceptions import ModelSpecificationError
from repro.models import (
    DelayedSShaped,
    GammaSRM,
    GoelOkumoto,
    RayleighSRM,
    WeibullSRM,
    make_model,
    model_registry,
)


class TestGoelOkumoto:
    def test_is_gamma_shape_one(self):
        go = GoelOkumoto(omega=40.0, beta=0.1)
        generic = GammaSRM(omega=40.0, beta=0.1, alpha0=1.0)
        t = np.array([0.5, 2.0, 10.0])
        assert go.lifetime_cdf(t) == pytest.approx(generic.lifetime_cdf(t), rel=1e-12)
        assert go.lifetime_log_pdf(t) == pytest.approx(
            generic.lifetime_log_pdf(t), rel=1e-12
        )

    def test_mean_value_closed_form(self):
        go = GoelOkumoto(omega=40.0, beta=0.1)
        assert go.mean_value(5.0) == pytest.approx(40.0 * (1 - math.exp(-0.5)))

    def test_replace_preserves_class(self):
        go = GoelOkumoto(omega=40.0, beta=0.1).replace(beta=0.2)
        assert isinstance(go, GoelOkumoto)
        assert go.beta == 0.2

    def test_log_sf_closed_form(self):
        go = GoelOkumoto(omega=40.0, beta=0.1)
        assert go.lifetime_log_sf(30.0) == pytest.approx(-3.0)

    def test_sampling_is_exponential(self, rng):
        go = GoelOkumoto(omega=1.0, beta=0.5)
        draws = go.sample_lifetimes(200_000, rng)
        assert draws.mean() == pytest.approx(2.0, rel=0.02)


class TestDelayedSShaped:
    def test_is_gamma_shape_two(self):
        ds = DelayedSShaped(omega=40.0, beta=0.1)
        generic = GammaSRM(omega=40.0, beta=0.1, alpha0=2.0)
        t = np.array([0.5, 2.0, 10.0])
        assert ds.lifetime_cdf(t) == pytest.approx(generic.lifetime_cdf(t), rel=1e-10)

    def test_mean_value_closed_form(self):
        # Yamada et al.: Lambda(t) = omega (1 - (1 + beta t) e^{-beta t}).
        ds = DelayedSShaped(omega=40.0, beta=0.1)
        t = 7.0
        expected = 40.0 * (1.0 - (1.0 + 0.7) * math.exp(-0.7))
        assert ds.mean_value(t) == pytest.approx(expected, rel=1e-12)

    def test_mean_value_is_s_shaped(self):
        # Intensity increases then decreases: inflection in Lambda.
        ds = DelayedSShaped(omega=40.0, beta=0.5)
        t = np.linspace(0.01, 20.0, 500)
        intensity = ds.intensity(t)
        peak = np.argmax(intensity)
        assert 0 < peak < len(t) - 1

    def test_sampling_is_erlang2(self, rng):
        ds = DelayedSShaped(omega=1.0, beta=0.5)
        draws = ds.sample_lifetimes(200_000, rng)
        assert draws.mean() == pytest.approx(4.0, rel=0.02)
        assert draws.var() == pytest.approx(8.0, rel=0.05)

    def test_replace_preserves_class(self):
        ds = DelayedSShaped(omega=40.0, beta=0.1).replace(omega=30.0)
        assert isinstance(ds, DelayedSShaped)
        assert ds.alpha0 == 2.0


class TestWeibull:
    def test_cdf_matches_scipy(self):
        model = WeibullSRM(omega=1.0, beta=0.5, shape=1.7)
        t = np.array([0.5, 2.0, 5.0])
        ref = stdist.weibull_min.cdf(t, c=1.7, scale=2.0)
        assert model.lifetime_cdf(t) == pytest.approx(ref, rel=1e-10)

    def test_log_pdf_matches_scipy(self):
        model = WeibullSRM(omega=1.0, beta=0.5, shape=1.7)
        t = np.array([0.5, 2.0, 5.0])
        ref = stdist.weibull_min.logpdf(t, c=1.7, scale=2.0)
        assert model.lifetime_log_pdf(t) == pytest.approx(ref, rel=1e-10)

    def test_shape_one_equals_goel_okumoto(self):
        weibull = WeibullSRM(omega=40.0, beta=0.1, shape=1.0)
        go = GoelOkumoto(omega=40.0, beta=0.1)
        t = np.array([1.0, 3.0])
        assert weibull.lifetime_cdf(t) == pytest.approx(go.lifetime_cdf(t), rel=1e-12)

    def test_rayleigh_is_shape_two(self):
        ray = RayleighSRM(omega=40.0, beta=0.1)
        assert ray.shape == 2.0
        weib = WeibullSRM(omega=40.0, beta=0.1, shape=2.0)
        assert ray.lifetime_cdf(3.0) == pytest.approx(weib.lifetime_cdf(3.0))

    def test_sampling_moments(self, rng):
        model = WeibullSRM(omega=1.0, beta=0.5, shape=2.0)
        draws = model.sample_lifetimes(200_000, rng)
        expected_mean = 2.0 * math.gamma(1.5)
        assert draws.mean() == pytest.approx(expected_mean, rel=0.02)

    def test_replace(self):
        model = WeibullSRM(omega=10.0, beta=1.0, shape=3.0).replace(beta=2.0)
        assert model.shape == 3.0
        assert model.beta == 2.0
        with pytest.raises(ModelSpecificationError):
            model.replace(shape=1.0)


class TestRegistry:
    def test_all_families_registered(self):
        registry = model_registry()
        assert set(registry) == {
            "goel-okumoto",
            "delayed-s-shaped",
            "gamma",
            "weibull",
            "rayleigh",
        }

    def test_make_model(self):
        model = make_model("goel-okumoto", omega=40.0, beta=1e-5)
        assert isinstance(model, GoelOkumoto)

    def test_make_model_with_extra_params(self):
        model = make_model("gamma", omega=40.0, beta=1e-5, alpha0=2.0)
        assert model.alpha0 == 2.0

    def test_unknown_name_rejected(self):
        with pytest.raises(ModelSpecificationError):
            make_model("jelinski-moranda", omega=1.0)

    def test_simulate_rejects_unregistered_family(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--model", "lognormal", "--omega", "40",
                  "--beta", "0.1", "--horizon", "10"])
        assert exc.value.code == (
            "error: unknown model 'lognormal'; "
            f"available: {sorted(model_registry())}"
        )
