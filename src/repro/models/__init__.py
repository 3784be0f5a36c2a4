"""Finite-failure NHPP software reliability models."""

from repro.models.base import NHPPModel
from repro.models.gamma_srm import GammaSRM
from repro.models.goel_okumoto import GoelOkumoto
from repro.models.delayed_s_shaped import DelayedSShaped
from repro.models.weibull_srm import WeibullSRM, RayleighSRM
from repro.models.registry import model_registry, make_model

__all__ = [
    "NHPPModel",
    "GammaSRM",
    "GoelOkumoto",
    "DelayedSShaped",
    "WeibullSRM",
    "RayleighSRM",
    "model_registry",
    "make_model",
]
