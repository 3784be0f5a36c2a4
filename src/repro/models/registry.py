"""Model registry: construct NHPP SRMs by name.

Used by the CLI and the experiment configuration layer so that
scenarios can refer to models as plain strings.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.exceptions import ModelSpecificationError
from repro.models.base import NHPPModel
from repro.models.delayed_s_shaped import DelayedSShaped
from repro.models.gamma_srm import GammaSRM
from repro.models.goel_okumoto import GoelOkumoto
from repro.models.weibull_srm import RayleighSRM, WeibullSRM

__all__ = ["model_registry", "make_model"]


def model_registry() -> dict[str, Callable[..., NHPPModel]]:
    """Name → constructor mapping for every bundled model family."""
    return {
        GoelOkumoto.name: GoelOkumoto,
        DelayedSShaped.name: DelayedSShaped,
        GammaSRM.name: GammaSRM,
        WeibullSRM.name: WeibullSRM,
        RayleighSRM.name: RayleighSRM,
    }


def make_model(name: str, **params: float) -> NHPPModel:
    """Instantiate a model family by registry name.

    >>> make_model("goel-okumoto", omega=40.0, beta=1e-5)
    GoelOkumoto(omega=40, beta=1e-05, alpha0=1)
    """
    registry = model_registry()
    if name not in registry:
        raise ModelSpecificationError(
            f"unknown model {name!r}; available: {sorted(registry)}"
        )
    return registry[name](**params)
