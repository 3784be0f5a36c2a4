"""Cache-or-fit wrappers around the VB fitting entry points.

``fit_vb2_cached`` / ``fit_vb1_cached`` are drop-in replacements for
:func:`repro.core.vb2.fit_vb2` / :func:`repro.core.vb1.fit_vb1` that
consult a :class:`~repro.cache.store.PosteriorCache` first. A hit
returns the stored posterior without touching the solver (asserted via
the ``vb2.solves`` obs counter in the test suite); a miss fits and
stores. Because fits are deterministic and the key covers every input
— including warm-start content — a hit is byte-identical to the refit
it replaces.
"""

from __future__ import annotations

from repro import obs
from repro.bayes.priors import ModelPrior
from repro.core.config import VBConfig
from repro.core.vb1 import fit_vb1
from repro.core.vb2 import fit_vb2
from repro.cache.keys import fit_cache_key
from repro.cache.store import PosteriorCache

__all__ = ["fit_vb2_cached", "fit_vb1_cached"]


def _cached_fit(method, fitter, data, prior, alpha0, config, nmax, cache):
    key = fit_cache_key(method, data, prior, alpha0, config, nmax=nmax)
    posterior = cache.get(key)
    if posterior is None:
        kwargs = {"nmax": nmax} if method == "VB2" else {}
        posterior = fitter(data, prior, alpha0, config, **kwargs)
        cache.put(key, posterior)
    return posterior


def fit_vb2_cached(
    data,
    prior: ModelPrior,
    alpha0: float = 1.0,
    config: VBConfig | None = None,
    *,
    nmax: int | None = None,
    cache: PosteriorCache | None = None,
):
    """:func:`fit_vb2` with content-addressed caching.

    ``cache=None`` falls straight through to a plain fit.
    """
    config = config or VBConfig()
    if cache is None:
        return fit_vb2(data, prior, alpha0, config, nmax=nmax)
    with obs.span("cache.fit_vb2"):
        return _cached_fit(
            "VB2", fit_vb2, data, prior, alpha0, config, nmax, cache
        )


def fit_vb1_cached(
    data,
    prior: ModelPrior,
    alpha0: float = 1.0,
    config: VBConfig | None = None,
    *,
    cache: PosteriorCache | None = None,
):
    """:func:`fit_vb1` with content-addressed caching."""
    config = config or VBConfig()
    if cache is None:
        return fit_vb1(data, prior, alpha0, config)
    with obs.span("cache.fit_vb1"):
        return _cached_fit(
            "VB1", fit_vb1, data, prior, alpha0, config, None, cache
        )
