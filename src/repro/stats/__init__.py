"""Numerical substrate: stable special functions, distributions,
truncated moments, mixtures, quadrature and root finding.

These utilities are deliberately free of any software-reliability
semantics; the model and inference layers build on them.
"""

from repro.stats.special import (
    log1mexp,
    logsumexp,
    log_gamma_sf,
    log_gamma_cdf,
    gamma_sf_ratio,
    gamma_cdf_increment,
    log_gamma_cdf_increment,
)
from repro.stats.gamma_dist import GammaDistribution
from repro.stats.truncated import (
    truncated_gamma_mean,
    censored_gamma_mean,
    sample_truncated_gamma,
)
from repro.stats.mixtures import MixtureDistribution
from repro.stats.quadrature import simpson_weights, TensorGrid
from repro.stats.rootfind import bisect_increasing

__all__ = [
    "log1mexp",
    "logsumexp",
    "log_gamma_sf",
    "log_gamma_cdf",
    "gamma_sf_ratio",
    "gamma_cdf_increment",
    "log_gamma_cdf_increment",
    "GammaDistribution",
    "truncated_gamma_mean",
    "censored_gamma_mean",
    "sample_truncated_gamma",
    "MixtureDistribution",
    "simpson_weights",
    "TensorGrid",
    "bisect_increasing",
]
