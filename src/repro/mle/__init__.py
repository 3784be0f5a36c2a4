"""Maximum-likelihood point estimation for NHPP SRMs.

Implements the EM iteration of Okamura, Watanabe & Dohi (2003) for the
gamma-type family (the scheme the paper's Section 3 references), a
quasi-Newton direct optimiser as a cross-check, and Wald confidence
intervals from the observed Fisher information (the MLE-based interval
construction the paper contrasts Bayesian intervals with).
"""

from repro.mle.em import fit_mle_em
from repro.mle.newton import fit_mle_newton
from repro.mle.fisher import observed_information, wald_interval
from repro.mle.results import MLEResult

__all__ = [
    "fit_mle_em",
    "fit_mle_newton",
    "observed_information",
    "wald_interval",
    "MLEResult",
]
