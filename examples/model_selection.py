"""Model selection across the gamma-type family via the variational
evidence bound.

The gamma-type NHPP family indexes models by the lifetime shape alpha0
(1 = Goel-Okumoto, 2 = delayed S-shaped). VB2's ELBO is a lower bound
on the log evidence log P(D), so comparing ELBOs across alpha0 gives a
cheap Bayesian model-selection criterion; we cross-check it against the
MLE log-likelihood (which always prefers richer fits) and against AIC.
Under flat priors the MAP is the MLE and the log posterior is the
log-likelihood (paper Section 4.2), so the MLE comes from the MAP search.
Where the likelihood has no interior maximum (NTDS at alpha0 = 0.5 rises
toward beta -> 0 as omega -> infinity) the search raises EstimationError
and the row shows no MLE.

Run with:  python examples/model_selection.py
"""

from repro import (
    ModelPrior,
    find_map,
    fit_vb2,
    ntds_failure_times,
    system17_failure_times,
)
from repro.bayes.laplace import log_posterior_fn
from repro.exceptions import EstimationError
from repro.metrics.tables import render_table

CANDIDATE_SHAPES = (0.5, 1.0, 1.5, 2.0, 3.0)
FLAT = ModelPrior.noninformative()


def analyse(name, data, prior):
    rows = []
    best_shape = None
    best_elbo = -float("inf")
    for alpha0 in CANDIDATE_SHAPES:
        posterior = fit_vb2(data, prior, alpha0=alpha0)
        try:
            log_likelihood = log_posterior_fn(data, FLAT, alpha0)(
                *find_map(data, FLAT, alpha0)
            )
            mle_cells = [f"{log_likelihood:.3f}", f"{2 * 2 - 2 * log_likelihood:.2f}"]
        except EstimationError:
            mle_cells = ["no MLE", "-"]
        rows.append(
            [
                f"alpha0={alpha0:g}",
                f"{posterior.elbo:.3f}",
                *mle_cells,
                f"{posterior.mean('omega'):.1f}",
            ]
        )
        if posterior.elbo > best_elbo:
            best_elbo = posterior.elbo
            best_shape = alpha0
    print(
        render_table(
            ["model", "ELBO (log evidence bound)", "MLE loglik", "AIC",
             "E[omega]"],
            rows,
            title=f"{name}: gamma-type family comparison",
        )
    )
    print(f"Evidence-preferred lifetime shape: alpha0 = {best_shape:g}\n")


def main() -> None:
    analyse(
        "System 17 (failure times)",
        system17_failure_times(),
        ModelPrior.informative(50.0, 15.8, 1.0e-5, 3.2e-6),
    )
    analyse(
        "NTDS (failure times, days)",
        ntds_failure_times(),
        ModelPrior.informative(30.0, 12.0, 1.0e-2, 0.5e-2),
    )
    print(
        "The ELBO includes the Occam penalty of full Bayesian evidence, "
        "so it can disagree with the raw MLE log-likelihood; AIC's fixed "
        "2k penalty does not adapt to the prior information."
    )


if __name__ == "__main__":
    main()
