"""The package's single :mod:`scipy.special` import site.

Every other module that needs a special function imports it from here
(``from repro.stats import scipy_special as sc``) instead of from scipy
directly.  The re-exported names *are* the scipy ufunc objects — not
wrappers — so callers pay zero indirection and stay bit-exact with
code that imported scipy itself.  Centralising the import buys one
place to see exactly which special functions the reproduction depends
on, guarded by a lint-style test (``tests/stats/test_special_lint.py``)
that no module quietly grows a direct scipy.special dependency.
"""

from __future__ import annotations

from scipy import special as _scipy_special

__all__ = [
    "digamma",
    "erf",
    "erfc",
    "gammainc",
    "gammaincc",
    "gammainccinv",
    "gammaincinv",
    "gammaln",
    "logsumexp",
    "ndtri",
    "pdtr",
]

# Same objects as scipy.special's — attribute access through this module
# is bit-for-bit equivalent to `from scipy import special as sc`.
digamma = _scipy_special.digamma
erf = _scipy_special.erf
erfc = _scipy_special.erfc
gammainc = _scipy_special.gammainc
gammaincc = _scipy_special.gammaincc
gammainccinv = _scipy_special.gammainccinv
gammaincinv = _scipy_special.gammaincinv
gammaln = _scipy_special.gammaln
logsumexp = _scipy_special.logsumexp
ndtri = _scipy_special.ndtri
pdtr = _scipy_special.pdtr
