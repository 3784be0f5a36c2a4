"""Lint-style test: exactly one module imports scipy.special.

Every other module must go through the shim
(``from repro.stats import scipy_special as sc``) so that the set of
special functions the package depends on stays auditable."""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The single allowed import site.
ALLOWED = SRC / "stats" / "scipy_special.py"

_IMPORT_RE = re.compile(
    r"^\s*(from\s+scipy\s+import\s+special|"
    r"from\s+scipy\.special\s+import|"
    r"import\s+scipy\.special)",
    re.MULTILINE,
)


def test_only_the_shim_imports_scipy_special():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path == ALLOWED:
            continue
        if _IMPORT_RE.search(path.read_text()):
            offenders.append(str(path.relative_to(SRC)))
    assert offenders == [], (
        "scipy.special imported outside repro/stats/scipy_special.py: "
        f"{offenders}; import the shim instead "
        "(from repro.stats import scipy_special as sc)"
    )


def test_the_shim_itself_does_import_scipy_special():
    assert _IMPORT_RE.search(ALLOWED.read_text())
