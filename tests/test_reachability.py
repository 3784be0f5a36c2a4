"""Every package module is reached from an entry point.

The walk follows static imports (read from the AST, including imports
inside functions) from the entry points: the command line, every
module of the workflow packages, and every script of ``perfbench/`` and
``benchmarks/``. A name imported from a package ``__init__`` resolves
to the module that defines it, so a re-export alone reaches nothing;
package ``__init__`` files are not checked themselves. A module that
no entry point reaches serves no workflow and should be deleted.
"""

from __future__ import annotations

import ast
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

ENTRY_MODULES = ("repro.cli", "repro.__main__")
#: Every module of these packages is an entry point, so their lazy
#: ``__getattr__`` exports need no resolution.
ENTRY_PACKAGES = ("repro.experiments", "repro.validation", "repro.robustness")
SCRIPT_DIRS = ("perfbench", "benchmarks")

ALLOWED_UNREACHED = {
    # Records how the frozen System 17 arrays were generated; it is run
    # by hand to reproduce them and is never imported by a workflow.
    "repro.data._sys17_generator",
}


def _index() -> tuple[dict[str, Path], set[str]]:
    """Dotted name → file of every ``repro`` module, and the packages."""
    modules, packages = {}, set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
            packages.add(".".join(parts))
        modules[".".join(parts)] = path
    return modules, packages


MODULES, PACKAGES = _index()


@cache
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _resolve(package_or_module: str, name: str) -> set[str]:
    """Modules reached by importing ``name`` from ``package_or_module``."""
    if package_or_module not in MODULES:
        return set()
    if package_or_module not in PACKAGES:
        return {package_or_module}
    submodule = f"{package_or_module}.{name}"
    if submodule in MODULES:
        return set() if submodule in PACKAGES else {submodule}
    init = MODULES[package_or_module]
    for node in _tree(init).body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return _resolve(node.module or "", alias.name)
    return set()  # defined in the __init__ itself


def _reached_from(path: Path) -> set[str]:
    """Modules one file's imports reach directly."""
    reached: set[str] = set()
    bound_packages: dict[str, str] = {}
    tree = _tree(path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in PACKAGES:
                    bound_packages[alias.asname or alias.name] = alias.name
                elif alias.name in MODULES:
                    reached.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            for alias in node.names:
                if f"{base}.{alias.name}" in PACKAGES:
                    bound_packages[alias.asname or alias.name] = f"{base}.{alias.name}"
                else:
                    reached |= _resolve(base, alias.name)
    # ``from repro import obs`` then ``obs.span(...)``: the attribute
    # resolves through the package like a from-import would.
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in bound_packages
        ):
            reached |= _resolve(bound_packages[node.value.id], node.attr)
    return reached


def _scripts() -> list[Path]:
    scripts = []
    for directory in SCRIPT_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            rel = path.relative_to(ROOT)
            if "tests" not in rel.parts and not path.name.startswith("test_"):
                scripts.append(path)
    return scripts


def reached_modules() -> set[str]:
    """Every non-package ``repro`` module an entry point reaches."""
    frontier = set(ENTRY_MODULES)
    frontier |= {
        name
        for name in MODULES
        if name not in PACKAGES
        and any(name.startswith(f"{package}.") for package in ENTRY_PACKAGES)
    }
    for path in _scripts():
        frontier |= _reached_from(path)
    reached: set[str] = set()
    while frontier:
        module = frontier.pop()
        if module in reached:
            continue
        reached.add(module)
        frontier |= _reached_from(MODULES[module]) - reached
    return reached


def test_entry_points_exist():
    assert set(ENTRY_MODULES) <= set(MODULES)
    assert set(ENTRY_PACKAGES) <= PACKAGES
    assert _scripts()


def test_every_module_is_reached():
    unreached = sorted(
        set(MODULES) - PACKAGES - reached_modules() - ALLOWED_UNREACHED
    )
    assert not unreached, (
        "modules no entry point reaches (delete them, or wire them into "
        f"a workflow): {unreached}"
    )


def test_allowed_modules_are_still_unreached():
    # An allowance that a workflow now reaches is stale; drop it.
    assert ALLOWED_UNREACHED <= set(MODULES)
    assert not ALLOWED_UNREACHED & reached_modules()
