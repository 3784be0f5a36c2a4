"""Smoke tests: every example script must run end to end.

Each example is executed in a subprocess (as a user would run it) with
reduced workloads where the script accepts them.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), *args],
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        output = run_example("quickstart.py")
        assert "VB2 posterior" in output
        assert "99% CI" in output

    def test_method_comparison(self):
        output = run_example("method_comparison.py")
        assert "Posterior moments" in output
        for method in ("NINT", "LAPL", "MCMC", "VB1", "VB2"):
            assert method in output

    def test_release_readiness(self):
        output = run_example("release_readiness.py")
        assert "Release readiness" in output
        assert "keep testing" in output or "SHIP" in output

    def test_model_selection(self):
        output = run_example("model_selection.py")
        assert "Evidence-preferred lifetime shape" in output
        assert "ELBO" in output

    def test_simulation_study(self):
        output = run_example("simulation_study.py", "--replications", "25")
        assert "coverage" in output

    def test_test_planning(self):
        output = run_example("test_planning.py")
        assert "Predictive failure counts" in output
        assert "P(K<=1" in output
