"""The shipped examples stay runnable.

The three fastest examples run end-to-end in a subprocess (the
machine-loss study in about a second, and it is the study's only
end-to-end run); the longer studies (weight sensitivity, adaptive
deployment, structured workloads) are compile-checked here and exercised
by their underlying APIs' own tests — running them all would triple the
suite's wall-clock for no extra coverage.
"""

import pathlib
import py_compile
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"

RUN_FULLY = ["quickstart.py", "churn_timeline.py", "machine_loss_study.py"]
COMPILE_ONLY = [
    "weight_sensitivity.py",
    "adaptive_field_deployment.py",
    "structured_workloads.py",
]


def test_example_inventory_complete():
    on_disk = {p.name for p in EXAMPLES.glob("*.py")}
    assert on_disk == set(RUN_FULLY) | set(COMPILE_ONLY)


@pytest.mark.parametrize("name", RUN_FULLY)
def test_example_runs_clean(name):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip(), "example produced no output"


def test_quickstart_reports_validation():
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert "schedule validated" in proc.stdout
    assert "upper bound" in proc.stdout


@pytest.mark.parametrize("name", COMPILE_ONLY)
def test_example_compiles(name):
    py_compile.compile(str(EXAMPLES / name), doraise=True)
