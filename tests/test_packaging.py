"""Public API surface sanity."""

import pathlib

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ lists missing name {name!r}"


def test_no_private_names_exported():
    assert all(not n.startswith("_") or n == "__version__" for n in repro.__all__)


def test_key_entry_points_present():
    for name in (
        "SLRH1", "SLRH2", "SLRH3", "MaxMaxScheduler", "LrnnScheduler",
        "Weights", "Scenario", "Schedule", "validate_schedule",
        "upper_bound", "upper_bound_strict", "paper_scaled_suite",
        "run_with_machine_loss", "run_with_events",
    ):
        assert name in repro.__all__


def test_py_typed_marker_ships():
    pkg_root = pathlib.Path(repro.__file__).parent
    assert (pkg_root / "py.typed").exists()


def test_subpackages_importable():
    import importlib

    for mod in (
        "repro.grid", "repro.workload", "repro.sim", "repro.core",
        "repro.baselines", "repro.bounds", "repro.tuning",
        "repro.experiments", "repro.analysis", "repro.io",
    ):
        importlib.import_module(mod)


def test_docs_exist():
    repo = pathlib.Path(repro.__file__).parents[2]
    for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "LICENSE"):
        assert (repo / doc).exists(), f"{doc} missing from repository root"
