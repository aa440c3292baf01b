"""Shared fixtures: small, fast scenarios reused across the test suite,
and the lock witness that checks every lock the service takes."""

from __future__ import annotations

import pytest

from repro import (
    CASE_A,
    ScenarioSpec,
    SlrhConfig,
    Weights,
    generate_scenario,
    paper_scaled_grid,
    paper_scaled_spec,
    paper_scaled_suite,
)
from tests.lock_witness import WITNESS, install_service

install_service()


@pytest.hookimpl(wrapper=True)
def _fail_on_lock_violations(item):
    """Fail the test phase in which the service broke its lock order or
    a lock contract, in whichever thread it happened."""
    result = yield
    found = WITNESS.unreported()
    if found:
        pytest.fail("lock witness:\n\n" + "\n\n".join(found), pytrace=False)
    return result


pytest_runtest_setup = pytest_runtest_call = pytest_runtest_teardown = (
    _fail_on_lock_violations
)


@pytest.fixture(scope="session")
def tiny_scenario():
    """12 subtasks on the paper-scaled Case A grid — fast regime-faithful
    instance for scheduler unit tests."""
    # Seed 21 gives a DAG whose first root has a single-parent child and
    # which has two roots — shapes several schedule/validation tests rely on.
    spec = paper_scaled_spec(12)
    return generate_scenario(spec, grid=paper_scaled_grid(12), seed=21, name="tiny")


@pytest.fixture(scope="session")
def small_scenario():
    """32 subtasks, the workhorse for integration-level assertions."""
    spec = paper_scaled_spec(32)
    return generate_scenario(spec, grid=paper_scaled_grid(32), seed=5, name="small")


@pytest.fixture(scope="session")
def loose_scenario():
    """A scenario with effectively no time/energy pressure: every heuristic
    should map everything primary.  Useful for invariant checks."""
    spec = ScenarioSpec(n_tasks=16, tau=1e9)
    return generate_scenario(spec, grid=CASE_A, seed=3, name="loose")


@pytest.fixture(scope="session")
def tiny_suite():
    """A 2-ETC × 2-DAG suite at |T| = 16 for protocol tests."""
    return paper_scaled_suite(16, n_etc=2, n_dag=2, seed=42)


@pytest.fixture(scope="session")
def mid_weights():
    return Weights.from_alpha_beta(0.5, 0.2)


@pytest.fixture(scope="session")
def mid_config(mid_weights):
    return SlrhConfig(weights=mid_weights)
