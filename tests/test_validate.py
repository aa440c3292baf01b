"""Schedule validation catches corrupted schedules."""

import dataclasses

import pytest

from repro.sim.schedule import Schedule
from repro.sim.validate import ValidationError, validate_schedule
from repro.workload.versions import PRIMARY


@pytest.fixture
def mapped(tiny_scenario):
    """A schedule with a committed root assignment."""
    schedule = Schedule(tiny_scenario)
    root = tiny_scenario.dag.roots[0]
    schedule.commit(schedule.plan(root, PRIMARY, 0))
    return schedule, root


def test_clean_schedule_passes(mapped):
    schedule, _ = mapped
    validate_schedule(schedule)


def test_empty_schedule_passes(tiny_scenario):
    validate_schedule(Schedule(tiny_scenario))


def test_require_complete(tiny_scenario):
    with pytest.raises(ValidationError):
        validate_schedule(Schedule(tiny_scenario), require_complete=True)


def test_detects_wrong_duration(mapped):
    schedule, root = mapped
    a = schedule.assignments[root]
    schedule.assignments[root] = dataclasses.replace(a, finish=a.finish + 99.0)
    with pytest.raises(ValidationError):
        validate_schedule(schedule)


def test_detects_wrong_energy(mapped):
    schedule, root = mapped
    a = schedule.assignments[root]
    schedule.assignments[root] = dataclasses.replace(a, energy=a.energy * 2)
    with pytest.raises(ValidationError):
        validate_schedule(schedule)


def test_detects_t100_drift(mapped):
    schedule, _ = mapped
    schedule._t100 = 5
    with pytest.raises(ValidationError):
        validate_schedule(schedule)


def test_detects_makespan_drift(mapped):
    schedule, _ = mapped
    schedule._makespan += 100.0
    with pytest.raises(ValidationError):
        validate_schedule(schedule)


def test_detects_exec_overlap(tiny_scenario):
    schedule = Schedule(tiny_scenario)
    dag = tiny_scenario.dag
    roots = dag.roots
    if len(roots) < 2:
        pytest.skip("need two roots")
    schedule.commit(schedule.plan(roots[0], PRIMARY, 0))
    schedule.commit(schedule.plan(roots[1], PRIMARY, 0))
    # Force the second assignment on top of the first.
    a = schedule.assignments[roots[1]]
    b = schedule.assignments[roots[0]]
    schedule.assignments[roots[1]] = dataclasses.replace(
        a, start=b.start, finish=b.start + a.duration
    )
    with pytest.raises(ValidationError):
        validate_schedule(schedule)


def test_detects_precedence_violation(tiny_scenario):
    schedule = Schedule(tiny_scenario)
    dag = tiny_scenario.dag
    root = dag.roots[0]
    child = next((c for c in dag.children[root] if len(dag.parents[c]) == 1), None)
    if child is None:
        pytest.skip("no single-parent child")
    schedule.commit(schedule.plan(root, PRIMARY, 0))
    schedule.commit(schedule.plan(child, PRIMARY, 0))
    a = schedule.assignments[child]
    schedule.assignments[child] = dataclasses.replace(
        a, start=0.0, finish=a.duration
    )
    with pytest.raises(ValidationError):
        validate_schedule(schedule)


def test_detects_missing_comm(tiny_scenario):
    schedule = Schedule(tiny_scenario)
    dag = tiny_scenario.dag
    root = dag.roots[0]
    child = next((c for c in dag.children[root] if len(dag.parents[c]) == 1), None)
    if child is None:
        pytest.skip("no single-parent child")
    schedule.commit(schedule.plan(root, PRIMARY, 0))
    schedule.commit(schedule.plan(child, PRIMARY, 1))
    a = schedule.assignments[child]
    schedule.assignments[child] = dataclasses.replace(a, comms=())
    with pytest.raises(ValidationError):
        validate_schedule(schedule)


def test_detects_input_arriving_after_start(tiny_scenario):
    schedule = Schedule(tiny_scenario)
    dag = tiny_scenario.dag
    root = dag.roots[0]
    child = next((c for c in dag.children[root] if len(dag.parents[c]) == 1), None)
    if child is None:
        pytest.skip("no single-parent child")
    schedule.commit(schedule.plan(root, PRIMARY, 0))
    schedule.commit(schedule.plan(child, PRIMARY, 1))
    a = schedule.assignments[child]
    (comm,) = a.comms
    # After the parent finishes, but before its output lands on machine 1.
    start = (comm.start + comm.finish) / 2
    schedule.assignments[child] = dataclasses.replace(
        a, start=start, finish=start + a.duration
    )
    with pytest.raises(ValidationError, match="before its input"):
        validate_schedule(schedule)


def test_detects_ledger_drift(mapped):
    schedule, _ = mapped
    schedule.energy.debit(1, 3.0)  # consumption with no assignment behind it
    with pytest.raises(ValidationError):
        validate_schedule(schedule)
