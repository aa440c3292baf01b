"""Property-based stress of the dynamic engines (loss and churn)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.objective import Weights
from repro.core.slrh import SLRH1, SlrhConfig
from repro.session import SessionEvent, run_with_events
from repro.sim.engine import run_with_machine_loss, surviving_tasks
from repro.sim.validate import validate_schedule
from repro.workload.scenario import (
    generate_scenario,
    paper_scaled_grid,
    paper_scaled_spec,
)

_WEIGHTS = Weights.from_alpha_beta(0.5, 0.2)
_SCHEDULER = SLRH1(SlrhConfig(weights=_WEIGHTS))
_SCENARIOS = {}


def _scenario(seed: int):
    if seed not in _SCENARIOS:
        _SCENARIOS[seed] = generate_scenario(
            paper_scaled_spec(16), grid=paper_scaled_grid(16), seed=seed
        )
    return _SCENARIOS[seed]


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=3),
    machine=st.integers(min_value=0, max_value=3),
    fraction=st.floats(min_value=0.05, max_value=0.95),
)
def test_machine_loss_always_yields_valid_partition(seed, machine, fraction):
    scenario = _scenario(seed)
    loss_cycle = max(1, int(scenario.tau * fraction / 0.1))
    out = run_with_machine_loss(scenario, _SCHEDULER, machine, loss_cycle)
    # Partition of the original assignments.
    assert set(out.survivors) | set(out.invalidated) == set(
        out.initial.schedule.assignments
    )
    assert not set(out.survivors) & set(out.invalidated)
    # Nothing survives on the lost machine.
    for t in out.survivors:
        assert out.initial.schedule.assignments[t].machine != machine
    # The final schedule is model-valid on the reduced grid.
    validate_schedule(out.final.schedule)
    assert out.final.schedule.scenario.n_machines == scenario.n_machines - 1


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=3),
    machine=st.integers(min_value=0, max_value=3),
    loss_frac=st.floats(min_value=0.1, max_value=0.5),
    gap_frac=st.floats(min_value=0.05, max_value=0.4),
)
def test_churn_loss_rejoin_always_valid(seed, machine, loss_frac, gap_frac):
    scenario = _scenario(seed)
    loss = max(1, int(scenario.tau * loss_frac / 0.1))
    join = loss + max(1, int(scenario.tau * gap_frac / 0.1))
    out = run_with_events(
        scenario,
        _SCHEDULER,
        [
            SessionEvent("machine_loss", loss, machine=machine),
            SessionEvent("machine_rejoin", join, machine=machine),
        ],
    )
    validate_schedule(out.final.schedule)
    # Sunk energy never negative; rollback only ever shrinks when later.
    assert all(r.sunk_energy >= 0.0 for r in out.records)
    # Machine-`machine` work in the final schedule must not *start
    # executing* inside the offline window.
    loss_t, join_t = loss * 0.1, join * 0.1
    for a in out.final.schedule.assignments.values():
        if a.machine == machine:
            assert a.start < loss_t + 1e-9 or a.start >= join_t - 1e-9


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=3), machine=st.integers(0, 3))
def test_surviving_tasks_closure(seed, machine):
    scenario = _scenario(seed)
    result = _SCHEDULER.map(scenario)
    kept, dropped = surviving_tasks(result.schedule, machine)
    dag = scenario.dag
    # Closure: kept tasks have only kept parents.
    for t in kept:
        for p in dag.parents[t]:
            if p in result.schedule.assignments:
                assert p in kept
