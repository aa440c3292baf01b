"""Property-based stress of the dynamic engines (loss and churn)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.objective import Weights
from repro.core.slrh import SLRH1, SlrhConfig
from repro.session import SessionEngine, SessionEvent, run_with_events
from repro.sim.engine import surviving_tasks
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
    engine = SessionEngine(scenario, _SCHEDULER)
    engine.apply(SessionEvent("advance", loss_cycle))
    before = dict(engine.schedule.assignments)
    expect_kept, expect_dropped = surviving_tasks(engine.schedule, machine)
    record = engine.apply(
        SessionEvent("machine_loss", loss_cycle, machine=machine)
    )
    kept = dict(engine.schedule.assignments)
    # The mapping just before the loss splits exactly into kept and rolled
    # back, as the loss rule says.
    assert set(kept) == expect_kept
    assert set(record.rolled_back) == expect_dropped
    assert len(record.rolled_back) == len(expect_dropped)
    assert set(kept) | set(record.rolled_back) == set(before)
    assert not set(kept) & set(record.rolled_back)
    # Nothing kept sits on the lost machine.
    assert all(a.machine != machine for a in kept.values())
    final = engine.close().final.schedule
    # Every kept task keeps its machine, version, start and finish.
    for task, a in kept.items():
        b = final.assignments[task]
        assert (b.machine, b.version, b.start, b.finish) == (
            a.machine, a.version, a.start, a.finish
        )
    # The lost machine stays empty, and the final schedule is model-valid.
    assert all(a.machine != machine for a in final.assignments.values())
    validate_schedule(final)


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
