"""Dynamic machine loss: the rollback rule and the session that applies it."""

import pytest

from repro.core.constants import EPSILON
from repro.core.slrh import SLRH1, SlrhConfig
from repro.session import SessionEngine, SessionEvent
from repro.sim.engine import rollback_machine, surviving_tasks
from repro.sim.validate import validate_schedule
from repro.util.units import CYCLE_SECONDS


@pytest.fixture(scope="module")
def mapped_result(small_scenario, mid_config):
    return SLRH1(mid_config).map(small_scenario)


class TestSurvivingTasks:
    def test_lost_machine_work_dropped(self, mapped_result):
        sched = mapped_result.schedule
        kept, dropped = surviving_tasks(sched, lost_machine=0)
        for t in dropped | kept:
            a = sched.assignments[t]
            if a.machine == 0:
                assert t in dropped

    def test_descendants_dropped(self, mapped_result):
        sched = mapped_result.schedule
        dag = sched.scenario.dag
        kept, dropped = surviving_tasks(sched, lost_machine=0)
        for t in kept:
            assert all(p in kept for p in dag.parents[t] if p in sched.assignments)

    def test_partition(self, mapped_result):
        sched = mapped_result.schedule
        kept, dropped = surviving_tasks(sched, lost_machine=1)
        assert kept | dropped == set(sched.assignments)
        assert not (kept & dropped)

    def test_losing_unused_machine_drops_nothing(self, mapped_result):
        sched = mapped_result.schedule
        used = {a.machine for a in sched.assignments.values()}
        unused = set(range(sched.scenario.n_machines)) - used
        if not unused:
            pytest.skip("all machines used")
        kept, dropped = surviving_tasks(sched, lost_machine=unused.pop())
        assert not dropped


class TestRollbackMachine:
    def test_unassigns_exactly_the_invalidated_tasks(
        self, small_scenario, mid_config
    ):
        schedule = SLRH1(mid_config).map(small_scenario).schedule
        kept, dropped = surviving_tasks(schedule, lost_machine=1)
        assert dropped
        rolled_back, sunk = rollback_machine(schedule, 1, schedule.makespan / 2)
        order = small_scenario.dag.topological_order
        assert list(rolled_back) == [t for t in order if t in dropped]
        assert set(schedule.assignments) == kept
        # Work started before the loss is charged, and only through debits.
        assert sunk > 0.0
        assert sum(schedule.external_debits) == pytest.approx(sunk)
        validate_schedule(schedule)

    def test_loss_at_time_zero_sinks_nothing(self, small_scenario, mid_config):
        schedule = SLRH1(mid_config).map(small_scenario).schedule
        rolled_back, sunk = rollback_machine(schedule, 1, 0.0)
        assert rolled_back
        assert sunk == 0.0
        assert schedule.external_debits == [0.0] * small_scenario.n_machines


def _lose(scenario, config, machine, cycle):
    """Run a session to *cycle*, lose *machine* there, then close it.

    Returns the mapping just before the loss, the kept mapping just after
    it, the loss's :class:`~repro.session.ChurnRecord` and the closed
    session's outcome.
    """
    engine = SessionEngine(scenario, SLRH1(config))
    engine.apply(SessionEvent("advance", cycle))
    before = dict(engine.schedule.assignments)
    record = engine.apply(SessionEvent("machine_loss", cycle, machine=machine))
    kept = dict(engine.schedule.assignments)
    return before, kept, record, engine.close()


class TestMachineLoss:
    """A mid-run loss through the session engine: roll back at the loss
    cycle, then replan from there on the machines still online."""

    def test_outcome_consistency(self, small_scenario, mid_config):
        before, kept, record, out = _lose(small_scenario, mid_config, 1, 2000)
        assert record.event.machine == 1
        assert record.event.cycle * CYCLE_SECONDS == pytest.approx(200.0)
        assert set(kept) | set(record.rolled_back) == set(before)
        assert not set(kept) & set(record.rolled_back)
        assert out.records == (record,)
        validate_schedule(out.final.schedule)

    def test_final_schedule_on_reduced_grid(self, small_scenario, mid_config):
        # The grid after the loss is the surviving machines at their
        # original indices; the lost one stays offline to the end.
        _, _, _, out = _lose(small_scenario, mid_config, 1, 2000)
        final = out.final.schedule
        assert final.offline == {1}
        for a in final.assignments.values():
            assert 0 <= a.machine < small_scenario.n_machines
            assert a.machine != 1

    def test_survivors_keep_their_slots(self, small_scenario, mid_config):
        _, kept, _, out = _lose(small_scenario, mid_config, 2, 2000)
        assert kept
        for t, orig in kept.items():
            final = out.final.schedule.assignments[t]
            assert final.machine == orig.machine
            assert final.start == orig.start
            assert final.finish == orig.finish
            assert final.version is orig.version

    def test_sunk_energy_recorded_when_partial_work_wasted(
        self, small_scenario, mid_config
    ):
        _, _, record, out = _lose(small_scenario, mid_config, 0, 500)
        # Work any machine had started on rolled-back tasks before the loss
        # is debited, and only through the external debits.
        assert record.sunk_energy > 0.0
        debits = out.final.schedule.external_debits
        assert all(e >= 0.0 for e in debits)
        assert sum(debits) == pytest.approx(record.sunk_energy)
        validate_schedule(out.final.schedule)

    def test_loss_of_bad_machine_index_rejected(self, small_scenario, mid_config):
        engine = SessionEngine(small_scenario, SLRH1(mid_config))
        with pytest.raises(IndexError):
            engine.apply(SessionEvent("machine_loss", 100, machine=9))

    def test_remapping_progresses(self, small_scenario, mid_config):
        _, kept, record, out = _lose(small_scenario, mid_config, 3, 2000)
        assert record.rolled_back
        final = out.final.schedule
        # The heuristic replans past the kept set, and only from the loss
        # instant on.
        assert final.n_mapped > len(kept)
        loss_time = 2000 * CYCLE_SECONDS
        for t, a in final.assignments.items():
            if t not in kept:
                assert a.start >= loss_time - EPSILON
