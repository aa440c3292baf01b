"""Execution replay and dynamic machine loss."""

import pytest

from repro.core.slrh import SLRH1, SlrhConfig
from repro.sim.engine import (
    execute_schedule,
    rollback_machine,
    run_with_machine_loss,
    surviving_tasks,
)
from repro.sim.events import EventKind
from repro.sim.validate import validate_schedule


@pytest.fixture(scope="module")
def mapped_result(small_scenario, mid_config):
    return SLRH1(mid_config).map(small_scenario)


class TestReplay:
    def test_replay_runs_clean(self, mapped_result):
        log = execute_schedule(mapped_result.schedule)
        assert log.makespan == pytest.approx(mapped_result.schedule.makespan)

    def test_event_counts(self, mapped_result):
        log = execute_schedule(mapped_result.schedule)
        n = mapped_result.schedule.n_mapped
        assert len(log.events_of(EventKind.TASK_START)) == n
        assert len(log.events_of(EventKind.TASK_FINISH)) == n
        n_comms = sum(len(a.comms) for a in mapped_result.schedule.assignments.values())
        assert len(log.events_of(EventKind.COMM_START)) == n_comms
        assert len(log.events_of(EventKind.COMM_FINISH)) == n_comms

    def test_busy_time_matches_timelines(self, mapped_result):
        log = execute_schedule(mapped_result.schedule)
        sched = mapped_result.schedule
        for j in range(sched.scenario.n_machines):
            assert log.busy_seconds.get(j, 0.0) == pytest.approx(sched.machine_load(j))

    def test_utilisation_bounded(self, mapped_result):
        log = execute_schedule(mapped_result.schedule)
        for j in range(mapped_result.schedule.scenario.n_machines):
            assert 0.0 <= log.utilisation(j) <= 1.0

    def test_empty_schedule(self, small_scenario):
        from repro.sim.schedule import Schedule

        log = execute_schedule(Schedule(small_scenario))
        assert log.events == []
        assert log.makespan == 0.0


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


class TestMachineLoss:
    def test_outcome_consistency(self, small_scenario, mid_config):
        out = run_with_machine_loss(
            small_scenario, SLRH1(mid_config), lost_machine=1, loss_cycle=2000
        )
        assert out.lost_machine == 1
        assert out.loss_time == pytest.approx(200.0)
        assert set(out.survivors) | set(out.invalidated) == set(
            out.initial.schedule.assignments
        )
        validate_schedule(out.final.schedule)

    def test_final_schedule_on_reduced_grid(self, small_scenario, mid_config):
        out = run_with_machine_loss(
            small_scenario, SLRH1(mid_config), lost_machine=1, loss_cycle=2000
        )
        assert out.reduced_scenario.n_machines == small_scenario.n_machines - 1
        for a in out.final.schedule.assignments.values():
            assert 0 <= a.machine < out.reduced_scenario.n_machines

    def test_survivors_keep_their_slots(self, small_scenario, mid_config):
        out = run_with_machine_loss(
            small_scenario, SLRH1(mid_config), lost_machine=2, loss_cycle=2000
        )
        for t in out.survivors:
            orig = out.initial.schedule.assignments[t]
            final = out.final.schedule.assignments[t]
            assert final.start == pytest.approx(orig.start)
            assert final.finish == pytest.approx(orig.finish)
            assert final.version is orig.version

    def test_sunk_energy_recorded_when_partial_work_wasted(
        self, small_scenario, mid_config
    ):
        out = run_with_machine_loss(
            small_scenario, SLRH1(mid_config), lost_machine=0, loss_cycle=500
        )
        # Sunk cost may be zero (if no surviving machine had started work on
        # invalidated tasks), but never negative, and validation still holds.
        assert all(e >= 0.0 for e in out.final.schedule.external_debits)
        validate_schedule(out.final.schedule)

    def test_loss_of_bad_machine_index_rejected(self, small_scenario, mid_config):
        with pytest.raises(IndexError):
            run_with_machine_loss(
                small_scenario, SLRH1(mid_config), lost_machine=9, loss_cycle=100
            )

    def test_remapping_progresses(self, small_scenario, mid_config):
        out = run_with_machine_loss(
            small_scenario, SLRH1(mid_config), lost_machine=3, loss_cycle=2000
        )
        # The re-mapper must at least re-map something if anything was lost
        # and resources remain.
        if out.invalidated:
            assert out.final.schedule.n_mapped >= len(out.survivors)
