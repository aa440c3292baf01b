"""Grid churn: machines leaving and rejoining mid-run."""

import pytest

from repro.core.slrh import SLRH1, SlrhConfig
from repro.session import SessionEvent, run_with_events
from repro.sim.schedule import Schedule
from repro.sim.validate import validate_schedule


@pytest.fixture(scope="module")
def scheduler(mid_weights):
    return SLRH1(SlrhConfig(weights=mid_weights))


def _quarter(scenario):
    return int(scenario.tau / 4 / 0.1)


def _loss(cycle, machine):
    return SessionEvent("machine_loss", cycle, machine=machine)


def _rejoin(cycle, machine):
    return SessionEvent("machine_rejoin", cycle, machine=machine)


class TestOfflineFlag:
    def test_set_offline_blocks_availability(self, tiny_scenario):
        schedule = Schedule(tiny_scenario)
        schedule.set_offline(0)
        assert not schedule.machine_available(0, 0.0)
        schedule.set_offline(0, False)
        assert schedule.machine_available(0, 0.0)

    def test_offline_plans_infeasible(self, tiny_scenario):
        schedule = Schedule(tiny_scenario)
        schedule.set_offline(0)
        root = tiny_scenario.dag.roots[0]
        from repro.workload.versions import PRIMARY

        plan = schedule.plan(root, PRIMARY, 0)
        assert not plan.feasible
        assert "offline" in plan.reason

    def test_set_offline_bad_index(self, tiny_scenario):
        with pytest.raises(IndexError):
            Schedule(tiny_scenario).set_offline(99)


class TestLossOnly:
    def test_loss_rolls_back_machine_work(self, small_scenario, scheduler):
        q = _quarter(small_scenario)
        out = run_with_events(small_scenario, scheduler, [_loss(q, 0)])
        validate_schedule(out.final.schedule)
        for a in out.final.schedule.assignments.values():
            # Work on machine 0 may only exist if it started fresh after...
            # no: machine 0 never returns, so nothing may sit on it except
            # assignments committed before the loss that were kept — but the
            # rollback rule drops all machine-0 work.
            assert a.machine != 0

    def test_sunk_energy_nonnegative(self, small_scenario, scheduler):
        q = _quarter(small_scenario)
        out = run_with_events(small_scenario, scheduler, [_loss(q, 1)])
        assert all(r.sunk_energy >= 0.0 for r in out.records)

    def test_double_loss_rejected(self, small_scenario, scheduler):
        q = _quarter(small_scenario)
        with pytest.raises(ValueError):
            run_with_events(
                small_scenario, scheduler, [_loss(q, 0), _loss(q + 10, 0)]
            )

    def test_join_without_loss_rejected(self, small_scenario, scheduler):
        with pytest.raises(ValueError):
            run_with_events(small_scenario, scheduler, [_rejoin(5, 0)])

    def test_bad_machine_rejected(self, small_scenario, scheduler):
        with pytest.raises(IndexError):
            run_with_events(small_scenario, scheduler, [_loss(5, 42)])


class TestLossAndRejoin:
    def test_machine_usable_after_rejoin(self, small_scenario, scheduler):
        q = _quarter(small_scenario)
        out = run_with_events(
            small_scenario, scheduler, [_loss(q, 1), _rejoin(2 * q, 1)]
        )
        validate_schedule(out.final.schedule)
        # Any machine-1 assignment must have been (re)committed after the
        # machine was back — i.e. it cannot *start executing* while the
        # machine was offline... it can start after rejoin only.
        rejoin_time = 2 * q * 0.1
        loss_time = q * 0.1
        for a in out.final.schedule.assignments.values():
            if a.machine == 1 and a.start >= loss_time - 1e-9:
                assert a.start >= rejoin_time - 1e-9

    def test_no_events_equals_plain_map(self, small_scenario, scheduler):
        plain = scheduler.map(small_scenario)
        churned = run_with_events(small_scenario, scheduler, [])
        assert churned.final.schedule.summary()["t100"] == plain.t100
        assert churned.final.schedule.summary()["aet"] == pytest.approx(plain.aet)

    def test_rejoin_improves_on_pure_loss(self, small_scenario, scheduler):
        q = _quarter(small_scenario)
        lost = run_with_events(small_scenario, scheduler, [_loss(q, 1)])
        back = run_with_events(
            small_scenario, scheduler, [_loss(q, 1), _rejoin(q + 10, 1)]
        )
        # A near-immediate rejoin must not map fewer subtasks than a
        # permanent loss.
        assert back.final.schedule.n_mapped >= lost.final.schedule.n_mapped

    def test_trace_merged_across_segments(self, small_scenario, scheduler):
        q = _quarter(small_scenario)
        out = run_with_events(
            small_scenario, scheduler, [_loss(q, 1), _rejoin(2 * q, 1)]
        )
        assert out.final.trace.n_commits >= out.final.schedule.n_mapped
