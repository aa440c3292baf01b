"""Schedule: planning, committing, rollback, and energy reserves."""

import pytest

from repro.sim.schedule import Schedule
from repro.sim.validate import validate_schedule
from repro.workload.versions import PRIMARY, SECONDARY


@pytest.fixture
def schedule(tiny_scenario):
    return Schedule(tiny_scenario)


def _map_all_greedy(schedule):
    """Minimal completion-time mapping used to drive schedule state."""
    scenario = schedule.scenario
    for task in scenario.dag.topological_order:
        best = None
        for j in range(scenario.n_machines):
            for v in (PRIMARY, SECONDARY):
                p = schedule.plan(task, v, j, insertion=True)
                if p.feasible and (best is None or p.finish < best.finish):
                    best = p
                if p.feasible:
                    break
        assert best is not None
        schedule.commit(best)


class TestReadyTracking:
    def test_initial_ready_is_roots(self, schedule):
        assert schedule.ready_tasks() == frozenset(schedule.scenario.dag.roots)

    def test_commit_unlocks_children(self, schedule):
        dag = schedule.scenario.dag
        root = dag.roots[0]
        plan = schedule.plan(root, PRIMARY, 0)
        schedule.commit(plan)
        only_child = [
            c for c in dag.children[root] if all(p == root for p in dag.parents[c])
        ]
        for c in only_child:
            assert c in schedule.ready_tasks()

    def test_mapped_task_not_ready(self, schedule):
        root = schedule.scenario.dag.roots[0]
        schedule.commit(schedule.plan(root, PRIMARY, 0))
        assert root not in schedule.ready_tasks()


class TestPlan:
    def test_plan_does_not_mutate(self, schedule):
        root = schedule.scenario.dag.roots[0]
        schedule.plan(root, PRIMARY, 0)
        assert schedule.n_mapped == 0
        assert schedule.total_energy_consumed == 0.0
        assert len(schedule.exec_timeline[0]) == 0

    def test_plan_duration_matches_etc(self, schedule, tiny_scenario):
        root = tiny_scenario.dag.roots[0]
        p = schedule.plan(root, PRIMARY, 1)
        assert p.duration == pytest.approx(tiny_scenario.exec_time(root, 1, PRIMARY))

    def test_plan_respects_not_before(self, schedule):
        root = schedule.scenario.dag.roots[0]
        p = schedule.plan(root, PRIMARY, 0, not_before=50.0)
        assert p.start >= 50.0
        assert p.data_ready >= 50.0

    def test_plan_mapped_task_rejected(self, schedule):
        root = schedule.scenario.dag.roots[0]
        schedule.commit(schedule.plan(root, PRIMARY, 0))
        with pytest.raises(ValueError):
            schedule.plan(root, SECONDARY, 0)

    def test_plan_unready_task_rejected(self, schedule):
        dag = schedule.scenario.dag
        non_root = next(t for t in range(dag.n_tasks) if dag.parents[t])
        with pytest.raises(ValueError):
            schedule.plan(non_root, PRIMARY, 0)

    def test_plan_bad_machine_rejected(self, schedule):
        root = schedule.scenario.dag.roots[0]
        with pytest.raises(IndexError):
            schedule.plan(root, PRIMARY, 99)

    def test_comm_scheduled_for_remote_parent(self, schedule):
        dag = schedule.scenario.dag
        root = dag.roots[0]
        child = next((c for c in dag.children[root] if len(dag.parents[c]) == 1), None)
        if child is None:
            pytest.skip("no single-parent child")
        schedule.commit(schedule.plan(root, PRIMARY, 0))
        p = schedule.plan(child, PRIMARY, 1)
        assert len(p.comms) == 1
        comm = p.comms[0]
        assert comm.src == 0 and comm.dst == 1
        assert comm.start >= schedule.assignments[root].finish
        assert p.start >= comm.finish

    def test_colocated_parent_no_comm(self, schedule):
        dag = schedule.scenario.dag
        root = dag.roots[0]
        child = next((c for c in dag.children[root] if len(dag.parents[c]) == 1), None)
        if child is None:
            pytest.skip("no single-parent child")
        schedule.commit(schedule.plan(root, PRIMARY, 0))
        p = schedule.plan(child, PRIMARY, 0)
        assert p.comms == ()
        assert p.start >= schedule.assignments[root].finish


class TestPlanVersions:
    def test_equivalent_to_two_plan_calls(self, schedule):
        scenario = schedule.scenario
        # Put a parent on machine 0 so comm planning is exercised.
        root = scenario.dag.roots[0]
        schedule.commit(schedule.plan(root, PRIMARY, 0))
        for task in sorted(schedule.ready_tasks()):
            for machine in range(scenario.n_machines):
                pair = schedule.plan_versions(task, machine, not_before=3.0)
                singles = (
                    schedule.plan(task, PRIMARY, machine, not_before=3.0),
                    schedule.plan(task, SECONDARY, machine, not_before=3.0),
                )
                for got, want in zip(pair, singles):
                    assert got == want

    def test_rejects_mapped_task(self, schedule):
        root = schedule.scenario.dag.roots[0]
        schedule.commit(schedule.plan(root, PRIMARY, 0))
        with pytest.raises(ValueError):
            schedule.plan_versions(root, 0)

    def test_versions_in_order(self, schedule):
        root = schedule.scenario.dag.roots[0]
        primary, secondary = schedule.plan_versions(root, 0)
        assert primary.version is PRIMARY
        assert secondary.version is SECONDARY
        assert secondary.duration == pytest.approx(0.1 * primary.duration)


class TestCommit:
    def test_commit_updates_aggregates(self, schedule):
        root = schedule.scenario.dag.roots[0]
        p = schedule.plan(root, PRIMARY, 0)
        schedule.commit(p)
        assert schedule.n_mapped == 1
        assert schedule.t100 == 1
        assert schedule.makespan == pytest.approx(p.finish)
        assert schedule.total_energy_consumed == pytest.approx(p.exec_energy)

    def test_secondary_does_not_count_t100(self, schedule):
        root = schedule.scenario.dag.roots[0]
        schedule.commit(schedule.plan(root, SECONDARY, 0))
        assert schedule.t100 == 0

    def test_double_commit_rejected(self, schedule):
        root = schedule.scenario.dag.roots[0]
        p = schedule.plan(root, PRIMARY, 0)
        schedule.commit(p)
        with pytest.raises(ValueError):
            schedule.commit(p)

    def test_infeasible_plan_rejected(self, schedule):
        root = schedule.scenario.dag.roots[0]
        p = schedule.plan(root, PRIMARY, 0)
        object.__setattr__(p, "feasible", False)
        with pytest.raises(ValueError):
            schedule.commit(p)

    def test_machine_available_flips(self, schedule):
        root = schedule.scenario.dag.roots[0]
        assert schedule.machine_available(0, 0.0)
        p = schedule.plan(root, PRIMARY, 0)
        schedule.commit(p)
        assert not schedule.machine_available(0, 0.0)
        assert schedule.machine_available(0, p.finish + 1.0)

    def test_full_mapping_is_complete_and_valid(self, schedule):
        _map_all_greedy(schedule)
        assert schedule.is_complete
        validate_schedule(schedule, require_complete=True)


class TestCommReserves:
    def test_reserve_held_after_commit(self, schedule):
        dag = schedule.scenario.dag
        root = dag.roots[0]
        p = schedule.plan(root, PRIMARY, 0)
        schedule.commit(p)
        if dag.children[root]:
            assert schedule.reserved_energy(0) > 0.0
            assert schedule.available_energy(0) < schedule.energy.remaining(0)
        else:
            assert schedule.reserved_energy(0) == 0.0

    def test_reserve_released_when_child_mapped(self, schedule):
        dag = schedule.scenario.dag
        root = dag.roots[0]
        child = next((c for c in dag.children[root] if len(dag.parents[c]) == 1), None)
        if child is None:
            pytest.skip("no single-parent child")
        schedule.commit(schedule.plan(root, PRIMARY, 0))
        before = schedule.reserved_energy(0)
        schedule.commit(schedule.plan(child, PRIMARY, 1))
        assert schedule.reserved_energy(0) < before

    def test_reserves_prevent_wedging(self, tiny_scenario):
        """With reserves held, any machine that maps a task can always pay
        to ship that task's outputs later."""
        schedule = Schedule(tiny_scenario)
        _map_all_greedy(schedule)
        # Reserves fully released once everything is mapped.
        for j in range(tiny_scenario.n_machines):
            assert schedule.reserved_energy(j) == pytest.approx(0.0, abs=1e-9)

    def test_no_reserve_mode(self, tiny_scenario):
        schedule = Schedule(tiny_scenario, hold_comm_reserves=False)
        root = tiny_scenario.dag.roots[0]
        schedule.commit(schedule.plan(root, PRIMARY, 0))
        assert schedule.reserved_energy(0) == 0.0


class TestUnassign:
    def test_unassign_restores_everything(self, schedule):
        root = schedule.scenario.dag.roots[0]
        p = schedule.plan(root, PRIMARY, 0)
        schedule.commit(p)
        schedule.unassign(root)
        assert schedule.n_mapped == 0
        assert schedule.t100 == 0
        assert schedule.makespan == 0.0
        assert schedule.total_energy_consumed == pytest.approx(0.0)
        assert schedule.reserved_energy(0) == pytest.approx(0.0)
        assert root in schedule.ready_tasks()

    def test_unassign_with_mapped_child_rejected(self, schedule):
        dag = schedule.scenario.dag
        root = dag.roots[0]
        child = next((c for c in dag.children[root] if len(dag.parents[c]) == 1), None)
        if child is None:
            pytest.skip("no single-parent child")
        schedule.commit(schedule.plan(root, PRIMARY, 0))
        schedule.commit(schedule.plan(child, PRIMARY, 1))
        with pytest.raises(ValueError):
            schedule.unassign(root)

    def test_unassign_unmapped_rejected(self, schedule):
        with pytest.raises(ValueError):
            schedule.unassign(0)

    def test_unassign_reholds_parent_reserve(self, schedule):
        dag = schedule.scenario.dag
        root = dag.roots[0]
        child = next((c for c in dag.children[root] if len(dag.parents[c]) == 1), None)
        if child is None:
            pytest.skip("no single-parent child")
        schedule.commit(schedule.plan(root, PRIMARY, 0))
        held_before_child = schedule.reserved_energy(0)
        schedule.commit(schedule.plan(child, PRIMARY, 1))
        schedule.unassign(child)
        assert schedule.reserved_energy(0) == pytest.approx(held_before_child)

    def test_plan_commit_unassign_roundtrip_energy(self, schedule):
        dag = schedule.scenario.dag
        root = dag.roots[0]
        child = next((c for c in dag.children[root] if len(dag.parents[c]) == 1), None)
        if child is None:
            pytest.skip("no single-parent child")
        schedule.commit(schedule.plan(root, PRIMARY, 0))
        base = schedule.total_energy_consumed
        schedule.commit(schedule.plan(child, PRIMARY, 1))
        schedule.unassign(child)
        assert schedule.total_energy_consumed == pytest.approx(base)


    def test_unassign_moves_aet_only_with_the_latest_finish(self, schedule):
        _map_all_greedy(schedule)
        dag = schedule.scenario.dag
        finish = {t: a.finish for t, a in schedule.assignments.items()}
        sinks = sorted(
            (t for t in finish if not dag.children[t]), key=finish.__getitem__
        )
        aet = schedule.makespan
        assert finish[sinks[-1]] == aet  # a parent always finishes first
        schedule.unassign(sinks[0])
        assert schedule.makespan == aet
        schedule.unassign(sinks[-1])
        next_finish = max(a.finish for a in schedule.assignments.values())
        assert next_finish < aet
        assert schedule.makespan == next_finish


class TestExternalDebits:
    def test_debit_external_counts(self, schedule):
        schedule.debit_external(0, 5.0)
        assert schedule.total_energy_consumed == pytest.approx(5.0)
        assert schedule.external_debits[0] == pytest.approx(5.0)
        assert schedule.available_energy(0) == pytest.approx(
            schedule.scenario.grid[0].battery - 5.0
        )

    def test_validation_accounts_external(self, schedule):
        schedule.debit_external(0, 2.0)
        validate_schedule(schedule)
