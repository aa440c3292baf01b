"""Cross-module integration: the full paper pipeline at miniature scale."""

import pytest

from repro import (
    SLRH1,
    SLRH3,
    MaxMaxConfig,
    MaxMaxScheduler,
    SlrhConfig,
    Weights,
    upper_bound,
    validate_schedule,
)
from repro.analysis import compute_stats
from repro.baselines.greedy import calibrate_tau
from repro.core.pool import build_candidate_pool
from repro.io.serialization import mapping_from_dict, mapping_to_dict
from repro.tuning.weight_search import search_weights


class TestSuitePipeline:
    """Generate suite → per-case scenarios → map → validate → compare."""

    @pytest.fixture(scope="class")
    def suite(self, tiny_suite):
        return tiny_suite

    @pytest.mark.parametrize("case", ["A", "B", "C"])
    def test_all_heuristics_validate_everywhere(self, suite, case, mid_weights):
        for scenario in suite.scenarios(case):
            for mapper in (
                SLRH1(SlrhConfig(weights=mid_weights)),
                SLRH3(SlrhConfig(weights=mid_weights)),
                MaxMaxScheduler(MaxMaxConfig(weights=mid_weights)),
            ):
                result = mapper.map(scenario)
                validate_schedule(result.schedule)

    def test_bound_dominates_all_accepted_runs(self, suite, mid_weights):
        for case in "ABC":
            scenario = suite.scenario(0, 0, case)
            bound = upper_bound(scenario).t100_bound
            for mapper in (
                SLRH1(SlrhConfig(weights=mid_weights)),
                MaxMaxScheduler(MaxMaxConfig(weights=mid_weights)),
            ):
                result = mapper.map(scenario)
                if result.success:
                    assert result.t100 <= bound

    def test_replay_of_every_mapping(self, suite, mid_weights):
        # Loading a mapping replays it through commit and full validation;
        # the replay lands on the same calendars.
        scenario = suite.scenario(1, 1, "A")
        result = SLRH1(SlrhConfig(weights=mid_weights)).map(scenario)
        restored = mapping_from_dict(mapping_to_dict(result.schedule), scenario)
        before, after = compute_stats(result.schedule), compute_stats(restored)
        assert after.makespan == before.makespan
        assert after.load == pytest.approx(before.load)


class TestTauCalibrationPipeline:
    def test_calibrated_tau_admits_slrh_solutions(self, small_scenario):
        tau = calibrate_tau(small_scenario, slack=1.5)
        scenario = small_scenario.with_tau(tau)
        res = search_weights(
            scenario,
            lambda w: SLRH1(SlrhConfig(weights=w)),
            coarse_step=0.25,
            fine=False,
        )
        assert res.succeeded


class TestEnergyConservation:
    def test_tec_equals_sum_of_assignment_energies(self, small_scenario, mid_weights):
        result = SLRH1(SlrhConfig(weights=mid_weights)).map(small_scenario)
        sched = result.schedule
        total = sum(a.energy for a in sched.assignments.values()) + sum(
            c.energy for a in sched.assignments.values() for c in a.comms
        )
        assert sched.total_energy_consumed == pytest.approx(total)

    def test_no_battery_exceeded_ever(self, small_scenario, mid_weights):
        result = SLRH1(SlrhConfig(weights=mid_weights)).map(small_scenario)
        sched = result.schedule
        for j in range(small_scenario.n_machines):
            assert sched.energy.consumed(j) <= small_scenario.grid[j].battery + 1e-9


class TestPoolScheduleAgreement:
    def test_pool_plans_commit_cleanly(self, small_scenario, mid_weights):
        """Every candidate the pool produces must be committable."""
        from repro.core.feasibility import FeasibilityChecker
        from repro.core.objective import ObjectiveFunction
        from repro.sim.schedule import Schedule

        schedule = Schedule(small_scenario)
        checker = FeasibilityChecker(small_scenario)
        objective = ObjectiveFunction.for_scenario(small_scenario, mid_weights)
        pool = build_candidate_pool(schedule, checker, objective, 0, not_before=0.0)
        assert pool
        schedule.commit(pool[0].plan)
        validate_schedule(schedule)
