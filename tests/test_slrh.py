"""SLRH variants: loop mechanics, horizon discipline, variant differences."""

import pytest

from repro.core.slrh import SLRH1, SLRH2, SLRH3, SlrhConfig
from repro.core.objective import Weights
from repro.sim.validate import validate_schedule

ALL_VARIANTS = (SLRH1, SLRH2, SLRH3)


class TestBasicRuns:
    @pytest.mark.parametrize("cls", ALL_VARIANTS)
    def test_produces_valid_schedule(self, cls, small_scenario, mid_config):
        result = cls(mid_config).map(small_scenario)
        validate_schedule(result.schedule)
        assert result.heuristic == cls.name
        assert result.heuristic_seconds > 0.0

    @pytest.mark.parametrize("cls", ALL_VARIANTS)
    def test_loose_scenario_fully_mapped_primary(self, cls, loose_scenario):
        config = SlrhConfig(weights=Weights.from_alpha_beta(0.8, 0.1))
        result = cls(config).map(loose_scenario)
        assert result.complete
        assert result.t100 == loose_scenario.n_tasks
        validate_schedule(result.schedule, require_complete=True)

    @pytest.mark.parametrize("cls", ALL_VARIANTS)
    def test_deterministic(self, cls, tiny_scenario, mid_config):
        a = cls(mid_config).map(tiny_scenario)
        b = cls(mid_config).map(tiny_scenario)
        assert a.schedule.summary() == b.schedule.summary()

    def test_registry(self):
        from repro.heuristics import SLRH_FAMILY, make_scheduler

        built = [type(make_scheduler(name)) for name in SLRH_FAMILY]
        assert built == list(ALL_VARIANTS)
        assert [cls.name for cls in ALL_VARIANTS] == ["SLRH-1", "SLRH-2", "SLRH-3"]
        assert type(make_scheduler("SLRH-2")) is SLRH2  # display names resolve


class TestClockDiscipline:
    def test_nothing_scheduled_before_clock_zero(self, small_scenario, mid_config):
        result = SLRH1(mid_config).map(small_scenario)
        for a in result.schedule.assignments.values():
            assert a.start >= -1e-9
            for c in a.comms:
                assert c.start >= -1e-9

    def test_stops_at_tau(self, small_scenario, mid_weights):
        tight = small_scenario.with_tau(1.0)  # absurdly tight
        result = SLRH1(SlrhConfig(weights=mid_weights)).map(tight)
        assert not result.complete or result.schedule.makespan <= 1.0 + 1e-9
        # The clock never runs meaningfully past tau.
        assert result.trace.ticks <= 3

    def test_resume_from_cycle(self, small_scenario, mid_config):
        result = SLRH1(mid_config).map(small_scenario, start_cycle=500)
        for a in result.schedule.assignments.values():
            assert a.start >= 50.0 - 1e-9

    def test_wrong_schedule_scenario_rejected(self, small_scenario, tiny_scenario, mid_config):
        from repro.sim.schedule import Schedule

        with pytest.raises(ValueError):
            SLRH1(mid_config).map(small_scenario, schedule=Schedule(tiny_scenario))


class TestVariantMechanics:
    def test_slrh1_one_assignment_per_machine_per_tick(self, small_scenario, mid_config):
        result = SLRH1(mid_config).map(small_scenario)
        per_tick_machine: dict[tuple[float, int], int] = {}
        for rec in result.trace.records:
            key = (rec.clock, rec.machine)
            per_tick_machine[key] = per_tick_machine.get(key, 0) + 1
        assert all(v == 1 for v in per_tick_machine.values())

    def test_slrh3_can_assign_multiple_per_tick(self, small_scenario):
        # With a generous horizon SLRH-3 batches several assignments onto
        # one machine within a single tick.
        config = SlrhConfig(
            weights=Weights.from_alpha_beta(0.5, 0.2), horizon_cycles=100000
        )
        result = SLRH3(config).map(small_scenario)
        per_tick_machine: dict[tuple[float, int], int] = {}
        for rec in result.trace.records:
            key = (rec.clock, rec.machine)
            per_tick_machine[key] = per_tick_machine.get(key, 0) + 1
        assert max(per_tick_machine.values()) > 1

    def test_variants_differ_under_pressure(self, small_scenario, mid_config):
        r1 = SLRH1(mid_config).map(small_scenario)
        r3 = SLRH3(mid_config).map(small_scenario)
        # Different inner loops must leave different fingerprints.
        a1 = {(t, a.machine) for t, a in r1.schedule.assignments.items()}
        a3 = {(t, a.machine) for t, a in r3.schedule.assignments.items()}
        assert a1 != a3


class TestHorizon:
    def test_tiny_horizon_limits_lookahead(self, small_scenario, mid_weights):
        config = SlrhConfig(weights=mid_weights, horizon_cycles=1)
        result = SLRH1(config).map(small_scenario)
        # Every committed assignment had data_ready within one cycle of its
        # commit-time clock; we can't observe data_ready post hoc, but the
        # run must still be valid and makespan-bounded.
        validate_schedule(result.schedule)

    def test_result_metrics(self, small_scenario, mid_config):
        r = SLRH1(mid_config).map(small_scenario)
        s = r.summary()
        assert s["heuristic"] == "SLRH-1"
        assert s["t100"] == r.t100
        assert s["alpha"] == pytest.approx(r.weights.alpha)
        assert r.value_per_second() >= 0.0


class TestMachineOrder:
    @pytest.mark.parametrize("order", ["index", "battery", "round_robin"])
    def test_orders_produce_valid_schedules(self, order, small_scenario, mid_weights):
        config = SlrhConfig(weights=mid_weights, machine_order=order)
        result = SLRH1(config).map(small_scenario)
        validate_schedule(result.schedule)

    def test_unknown_order_rejected(self, small_scenario, mid_weights):
        config = SlrhConfig(weights=mid_weights, machine_order="random")
        with pytest.raises(ValueError):
            SLRH1(config).map(small_scenario)

    def test_orders_change_the_mapping(self, small_scenario, mid_weights):
        base = SLRH1(SlrhConfig(weights=mid_weights)).map(small_scenario)
        rr = SLRH1(
            SlrhConfig(weights=mid_weights, machine_order="round_robin")
        ).map(small_scenario)
        a = {(t, x.machine) for t, x in base.schedule.assignments.items()}
        b = {(t, x.machine) for t, x in rr.schedule.assignments.items()}
        assert a != b


class TestConfigValidation:
    def test_aet_mode_forwarded(self, small_scenario, mid_weights):
        config = SlrhConfig(weights=mid_weights, aet_mode="clamp")
        result = SLRH1(config).map(small_scenario)
        validate_schedule(result.schedule)

    def test_bad_aet_mode_raises(self, small_scenario, mid_weights):
        config = SlrhConfig(weights=mid_weights, aet_mode="nope")
        with pytest.raises(ValueError):
            SLRH1(config).map(small_scenario)
