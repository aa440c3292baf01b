"""ΔT and H sweeps (Figure 2 machinery)."""

import statistics
import time

import pytest

from repro.core.slrh import SLRH1, SlrhConfig
from repro.tuning.sweeps import sweep_delta_t, sweep_horizon


class TestDeltaTSweep:
    @pytest.fixture(scope="class")
    def points(self, small_scenario, mid_weights):
        return sweep_delta_t(
            SLRH1, small_scenario, mid_weights, values=(1, 10, 100)
        )

    def test_one_point_per_value(self, points):
        assert [p.value for p in points] == [1, 10, 100]

    def test_small_delta_t_more_ticks(self, points):
        by_value = {p.value: p for p in points}
        assert by_value[1].ticks > by_value[100].ticks

    def test_small_delta_t_slower_heuristic(self, small_scenario, mid_weights):
        """Figure 2's runtime claim, asserted on the paper's algorithm:
        the ``rebuild`` kernel re-derives every pool each tick, so ΔT =
        10 costs ~6x the CPU of ΔT = 100 here.  (The columnar kernel
        fast-forwards empty ticks, which removes most of that cost.)
        Process-CPU medians of 3 alternating maps per ΔT."""

        def cpu_seconds(delta_t: int) -> float:
            config = SlrhConfig(
                weights=mid_weights, delta_t_cycles=delta_t, kernel="rebuild"
            )
            started = time.process_time()
            SLRH1(config).map(small_scenario)
            return time.process_time() - started

        samples: dict[int, list[float]] = {10: [], 100: []}
        for _ in range(3):
            for delta_t, times in samples.items():
                times.append(cpu_seconds(delta_t))
        fine, coarse = (statistics.median(samples[v]) for v in (10, 100))
        assert fine > 2 * coarse, samples

    def test_point_fields_consistent(self, points):
        for p in points:
            assert 0 <= p.t100 <= p.mapped
            assert p.aet >= 0
            assert p.heuristic_seconds > 0


class TestTauSlackSweep:
    @pytest.fixture(scope="class")
    def points(self, small_scenario, mid_weights):
        from repro.tuning.sweeps import sweep_tau_slack

        return sweep_tau_slack(
            SLRH1, small_scenario, mid_weights, slacks=(0.25, 1.0, 4.0)
        )

    def test_values_are_percentages(self, points):
        assert [p.value for p in points] == [25, 100, 400]

    def test_generous_budget_completes(self, points, small_scenario):
        assert points[-1].mapped == small_scenario.n_tasks

    def test_tight_budget_worse_or_equal(self, points):
        assert points[0].mapped <= points[-1].mapped

    def test_bad_slack_rejected(self, small_scenario, mid_weights):
        from repro.tuning.sweeps import sweep_tau_slack

        with pytest.raises(ValueError):
            sweep_tau_slack(SLRH1, small_scenario, mid_weights, slacks=(0.0,))


class TestChooseDeltaT:
    def test_picks_a_swept_value(self, small_scenario, mid_weights):
        from repro.tuning.sweeps import choose_delta_t

        chosen, points = choose_delta_t(
            SLRH1, small_scenario, mid_weights, values=(1, 10, 100)
        )
        assert chosen in (1, 10, 100)
        assert len(points) == 3

    def test_prefers_cheap_over_expensive_at_equal_quality(
        self, small_scenario, mid_weights
    ):
        from repro.tuning.sweeps import choose_delta_t

        chosen, points = choose_delta_t(
            SLRH1, small_scenario, mid_weights, values=(1, 10, 100),
            t100_tolerance=1.0,  # any T100 acceptable -> cheapest wins
        )
        successes = [p for p in points if p.success] or points
        cheapest = min(successes, key=lambda p: (p.heuristic_seconds, p.value))
        assert chosen == cheapest.value

    def test_falls_back_when_nothing_succeeds(self, small_scenario, mid_weights):
        from repro.tuning.sweeps import choose_delta_t

        impossible = small_scenario.with_tau(1.0)
        chosen, points = choose_delta_t(
            SLRH1, impossible, mid_weights, values=(5, 50)
        )
        assert chosen in (5, 50)


class TestHorizonSweep:
    def test_values_recorded(self, small_scenario, mid_weights):
        points = sweep_horizon(
            SLRH1, small_scenario, mid_weights, values=(50, 100, 1000)
        )
        assert [p.value for p in points] == [50, 100, 1000]

    def test_horizon_negligible_effect_on_t100(self, small_scenario, mid_weights):
        """The paper found H to have negligible impact; at our scale results
        across a 20× H range should differ by at most a few subtasks."""
        points = sweep_horizon(
            SLRH1, small_scenario, mid_weights, values=(50, 1000)
        )
        assert abs(points[0].t100 - points[1].t100) <= small_scenario.n_tasks * 0.25
