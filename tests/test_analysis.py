"""Schedule analytics: stats, energy profiles, Gantt rendering."""

import pytest

from repro.analysis import compute_stats, energy_profile, render_gantt
from repro.core.slrh import SLRH1
from repro.sim.schedule import Schedule


@pytest.fixture(scope="module")
def result(small_scenario, mid_config):
    return SLRH1(mid_config).map(small_scenario)


class TestStats:
    def test_counts_match_schedule(self, result):
        stats = compute_stats(result.schedule)
        assert stats.n_mapped == result.schedule.n_mapped
        assert stats.t100 == result.t100
        assert stats.makespan == pytest.approx(result.aet)
        assert sum(stats.tasks_per_machine) == stats.n_mapped

    def test_load_matches_timelines(self, result):
        stats = compute_stats(result.schedule)
        for j, load in enumerate(stats.load):
            assert load == pytest.approx(result.schedule.machine_load(j))

    def test_load_is_committed_execution_time(self, result):
        sched = result.schedule
        busy = [0.0] * sched.scenario.n_machines
        for a in sched.assignments.values():
            busy[a.machine] += a.duration
        assert compute_stats(sched).load == pytest.approx(tuple(busy))

    def test_utilisation_bounded(self, result):
        stats = compute_stats(result.schedule)
        assert all(0.0 <= u <= 1.0 + 1e-9 for u in stats.utilisation)

    def test_imbalance_at_least_one(self, result):
        assert compute_stats(result.schedule).imbalance >= 1.0 - 1e-9

    def test_energy_fraction_bounded(self, result):
        stats = compute_stats(result.schedule)
        assert all(0.0 <= f <= 1.0 + 1e-9 for f in stats.energy_fraction)

    def test_version_mix(self, result):
        stats = compute_stats(result.schedule)
        assert stats.version_mix == pytest.approx(stats.t100 / stats.n_mapped)

    def test_empty_schedule(self, small_scenario):
        stats = compute_stats(Schedule(small_scenario))
        assert stats.n_mapped == 0
        assert stats.version_mix == 0.0
        assert stats.imbalance == 1.0


class TestEnergyProfile:
    def test_final_value_matches_ledger(self, result):
        profile = energy_profile(result.schedule)
        sched = result.schedule
        for j in range(sched.scenario.n_machines):
            assert profile.consumed[j][-1] == pytest.approx(
                sched.energy.consumed(j), rel=1e-6, abs=1e-9
            )

    def test_monotone_nondecreasing(self, result):
        profile = energy_profile(result.schedule)
        for series in profile.consumed:
            for a, b in zip(series, series[1:]):
                assert b >= a - 1e-9

    def test_at_interpolates(self, result):
        profile = energy_profile(result.schedule)
        t_mid = profile.times[-1] / 2
        v = profile.at(0, t_mid)
        assert 0.0 <= v <= profile.consumed[0][-1] + 1e-9

    def test_at_boundaries(self, result):
        profile = energy_profile(result.schedule)
        assert profile.at(0, -5.0) == 0.0
        assert profile.at(0, profile.times[-1] + 100) == profile.consumed[0][-1]

    def test_resampled(self, result):
        profile = energy_profile(result.schedule, samples=7)
        assert len(profile.times) == 7


class TestGantt:
    def test_renders_all_machines(self, result):
        text = render_gantt(result.schedule)
        for machine in result.schedule.scenario.grid:
            assert machine.name in text

    def test_channels_rows(self, result):
        text = render_gantt(result.schedule, channels=True)
        assert "out" in text

    def test_width_respected(self, result):
        text = render_gantt(result.schedule, width=50)
        for line in text.splitlines()[1:]:
            assert len(line) <= 50 + 20  # name column + bars

    def test_bad_width_rejected(self, result):
        with pytest.raises(ValueError):
            render_gantt(result.schedule, width=5)

    def test_empty_schedule(self, small_scenario):
        text = render_gantt(Schedule(small_scenario))
        assert "fast-0" in text
