"""Scenario bundling, case subsetting, and the proportional-shrink protocol."""

import numpy as np
import pytest

from repro.grid.machine import MachineClass
from repro.workload.scenario import (
    CASE_COLUMNS,
    PAPER_N_TASKS,
    PAPER_TAU,
    Scenario,
    ScenarioSpec,
    generate_scenario,
    paper_scaled_grid,
    paper_scaled_spec,
    paper_scaled_suite,
)


class TestScenarioSpec:
    def test_defaults_are_paper_scale(self):
        spec = ScenarioSpec()
        assert spec.n_tasks == 1024
        assert spec.tau == PAPER_TAU

    def test_dag_spec_follows_n_tasks(self):
        spec = ScenarioSpec(n_tasks=50)
        assert spec.dag.n_tasks == 50

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ScenarioSpec(n_tasks=0)
        with pytest.raises(ValueError):
            ScenarioSpec(tau=0.0)


class TestScenario:
    def test_shape_checked(self, tiny_scenario):
        with pytest.raises(ValueError):
            Scenario(
                grid=tiny_scenario.grid,
                etc=tiny_scenario.etc[:, :2],
                dag=tiny_scenario.dag,
                data_sizes=tiny_scenario.data_sizes,
                tau=tiny_scenario.tau,
            )

    def test_missing_data_size_rejected(self, tiny_scenario):
        edges = tiny_scenario.dag.edges()
        if not edges:
            pytest.skip("no edges")
        broken = dict(tiny_scenario.data_sizes)
        del broken[edges[0]]
        with pytest.raises(ValueError):
            Scenario(
                grid=tiny_scenario.grid,
                etc=tiny_scenario.etc,
                dag=tiny_scenario.dag,
                data_sizes=broken,
                tau=tiny_scenario.tau,
            )

    def test_with_tau(self, tiny_scenario):
        s = tiny_scenario.with_tau(123.0)
        assert s.tau == 123.0
        assert s.etc is tiny_scenario.etc

    def test_reproducible(self):
        spec = ScenarioSpec(n_tasks=20)
        a = generate_scenario(spec, seed=5)
        b = generate_scenario(spec, seed=5)
        assert np.array_equal(a.etc, b.etc)
        assert a.dag.edges() == b.dag.edges()
        assert a.data_sizes == b.data_sizes


class TestSuite:
    def test_dimensions(self, tiny_suite):
        assert tiny_suite.n_etc == 2
        assert tiny_suite.n_dag == 2

    def test_case_columns(self):
        assert CASE_COLUMNS["A"] == (0, 1, 2, 3)
        assert CASE_COLUMNS["B"] == (0, 1, 2)
        assert CASE_COLUMNS["C"] == (0, 2, 3)

    def test_case_b_drops_slow(self, tiny_suite):
        grid = tiny_suite.case_grid("B")
        classes = [m.machine_class for m in grid]
        assert classes.count(MachineClass.FAST) == 2
        assert classes.count(MachineClass.SLOW) == 1

    def test_case_c_drops_fast_keeps_reference(self, tiny_suite):
        grid = tiny_suite.case_grid("C")
        assert grid[0].machine_class is MachineClass.FAST
        assert len(grid) == 3

    def test_same_workload_across_cases(self, tiny_suite):
        a = tiny_suite.scenario(0, 0, "A")
        c = tiny_suite.scenario(0, 0, "C")
        # Case C keeps master columns (0, 2, 3).
        np.testing.assert_array_equal(c.etc[:, 0], a.etc[:, 0])
        np.testing.assert_array_equal(c.etc[:, 1], a.etc[:, 2])
        assert a.dag is c.dag
        assert a.data_sizes is c.data_sizes

    def test_unknown_case_rejected(self, tiny_suite):
        with pytest.raises(KeyError):
            tiny_suite.case_grid("D")
        with pytest.raises(KeyError):
            tiny_suite.scenario(0, 0, "Z")

    def test_scenarios_iterator_count(self, tiny_suite):
        assert len(list(tiny_suite.scenarios("A"))) == 4

    def test_etc_matrices_differ(self, tiny_suite):
        assert not np.array_equal(tiny_suite.etcs[0], tiny_suite.etcs[1])

    def test_dags_differ(self, tiny_suite):
        assert tiny_suite.dags[0].edges() != tiny_suite.dags[1].edges()


class TestProportionalShrink:
    def test_tau_scales(self):
        spec = paper_scaled_spec(128)
        assert spec.tau == pytest.approx(PAPER_TAU * 128 / PAPER_N_TASKS)

    def test_battery_scales(self):
        grid = paper_scaled_grid(256)
        assert grid[0].battery == pytest.approx(580.0 * 256 / 1024)

    def test_override_forwarded(self):
        spec = paper_scaled_spec(64, tau=999.0)
        assert spec.tau == 999.0

    def test_suite_consistency(self):
        suite = paper_scaled_suite(32, n_etc=1, n_dag=1, seed=0)
        sc = suite.scenario(0, 0, "A")
        assert sc.n_tasks == 32
        assert sc.tau == pytest.approx(PAPER_TAU * 32 / 1024)
        assert sc.grid[0].battery == pytest.approx(580.0 * 32 / 1024)

    def test_regime_fast_energy_bound(self):
        """The paper's regime: a fast machine's battery covers well under τ
        seconds of computation, a slow machine's well over τ."""
        grid = paper_scaled_grid(64)
        tau = paper_scaled_spec(64).tau
        fast_seconds = grid[0].battery / grid[0].compute_rate
        slow_seconds = grid[2].battery / grid[2].compute_rate
        assert fast_seconds < tau
        assert slow_seconds > tau
