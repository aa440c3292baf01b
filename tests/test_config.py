"""Grid configurations: Table 1 cases and grid algebra."""

import pytest

from repro.grid.config import CASE_A, CASE_B, CASE_C, PAPER_CASES, GridConfig, make_case
from repro.grid.machine import FAST_MACHINE, MachineClass


class TestPaperCases:
    def test_case_a_counts(self):
        assert len(CASE_A.fast_indices) == 2
        assert len(CASE_A.slow_indices) == 2

    def test_case_b_counts(self):
        assert len(CASE_B.fast_indices) == 2
        assert len(CASE_B.slow_indices) == 1

    def test_case_c_counts(self):
        assert len(CASE_C.fast_indices) == 1
        assert len(CASE_C.slow_indices) == 2

    def test_machine_zero_is_fast_everywhere(self):
        for case in PAPER_CASES.values():
            assert case[0].machine_class is MachineClass.FAST

    def test_registry_keys(self):
        assert sorted(PAPER_CASES) == ["A", "B", "C"]

    def test_case_a_tse(self):
        # 2×580 + 2×58
        assert CASE_A.total_system_energy == pytest.approx(1276.0)

    def test_min_bandwidth_is_slow(self):
        assert CASE_A.min_bandwidth == pytest.approx(4e6)


class TestMakeCase:
    def test_ordering_fast_first(self):
        g = make_case(1, 2)
        assert g[0].machine_class is MachineClass.FAST
        assert g[1].machine_class is MachineClass.SLOW

    def test_names_unique(self):
        g = make_case(2, 2)
        assert len({m.name for m in g}) == 4

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            make_case(0, 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            make_case(-1, 2)


class TestGridAlgebra:
    def test_battery_scale(self):
        g = CASE_A.with_battery_scale(0.25)
        assert g.total_system_energy == pytest.approx(1276.0 * 0.25)
        assert len(g) == 4

    def test_iteration_and_indexing(self):
        assert list(CASE_A)[0] is CASE_A[0]
        assert CASE_A.n_machines == len(CASE_A) == 4

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            GridConfig(machines=())

    def test_fast_slow_indices_disjoint_cover(self):
        idx = set(CASE_A.fast_indices) | set(CASE_A.slow_indices)
        assert idx == set(range(4))
