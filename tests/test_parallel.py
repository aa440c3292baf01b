"""Tests for the process-pool fan-out (:mod:`repro.util.parallel`) and for
the determinism contract of the drivers built on it: any ``n_jobs`` must
reproduce the serial results exactly."""

from __future__ import annotations

import pytest

from repro.core.slrh import SLRH1, SlrhConfig
from repro.tuning.sweeps import sweep_delta_t
from repro.tuning.weight_search import search_weights
from repro.util.parallel import parallel_starmap, resolve_jobs


def _mul(a, b):
    return a * b


class TestResolveJobs:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3
        monkeypatch.setenv("REPRO_JOBS", "  ")
        assert resolve_jobs() == 1

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(2) == 2

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            resolve_jobs(bad)

    def test_auto_argument_resolves_to_cpu_count(self):
        import os

        assert resolve_jobs("auto") == (os.cpu_count() or 1)
        assert resolve_jobs("AUTO") == (os.cpu_count() or 1)

    def test_auto_env_variable(self, monkeypatch):
        import os

        monkeypatch.setenv("REPRO_JOBS", "auto")
        assert resolve_jobs() == (os.cpu_count() or 1)
        monkeypatch.setenv("REPRO_JOBS", " Auto ")
        assert resolve_jobs() == (os.cpu_count() or 1)

    def test_numeric_string_argument(self):
        assert resolve_jobs("3") == 3

    def test_rejects_garbage_strings(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_jobs("many")
        monkeypatch.setenv("REPRO_JOBS", "lots")
        with pytest.raises(ValueError):
            resolve_jobs()


class TestParallelStarmap:
    def test_serial_path(self):
        args = [(i, i + 1) for i in range(5)]
        assert parallel_starmap(_mul, args, n_jobs=1) == [i * (i + 1) for i in range(5)]

    def test_parallel_matches_serial_and_preserves_order(self):
        args = [(i, 7) for i in range(20)]
        serial = parallel_starmap(_mul, args, n_jobs=1)
        fanned = parallel_starmap(_mul, args, n_jobs=2)
        assert fanned == serial == [7 * i for i in range(20)]

    def test_empty_input(self):
        assert parallel_starmap(_mul, [], n_jobs=2) == []


def _slrh1_factory(weights):
    return SLRH1(SlrhConfig(weights=weights))


class TestDriverDeterminism:
    def test_search_weights_jobs_invariant(self, tiny_scenario):
        serial = search_weights(
            tiny_scenario, _slrh1_factory, coarse_step=0.25, fine=False, n_jobs=1
        )
        fanned = search_weights(
            tiny_scenario, _slrh1_factory, coarse_step=0.25, fine=False, n_jobs=2
        )
        assert fanned.best_weights == serial.best_weights
        assert fanned.evaluations == serial.evaluations
        assert fanned.accepted == serial.accepted
        # Mapping outcomes are identical; only wall-clock timing may differ.
        strip = lambda s: {k: v for k, v in s.items() if k != "heuristic_seconds"}
        assert strip(fanned.best_result.summary()) == strip(serial.best_result.summary())
        assert fanned.perf.keys() == serial.perf.keys()

    def test_sweep_jobs_invariant(self, tiny_scenario, mid_weights):
        serial = sweep_delta_t(
            SLRH1, tiny_scenario, mid_weights, values=(5, 10, 20), n_jobs=1
        )
        fanned = sweep_delta_t(
            SLRH1, tiny_scenario, mid_weights, values=(5, 10, 20), n_jobs=2
        )
        assert [(p.value, p.t100, p.success, p.ticks) for p in fanned] == [
            (p.value, p.t100, p.success, p.ticks) for p in serial
        ]
