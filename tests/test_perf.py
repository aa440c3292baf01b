"""Tests for the performance-counter registry (:mod:`repro.perf`)."""

from __future__ import annotations

import json

import pytest

from repro.core.slrh import SLRH1, SlrhConfig
from repro.perf import (
    PERF_SCHEMA,
    Histogram,
    PerfCounters,
    merge_snapshots,
    write_perf_json,
)


class TestPerfCounters:
    def test_inc_creates_and_accumulates(self):
        c = PerfCounters()
        assert "x" not in c
        c.inc("x")
        c.inc("x", 2.5)
        assert c.get("x") == 3.5
        assert "x" in c
        assert len(c) == 1

    def test_timer_accumulates_wall_time(self):
        c = PerfCounters()
        with c.timer("t"):
            pass
        with c.timer("t"):
            pass
        assert c.get("t") >= 0.0
        assert len(c) == 1

    def test_snapshot_is_independent_copy(self):
        c = PerfCounters({"a": 1.0})
        snap = c.snapshot()
        c.inc("a")
        assert snap == {"a": 1.0}
        assert c.get("a") == 2.0

    def test_merge_adds_counters(self):
        c = PerfCounters({"a": 1.0, "b": 2.0})
        c.merge(PerfCounters({"a": 10.0, "c": 3.0}))
        c.merge({"b": 0.5})
        assert c.snapshot() == {"a": 11.0, "b": 2.5, "c": 3.0}

    def test_clear(self):
        c = PerfCounters({"a": 1.0})
        c.clear()
        assert len(c) == 0


class TestAggregation:
    def test_merge_snapshots(self):
        merged = merge_snapshots([{"a": 1.0}, {}, {"a": 2.0, "b": 1.0}])
        assert merged == {"a": 3.0, "b": 1.0}


class TestWritePerfJson:
    def test_schema_layout(self, tmp_path):
        path = tmp_path / "perf.json"
        counters = {"plan.pairs": 10.0, "pool.builds": 6.0, "commit.count": 2.0}
        doc = write_perf_json(path, counters, scale="SMOKE", jobs=2)
        on_disk = json.loads(path.read_text())
        assert on_disk.keys() == doc.keys() == {"schema", "context", "counters"}
        assert on_disk["counters"] == doc["counters"]
        assert doc["schema"] == PERF_SCHEMA
        assert doc["context"] == {"scale": "SMOKE", "jobs": 2}
        assert doc["counters"] == counters


class TestGauges:
    def test_set_and_snapshot(self):
        c = PerfCounters()
        c.set_gauge("queue.depth", 3)
        c.set_gauge("queue.depth", 5)  # last write wins
        assert c.gauge("queue.depth") == 5.0
        snap = c.gauges_snapshot()
        c.set_gauge("queue.depth", 9)
        assert snap == {"queue.depth": 5.0}

    def test_merge_updates_gauges(self):
        a = PerfCounters()
        a.set_gauge("g", 1.0)
        b = PerfCounters()
        b.set_gauge("g", 2.0)
        b.set_gauge("h", 7.0)
        a.merge(b)
        assert a.gauge("g") == 2.0
        assert a.gauge("h") == 7.0


class TestHistogram:
    def test_percentiles_nearest_rank(self):
        h = Histogram()
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        assert h.percentile(50.0) == 50.0
        assert h.percentile(95.0) == 95.0
        assert h.percentile(99.0) == 99.0
        assert h.mean == pytest.approx(50.5)

    def test_summary_ordering(self):
        h = Histogram()
        for v in (0.4, 0.1, 0.9, 0.2, 0.7):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 5
        assert s["p50"] <= s["p95"] <= s["p99"]
        assert s["sum"] == pytest.approx(2.3)

    def test_merge(self):
        a = Histogram()
        a.observe(1.0)
        b = Histogram()
        b.observe(3.0)
        a.merge(b)
        assert a.summary()["count"] == 2
        assert a.mean == pytest.approx(2.0)

    def test_counters_observe_and_merge_histograms(self):
        a = PerfCounters()
        a.observe("lat", 0.5)
        b = PerfCounters()
        b.observe("lat", 1.5)
        a.merge(b)
        summary = a.histograms_summary()
        assert summary["lat"]["count"] == 2
        assert summary["lat"]["mean"] == pytest.approx(1.0)

    def test_latency_timer_observes(self):
        c = PerfCounters()
        with c.latency_timer("t"):
            pass
        assert c.histograms_summary()["t"]["count"] == 1

    def test_percentiles_exact_below_maxlen(self):
        """Until the reservoir overflows, every percentile is an exact
        nearest-rank member of the observed multiset (no interpolation,
        no compression loss) — regardless of arrival order."""
        h = Histogram(maxlen=1000)
        values = [float(v) for v in range(1, 201)]
        for v in reversed(values):  # worst-case arrival order
            h.observe(v)
        assert h.percentile(50.0) == 100.0
        assert h.percentile(95.0) == 190.0
        assert h.percentile(99.0) == 198.0
        assert h.percentile(0.0) == 1.0
        assert h.percentile(100.0) == 200.0
        assert all(h.percentile(q) in values for q in (10.0, 33.0, 66.6, 87.5))

    def test_compression_is_deterministic_and_keeps_shape(self):
        """Overflow compresses by sorting and keeping every second element:
        no RNG, so replaying the same observation sequence retains the
        identical sample set — percentiles are reproducible run-to-run."""
        values = [float((v * 37) % 101) for v in range(200)]

        def build():
            h = Histogram(maxlen=64)
            for v in values:
                h.observe(v)
            return h

        a, b = build(), build()
        assert a.count == b.count == 200
        assert a._obs == b._obs  # bit-identical retained samples
        for q in (50.0, 95.0, 99.0):
            assert a.percentile(q) == b.percentile(q)
        # compression halves memory but keeps the retained minimum;
        # count/sum/mean stay exact over the histogram's lifetime
        assert len(a._obs) <= 64
        assert min(a._obs) == min(values)
        assert a.total == pytest.approx(sum(values))
        assert a.mean == pytest.approx(sum(values) / 200)

    def test_merge_is_commutative_after_compression(self):
        """a.merge(b) and b.merge(a) retain identical samples even when the
        merge itself triggers compression (the docstring's contract)."""
        left = [float(v) for v in range(0, 120)]
        right = [float(v) for v in range(500, 560)]

        def build(values, maxlen=128):
            h = Histogram(maxlen=maxlen)
            for v in values:
                h.observe(v)
            return h

        ab = build(left).merge(build(right))
        ba = build(right).merge(build(left))
        assert ab.count == ba.count == 180
        assert sorted(ab._obs) == sorted(ba._obs)  # merge compressed: >128 obs
        assert len(ab._obs) <= 128
        for q in (1.0, 50.0, 95.0, 99.0, 100.0):
            assert ab.percentile(q) == ba.percentile(q)


class TestWritePerfJsonParents:
    def test_creates_missing_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "dir" / "perf.json"
        assert not path.parent.exists()
        write_perf_json(path, {"plan.pairs": 1.0})
        assert json.loads(path.read_text())["counters"] == {"plan.pairs": 1.0}


class TestTraceIntegration:
    def test_mapping_snapshots_counters(self, tiny_scenario, mid_weights):
        result = SLRH1(SlrhConfig(weights=mid_weights)).map(tiny_scenario)
        perf = result.perf
        assert perf["map.runs"] == 1.0
        assert perf["plan.pairs"] > 0
        assert perf["commit.count"] == len(result.schedule.assignments)
        assert perf["map.seconds"] > 0.0
        # Snapshot, not a live view: mutating the schedule's registry
        # afterwards must not change the trace.
        result.schedule.perf.inc("plan.pairs", 1000.0)
        assert result.perf["plan.pairs"] == perf["plan.pairs"]
