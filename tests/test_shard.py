"""The shard layer (:mod:`repro.service.shard`, the sharded
:class:`~repro.service.jobs.ShardRouter`): process-resident shard RPC,
affine routing, spill-to-idle placement, fork ordering, crash
semantics, global admission under concurrency, the per-shard scenario
LRU, and the byte-identity contract across shard counts, heuristics and
kernel modes."""

from __future__ import annotations

import json
import multiprocessing.process
import os
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.heuristics import HEURISTIC_NAMES, generate_named_scenario
from repro.io.serialization import (
    canonical_json_bytes,
    mapping_to_dict,
    scenario_to_dict,
)
from repro.service.jobs import QueueFullError, ShardRouter
from repro.service.registry import ScenarioRegistry
from repro.service.shard import ProcessShard, ShardCrashedError
from repro.service.worker import (
    SCENARIO_CACHE_SIZE,
    SessionHost,
    _ScenarioCache,
    execute_mapping,
)
from repro.util.parallel import resolve_shards


def _scenario_doc(n_tasks=12, seed=3) -> dict:
    return scenario_to_dict(generate_named_scenario(n_tasks, seed))


def _bare_shard(index: int = 0) -> ProcessShard:
    """A shard outside any started router, driven by direct calls."""
    return ProcessShard(index, ShardRouter(ScenarioRegistry(), shards=1))


# ---------------------------------------------------------------------------
# shard-count resolution


class TestResolveShards:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        assert resolve_shards(None) == 1

    def test_env_and_explicit(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "3")
        assert resolve_shards(None) == 3
        assert resolve_shards(2) == 2  # explicit beats the environment
        assert resolve_shards("4") == 4

    def test_auto_uses_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        assert resolve_shards("auto") == (os.cpu_count() or 1)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            resolve_shards("many")
        with pytest.raises(ValueError):
            resolve_shards(0)


# ---------------------------------------------------------------------------
# the shard's pipe RPC


class TestShardProcess:
    def test_ping_roundtrip_and_stop(self):
        shard = _bare_shard(5)
        shard.start()
        try:
            assert shard.alive() and shard.pid is not None
            status, reply = shard.call("ping")
            assert status == "ok"
            assert reply["pid"] == shard.pid
            assert reply["sessions"] == 0
        finally:
            shard.close()
        assert not shard.alive()

    def test_crash_raises_instead_of_hanging(self):
        shard = _bare_shard()
        shard.start()
        try:
            with pytest.raises(ShardCrashedError):
                shard.call("exit", 3)  # os._exit in the child; no reply
            assert not shard.alive()
            # Every subsequent call fails fast too.
            with pytest.raises(ShardCrashedError):
                shard.call("ping")
        finally:
            shard.close()

    def test_start_is_idempotent(self):
        shard = _bare_shard()
        shard.start()
        try:
            pid = shard.pid
            shard.start()
            assert shard.pid == pid
        finally:
            shard.close()


# ---------------------------------------------------------------------------
# fork ordering: a fork clones only the calling thread


class TestForkOrdering:
    def test_no_dispatcher_thread_runs_at_any_fork(self, monkeypatch):
        """``ShardRouter.start`` forks every child before it starts any
        dispatcher thread, so no child inherits a lock held by one."""
        before = set(threading.enumerate())
        running_at_fork: list[list[str]] = []
        start = multiprocessing.process.BaseProcess.start

        def recording_start(process):
            running_at_fork.append(
                sorted(
                    t.name
                    for t in threading.enumerate()
                    if t not in before and t.name.startswith("repro-dispatcher-")
                )
            )
            return start(process)

        monkeypatch.setattr(
            multiprocessing.process.BaseProcess, "start", recording_start
        )
        manager = ShardRouter(ScenarioRegistry(), shards=3)
        try:
            manager.start()
            assert running_at_fork == [[], [], []]
            names = {t.name for t in threading.enumerate()}
            assert {f"repro-dispatcher-{k}" for k in range(3)} <= names
        finally:
            manager.close(drain_timeout=0)


# ---------------------------------------------------------------------------
# affine routing


class TestAffineRouting:
    def test_shard_of_is_digest_modulo(self):
        reg = ScenarioRegistry()
        manager = ShardRouter(reg, shards=4)
        sid, _ = reg.put(_scenario_doc())
        digest = int(sid.split(":", 1)[1], 16)
        assert manager.shard_of(sid) == digest % 4
        assert manager.shard_for(sid) is manager.shards[digest % 4]
        manager.close(drain_timeout=0)

    def test_same_scenario_always_same_shard(self):
        """Back-to-back misses from one client all run on the affine
        shard: a job whose ``done`` is set no longer counts as that
        shard's work, though its dispatcher has not yet cleared it."""
        reg = ScenarioRegistry()
        manager = ShardRouter(reg, shards=4, max_queue=64).start()
        # Hold each dispatcher after it has woken the client, until the
        # client's next miss is placed: the window in which the running
        # job is still set although it is done.
        record_finish = manager._record_finish
        next_placed = threading.Semaphore(0)

        def finish_then_hold(job, **result):
            record_finish(job, **result)
            assert next_placed.acquire(timeout=60)

        manager._record_finish = finish_then_hold
        try:
            sid, _ = reg.put(_scenario_doc())
            affine = manager.shard_of(sid)
            for k in range(50):
                job = manager.submit(sid, "slrh1", alpha=0.01 * (k + 1))
                if k:
                    next_placed.release()
                assert job.source is None  # a distinct α: a miss
                assert job.done.wait(timeout=120)
                assert job.state == "succeeded", job.error
                assert job.shard == affine, k
            assert manager.perf.get("service.submitted") == 50
            assert manager.perf.get("service.spilled") == 0
        finally:
            next_placed.release()
            manager.close(drain_timeout=0)

    def test_sessions_round_robin_over_shards(self):
        manager = ShardRouter(ScenarioRegistry(), shards=3)
        try:
            assert manager.session_shard(1) is manager.shards[1]
            assert manager.session_shard(3) is manager.shards[0]
            assert manager.session_shard(5) is manager.shards[2]
        finally:
            manager.close(drain_timeout=0)


# ---------------------------------------------------------------------------
# spill-to-idle placement


def _scenario_on(manager: ShardRouter, shard: int, first_seed: int = 1) -> str:
    """Register 12-task scenarios from *first_seed* on until one's
    affine shard is *shard*; returns its id."""
    for seed in range(first_seed, first_seed + 64):
        sid, _ = manager.registry.put(_scenario_doc(12, seed))
        if manager.shard_of(sid) == shard:
            return sid
    raise AssertionError(f"no scenario hashes to shard {shard}")


def _wait_running(job) -> None:
    deadline = time.monotonic() + 60
    while job.state == "queued":
        assert time.monotonic() < deadline, f"{job.id} never left the queue"
        time.sleep(0.001)
    assert job.state == "running", f"{job.state}: {job.error}"


class TestSpillPlacement:
    def test_miss_behind_a_running_job_starts_on_the_idle_shard(self):
        reg = ScenarioRegistry()
        manager = ShardRouter(reg, shards=2, max_queue=8).start()
        try:
            big, _ = reg.put(_scenario_doc(1024, 7))
            busy = manager.shard_of(big)
            small = _scenario_on(manager, busy)
            first = manager.submit(big, "maxmax")
            _wait_running(first)
            second = manager.submit(small, "greedy")
            assert second.shard == 1 - busy
            assert second.status_doc()["shard"] == 1 - busy
            for job in (first, second):
                assert job.done.wait(timeout=120)
                assert job.state == "succeeded", job.error
            assert first.shard == busy
            # It ran alongside the big map, not after it.
            assert second.started_at < first.finished_at
            assert manager.perf.get("service.spilled") == 1
        finally:
            manager.close(drain_timeout=0)

    def test_with_every_shard_busy_a_miss_queues_on_its_affine_shard(self):
        reg = ScenarioRegistry()
        manager = ShardRouter(reg, shards=2, max_queue=8).start()
        try:
            on = [_scenario_on(manager, k, 1 + 100 * k) for k in (0, 1)]
            # Holding a pipe keeps its dispatcher inside the popped job.
            with manager.shards[0]._pipe_lock, manager.shards[1]._pipe_lock:
                running = [manager.submit(on[k], "greedy") for k in (0, 1)]
                for k, job in enumerate(running):
                    _wait_running(job)
                    assert job.shard == k
                queued = [manager.submit(on[k], "minmin") for k in (1, 0)]
                assert [job.shard for job in queued] == [1, 0]
                assert [job.state for job in queued] == ["queued"] * 2
                assert manager.shards[0].queue_depth == 1
                assert manager.shards[1].queue_depth == 1
            for job in running + queued:
                assert job.done.wait(timeout=120)
                assert job.state == "succeeded", job.error
            assert manager.perf.get("service.spilled") == 0
        finally:
            manager.close(drain_timeout=0)

    def test_a_dead_shard_never_receives_a_spilled_miss(self):
        reg = ScenarioRegistry()
        manager = ShardRouter(reg, shards=2, max_queue=8).start()
        try:
            with pytest.raises(ShardCrashedError):
                manager.shards[1].call("exit", 4)
            sid = _scenario_on(manager, 0)
            with manager.shards[0]._pipe_lock:
                first = manager.submit(sid, "greedy")
                _wait_running(first)
                # Shard 1 owes nothing but is dead: the miss stays home.
                second = manager.submit(sid, "minmin")
                assert second.shard == 0 and second.state == "queued"
            for job in (first, second):
                assert job.done.wait(timeout=120)
                assert job.state == "succeeded", job.error
            assert manager.perf.get("service.spilled") == 0
            assert manager.perf.get("service.failed") == 0
        finally:
            manager.close(drain_timeout=0)

    def test_concurrent_misses_run_once_on_the_shard_they_report(self):
        """12 threads submit 36 distinct misses of one scenario at a 1 µs
        switch interval: each runs exactly once, on the shard its record
        names, and every job off the affine shard counts as a spill."""
        reg = ScenarioRegistry()
        sid, _ = reg.put(_scenario_doc())
        manager = ShardRouter(reg, shards=2, max_queue=64).start()
        submitted: list = []
        lock = threading.Lock()
        barrier = threading.Barrier(12)

        def client(index: int) -> None:
            barrier.wait(timeout=60)
            for k in range(3):
                job = manager.submit(sid, "slrh1", alpha=0.01 * (1 + 3 * index + k))
                with lock:
                    submitted.append(job)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(i,)) for i in range(12)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        try:
            assert len(submitted) == 36
            for job in submitted:
                assert job.done.wait(timeout=120)
                assert job.state == "succeeded", job.error
            counters = manager.metrics_document()["counters"]
            for k in (0, 1):
                ran_here = sum(job.shard == k for job in submitted)
                assert counters.get(f"shard{k}.completed", 0) == ran_here, k
            affine = manager.shard_of(sid)
            assert manager.perf.get("service.spilled") == sum(
                job.shard != affine for job in submitted
            )
            assert manager.perf.get("map.runs") == 36
        finally:
            manager.close(drain_timeout=0)

    def test_duplicate_and_repeat_of_a_spilled_job_report_its_shard(self):
        reg = ScenarioRegistry()
        manager = ShardRouter(reg, shards=2, max_queue=8).start()
        try:
            sid = _scenario_on(manager, 0)
            with manager.shards[0]._pipe_lock:
                first = manager.submit(sid, "greedy")
                _wait_running(first)
                with manager.shards[1]._pipe_lock:
                    spilled = manager.submit(sid, "minmin")
                    assert spilled.shard == 1
                    _wait_running(spilled)
                    duplicate = manager.submit(sid, "minmin")
                    assert duplicate.source is spilled
                    assert duplicate.shard == 1
                assert duplicate.done.wait(timeout=120)
                assert duplicate.state == "succeeded", duplicate.error
                repeat = manager.submit(sid, "minmin")
                assert repeat.source is spilled and repeat.state == "succeeded"
                for job in (duplicate, repeat):
                    assert job.status_doc()["shard"] == 1
            assert first.done.wait(timeout=120)
            assert manager.perf.get("service.spilled") == 1
            assert manager.perf.get("service.attached") == 1
            assert manager.perf.get("service.repeats") == 1
        finally:
            manager.close(drain_timeout=0)


# ---------------------------------------------------------------------------
# the byte-identity contract: shard counts are invisible in the output


class TestShardCountInvariance:
    def _mappings(self, n_shards: int, heuristics) -> dict[str, bytes]:
        reg = ScenarioRegistry()
        sid, _ = reg.put(_scenario_doc(16, 7))
        manager = ShardRouter(reg, shards=n_shards, max_queue=64).start()
        try:
            jobs = {h: manager.submit(sid, h) for h in heuristics}
            out = {}
            for name, job in jobs.items():
                assert job.done.wait(timeout=120), name
                assert job.state == "succeeded", (name, job.error)
                out[name] = job.mapping_bytes
            return out
        finally:
            manager.close(drain_timeout=0)

    def test_all_heuristics_identical_at_1_2_4_shards(self):
        baseline = self._mappings(1, HEURISTIC_NAMES)
        for n_shards in (2, 4):
            sharded = self._mappings(n_shards, HEURISTIC_NAMES)
            for name in HEURISTIC_NAMES:
                assert sharded[name] == baseline[name], (n_shards, name)

    @pytest.mark.parametrize("kernel", ["columnar", "rebuild"])
    def test_kernel_modes_identical_across_shard_counts(self, kernel, monkeypatch):
        # Shard children inherit the environment through fork, so the
        # kernel mode pins itself in every process the same way.
        monkeypatch.setenv("REPRO_KERNEL", kernel)
        heuristics = ("slrh1", "slrh3")
        baseline = self._mappings(1, heuristics)
        sharded = self._mappings(4, heuristics)
        assert sharded == baseline


# ---------------------------------------------------------------------------
# crash semantics: a dead shard fails fast and is visible


class TestCrashSemantics:
    def test_dead_shard_fails_jobs_and_healthz(self):
        reg = ScenarioRegistry()
        sid, _ = reg.put(_scenario_doc())
        manager = ShardRouter(reg, shards=2, max_queue=8).start()
        try:
            victim = manager.shard_for(sid)
            other = manager.shards[1 - victim.index]
            with pytest.raises(ShardCrashedError):
                victim.call("exit", 7)
            # The job routed at the dead shard fails — it does not hang.
            job = manager.submit(sid, "greedy")
            assert job.done.wait(timeout=120)
            assert job.state == "failed"
            assert "ShardCrashedError" in (job.error or "")
            # Liveness is per shard, and one dead shard degrades the lot.
            health = manager.health_doc()
            assert health["healthy"] is False
            by_index = {s["shard"]: s for s in health["shards"]}
            assert by_index[victim.index]["alive"] is False
            assert by_index[other.index]["alive"] is True
            assert manager.perf.get("service.failed") == 1
        finally:
            manager.close(drain_timeout=0)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_healthz_503_over_http_when_a_shard_dies(self, shards):
        # --shards 1 forks its one shard too, so it can lose it the same way.
        from repro.service.app import make_server

        reg = ScenarioRegistry()
        manager = ShardRouter(reg, shards=shards, max_queue=8)
        server = make_server("127.0.0.1", 0, manager)
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with urllib.request.urlopen(base + "/healthz", timeout=30) as resp:
                doc = json.loads(resp.read())
            assert resp.status == 200 and doc["status"] == "ok"
            assert len(doc["shards"]) == shards
            for entry in doc["shards"]:
                assert entry["alive"] is True
                assert isinstance(entry["pid"], int)
                assert entry["pid"] != os.getpid()
                assert entry["queue_depth"] == 0
            sid, _ = reg.put(_scenario_doc())
            with pytest.raises(ShardCrashedError):
                manager.shard_for(sid).call("exit", 1)
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urllib.request.urlopen(base + "/healthz", timeout=30)
            assert exc_info.value.code == 503
            doc = json.loads(exc_info.value.read())
            assert doc["status"] == "degraded"
            assert any(not s["alive"] for s in doc["shards"])
            # A map routed to the dead shard fails; it does not hang.
            request = urllib.request.Request(
                base + "/v1/map",
                data=json.dumps({"scenario": sid, "heuristic": "greedy"}).encode(),
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urllib.request.urlopen(request, timeout=60)
            assert exc_info.value.code == 500
            assert "ShardCrashedError" in json.loads(exc_info.value.read())["error"]
            assert manager.perf.get("service.failed") == 1
        finally:
            server.shutdown()
            thread.join(timeout=10)
            server.server_close()
            manager.close(drain_timeout=0)


# ---------------------------------------------------------------------------
# global admission under concurrency (the hammer)


class TestConcurrentAdmission:
    def test_full_queue_hammered_from_many_threads(self):
        """Hammer one shard's full queue from 12 threads: exactly
        ``max_queue`` jobs are admitted, every rejection carries a
        coherent Retry-After, and each admitted job executes exactly
        once."""
        reg = ScenarioRegistry()
        sid, _ = reg.put(_scenario_doc())
        max_queue = 4
        # Not started: nothing drains the queue while the hammer runs,
        # so the admission arithmetic is exact.
        manager = ShardRouter(reg, shards=1, max_queue=max_queue)
        admitted: list = []
        rejections: list[QueueFullError] = []
        lock = threading.Lock()
        barrier = threading.Barrier(12)

        def hammer(index: int) -> None:
            barrier.wait()
            for k in range(3):
                # A distinct α per request: every one is a miss that needs
                # admission, none attaches to an admitted job.
                alpha = 0.01 * (1 + 3 * index + k)
                try:
                    job = manager.submit(sid, "maxmax", alpha=alpha)
                except QueueFullError as exc:
                    with lock:
                        rejections.append(exc)
                else:
                    with lock:
                        admitted.append(job)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert len(admitted) == max_queue
        assert len(rejections) == 12 * 3 - max_queue
        assert len({job.id for job in admitted}) == max_queue  # no id reuse
        for exc in rejections:
            assert exc.retry_after >= 1  # coherent backoff hint
            assert exc.depth >= max_queue
        # Now let the shard run: every admitted job executes exactly once
        # and nothing that was rejected ever runs.
        manager.start()
        try:
            for job in admitted:
                assert job.done.wait(timeout=120)
                assert job.state == "succeeded"
            assert manager.perf.get("service.submitted") == max_queue
            assert manager.perf.get("service.completed") == max_queue
            assert manager.perf.get("service.rejected") == len(rejections)
        finally:
            manager.close(drain_timeout=0)


# ---------------------------------------------------------------------------
# the per-shard scenario LRU


class TestScenarioCache:
    def test_lru_evicts_and_reports(self):
        cache = _ScenarioCache(1)
        doc_a, doc_b = _scenario_doc(12, 1), _scenario_doc(12, 2)
        _, stats = cache.get("sha256:a", doc_a)
        assert stats == {"worker.scenario_cache_misses": 1}
        _, stats = cache.get("sha256:a", doc_a)
        assert stats == {"worker.scenario_cache_hits": 1}
        _, stats = cache.get("sha256:b", doc_b)
        assert stats["worker.scenario_cache_evictions"] == 1
        assert len(cache) == 1

    def test_jobs_and_sessions_share_one_cache(self, monkeypatch):
        """A shard's jobs and sessions look scenarios up in one LRU: a job
        then a session open on the same scenario deserialise it once, and
        the bound counts both."""
        import repro.service.worker as worker

        decoded: list[dict] = []
        decode = worker.scenario_from_dict

        def counting(doc: dict):
            decoded.append(doc)
            return decode(doc)

        monkeypatch.setattr(worker, "scenario_from_dict", counting)
        reg = ScenarioRegistry()
        a, _ = reg.put(_scenario_doc(12, 1))
        b, _ = reg.put(_scenario_doc(12, 2))
        cache = _ScenarioCache(1)
        host = SessionHost(cache)
        outcome = execute_mapping(a, reg.get_doc(a), "greedy", None, None, cache)
        assert outcome["perf"]["worker.scenario_cache_misses"] == 1
        host.open("sess-1", a, reg.get_doc(a), {"heuristic": "greedy"})
        assert len(decoded) == 1
        # A bound of 1 holds one scenario across jobs and sessions.
        host.open("sess-2", b, reg.get_doc(b), {"heuristic": "greedy"})
        assert len(decoded) == 2 and len(cache) == 1
        outcome = execute_mapping(a, reg.get_doc(a), "greedy", None, None, cache)
        assert outcome["perf"]["worker.scenario_cache_evictions"] == 1

    def test_eviction_counter_reaches_metrics(self):
        reg = ScenarioRegistry()
        ids = [
            reg.put(_scenario_doc(12, seed))[0]
            for seed in range(1, SCENARIO_CACHE_SIZE + 2)
        ]
        manager = ShardRouter(reg, shards=1, max_queue=16)
        manager.start()
        try:
            # The first scenario returns under another heuristic: a
            # request the index does not hold, so it maps (and decodes).
            for sid, heuristic in [(sid, "greedy") for sid in ids] + [
                (ids[0], "minmin")
            ]:
                job = manager.submit(sid, heuristic)
                assert job.done.wait(timeout=120)
                assert job.state == "succeeded"
            # Nine scenarios cycled through the 8-entry LRU: the ninth
            # evicts the first, and the first's return evicts the second.
            assert manager.perf.get("worker.scenario_cache_evictions") == 2
            metrics = manager.metrics_document()
            assert metrics["counters"]["shard0.cache_evictions"] == 2
            assert metrics["counters"]["worker.scenario_cache_misses"] == len(ids) + 1
        finally:
            manager.close(drain_timeout=0)


# ---------------------------------------------------------------------------
# shard-hosted sessions


class TestShardedSessions:
    def test_session_on_process_shard_matches_offline_replay(self):
        from repro.core.objective import Weights
        from repro.heuristics import make_scheduler
        from repro.service.sessions import SessionManager
        from repro.session import run_with_events, synthesize_events

        reg = ScenarioRegistry()
        scenario = generate_named_scenario(24, 7)
        sid, _ = reg.put(scenario_to_dict(scenario))
        manager = ShardRouter(reg, shards=2, max_queue=8).start()
        sessions = SessionManager(reg, router=manager)
        try:
            held, events = synthesize_events(
                scenario, seed=11, n_events=14, max_cycle=60
            )
            session = sessions.open(
                {"scenario": sid, "heuristic": "slrh1", "pending": list(held)}
            )
            # sess-00000001 -> shard 1 of 2: a real child process.
            assert session.shard is manager.shards[1]
            assert isinstance(session.shard, ProcessShard)
            lines: list[bytes] = []
            for start in range(0, len(events), 5):
                lines.extend(session.stream(events[start : start + 5]))
            assert session.status_doc()["state"] == "closed"
            oracle = run_with_events(
                scenario,
                make_scheduler("slrh1", Weights.from_alpha_beta(0.5, 0.2)),
                events,
                pending=held,
            )
            want = canonical_json_bytes(mapping_to_dict(oracle.final.schedule))
            assert session.result_bytes() == want
            status = session.status_doc()
            assert status["state"] == "closed"
            assert status["n_events"] == len(events)
        finally:
            manager.close(drain_timeout=0)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_crashed_shard_session_yields_error_record(self, shards):
        from repro.service.sessions import SessionManager
        from repro.session import synthesize_events

        reg = ScenarioRegistry()
        scenario = generate_named_scenario(16, 3)
        sid, _ = reg.put(scenario_to_dict(scenario))
        manager = ShardRouter(reg, shards=shards, max_queue=8).start()
        sessions = SessionManager(reg, router=manager)
        try:
            _, events = synthesize_events(
                scenario, seed=5, n_events=6, max_cycle=40
            )
            session = sessions.open({"scenario": sid, "heuristic": "greedy"})
            shard = session.shard
            assert isinstance(shard, ProcessShard)
            with pytest.raises(ShardCrashedError):
                shard.call("exit", 2)
            lines = list(session.stream(events))
            assert len(lines) == 1
            record = json.loads(lines[0])
            assert record["record"] == "error"
            assert manager.perf.get("session.event_errors") == 1
        finally:
            manager.close(drain_timeout=0)


# ---------------------------------------------------------------------------
# a shard driven directly


class TestShardBackends:
    def test_process_shard_ships_each_doc_once(self):
        reg = ScenarioRegistry()
        sid, _ = reg.put(_scenario_doc())
        doc = reg.get_doc(sid)
        shard = _bare_shard().start()
        try:
            first = shard.run_job(sid, doc, "greedy", None, None)
            second = shard.run_job(sid, doc, "greedy", None, None)
            assert first["mapping"] == second["mapping"]
            # Second run hit the child's deserialised-scenario LRU.
            assert second["perf"].get("worker.scenario_cache_hits") == 1
            with shard._pipe_lock:
                assert sid in shard._shipped  # the next call sends None
        finally:
            shard.close()

    def test_process_shard_maps_child_errors_to_builtins(self):
        shard = _bare_shard().start()
        try:
            with pytest.raises(KeyError):
                shard.session_events("sess-nope", [])
        finally:
            shard.close()
