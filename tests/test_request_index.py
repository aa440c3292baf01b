"""The router's request index: a repeated ``/v1/map`` request is answered
from the retained job, a duplicate of a job in flight attaches to it
(single flight), and every reply for one map sends the bytes encoded
once.  Also the map request's validation, which builds the index key,
and a fuzz of the request and session-event parsers."""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.heuristics import HEURISTIC_NAMES, generate_named_scenario
from repro.io.serialization import scenario_to_dict
from repro.service import jobs
from repro.service.app import make_server
from repro.service.jobs import QueueFullError, RequestKey, ShardRouter
from repro.service.registry import ScenarioRegistry
from repro.service.shard import ProcessShard
from repro.session import EVENT_KINDS, event_from_dict

#: Bound on every wait in this module.
DEADLINE = 60.0


def _doc(n_tasks: int = 16, seed: int = 3) -> dict:
    return scenario_to_dict(generate_named_scenario(n_tasks, seed))


def _post(base, path, doc, timeout=120):
    req = urllib.request.Request(
        base + path,
        data=json.dumps(doc).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def _get(base, path, timeout=120):
    try:
        with urllib.request.urlopen(base + path, timeout=timeout) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def _counters(base) -> dict:
    _, _, body = _get(base, "/metrics")
    return json.loads(body)["counters"]


def _wait_for(predicate, what: str) -> None:
    deadline = time.monotonic() + DEADLINE
    while not predicate():
        assert time.monotonic() < deadline, what
        time.sleep(0.001)


@pytest.fixture()
def served():
    """A live one-shard daemon on an ephemeral port, and one registered
    16-task scenario."""
    manager = ShardRouter(ScenarioRegistry(), shards=1, max_queue=16)
    server = make_server("127.0.0.1", 0, manager)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    _, _, body = _post(base, "/v1/scenarios", _doc())
    yield base, manager, json.loads(body)["id"]
    manager.drain(timeout=DEADLINE)
    server.shutdown()
    thread.join(timeout=10)
    server.server_close()
    manager.close(drain_timeout=0)


@pytest.fixture()
def router():
    """A started one-shard router (queue bound 1) and one registered
    16-task scenario."""
    registry = ScenarioRegistry()
    sid, _ = registry.put(_doc())
    manager = ShardRouter(registry, shards=1, max_queue=1).start()
    yield manager, sid
    manager.close(drain_timeout=0)


def _done(job: jobs.Job) -> jobs.Job:
    assert job.done.wait(timeout=DEADLINE), job.id
    return job


def _kill_shard(shard: ProcessShard) -> None:
    os.kill(shard.pid, signal.SIGKILL)
    _wait_for(lambda: not shard.alive(), "the killed shard still runs")


def _in_sixteen_threads(work) -> None:
    """Run ``work(i)`` for i < 16 on 16 threads released together, at a
    1 µs switch interval."""
    barrier = threading.Barrier(16)

    def run(index: int) -> None:
        barrier.wait(timeout=DEADLINE)
        work(index)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=DEADLINE)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# (a) a repeat over HTTP


class TestRepeatOverHttp:
    def test_same_bytes_new_job_id_a_source_and_no_shard_rpc(
        self, served, monkeypatch
    ):
        base, _, sid = served
        calls = []
        run_job = ProcessShard.run_job

        def counted(self, *args):
            calls.append(args[0])
            return run_job(self, *args)

        encodes = []
        encode = jobs.canonical_json_bytes

        def encoded(doc):
            encodes.append(threading.current_thread().name)
            return encode(doc)

        monkeypatch.setattr(ProcessShard, "run_job", counted)
        monkeypatch.setattr(jobs, "canonical_json_bytes", encoded)
        body = {"scenario": sid, "heuristic": "slrh2"}
        status, first_headers, first = _post(base, "/v1/map", body)
        assert status == 200
        before = _counters(base)
        assert before["shard0.completed"] == 1

        status, headers, again = _post(base, "/v1/map", body)
        assert status == 200
        assert again == first
        assert headers["X-Job-Id"] != first_headers["X-Job-Id"]
        # The header describes the bytes: the source job's map time.
        assert headers["X-Heuristic-Seconds"] == first_headers["X-Heuristic-Seconds"]
        _, _, doc = _get(base, f"/v1/jobs/{headers['X-Job-Id']}")
        doc = json.loads(doc)
        assert doc["source"] == first_headers["X-Job-Id"]
        assert doc["state"] == "succeeded" and doc["wait_seconds"] == 0.0
        _, _, source_doc = _get(base, f"/v1/jobs/{first_headers['X-Job-Id']}")
        assert "source" not in json.loads(source_doc)
        status, _, result = _get(base, f"/v1/jobs/{headers['X-Job-Id']}/result")
        assert status == 200 and result == first

        after = _counters(base)
        assert len(calls) == 1  # one shard RPC, for the first request
        # One encode for three replies, on a request's thread: the shard's
        # dispatcher goes on to its next job meanwhile.
        assert len(encodes) == 1
        assert not encodes[0].startswith("repro-dispatcher")
        assert after["shard0.completed"] == before["shard0.completed"]
        assert after["service.repeats"] == 1
        assert after["service.completed"] == after["map.runs"] == 1


# ---------------------------------------------------------------------------
# (b) the canonical key


class TestRequestKey:
    def test_defaults_and_aliases_share_one_key(self):
        registry = ScenarioRegistry()
        sid, _ = registry.put(_doc())
        manager = ShardRouter(registry, shards=1)  # never started
        key = manager.request_key
        assert key(sid, "slrh1") == key(sid, "slrh1", 0.5, 0.2)
        assert key(sid, "SLRH-1") == key(sid, "slrh1")
        assert key(sid, "Max-Max", 1, 0) == key(sid, "maxmax", 1.0, 0.0)
        assert key(sid, "slrh1", 0.4) != key(sid, "slrh1")
        assert key(sid, "greedy") == RequestKey(sid, "greedy", None)

        first = manager.submit(sid, "slrh1")
        second = manager.submit(sid, "SLRH-1", alpha=0.5, beta=0.2)
        assert first.source is None and second.source is first
        assert manager.perf.get("service.submitted") == 1
        manager.close(drain_timeout=0)


# ---------------------------------------------------------------------------
# (c) single flight


class TestSingleFlight:
    def test_sixteen_concurrent_submits_run_one_map(self, monkeypatch):
        registry = ScenarioRegistry()
        sid, _ = registry.put(_doc())
        # Not started: every submit lands while the first job is queued,
        # and the 15 duplicates fit within the bound of max_queue.
        manager = ShardRouter(registry, shards=1, max_queue=15)
        encodes = []
        encode = jobs.canonical_json_bytes

        def counted(doc):
            encodes.append(doc)
            return encode(doc)

        monkeypatch.setattr(jobs, "canonical_json_bytes", counted)
        submitted: list = [None] * 16
        replies: list = [None] * 16

        def submit(index: int) -> None:
            submitted[index] = manager.submit(sid, "slrh1")

        def reply(index: int) -> None:
            replies[index] = submitted[index].mapping_bytes

        _in_sixteen_threads(submit)
        manager.start()
        try:
            for job in submitted:
                assert _done(job).state == "succeeded", job.error
            _in_sixteen_threads(reply)
            assert len({job.id for job in submitted}) == 16
            assert len(set(replies)) == 1 and len(encodes) == 1
            sources = [job for job in submitted if job.source is None]
            assert len(sources) == 1
            assert all(
                job.source is sources[0] for job in submitted if job.source
            )
            assert manager.perf.get("service.submitted") == 1
            assert manager.perf.get("map.runs") == 1
            assert manager.perf.get("service.attached") == 15
            assert manager.perf.histogram("service.request_seconds").count == 16
        finally:
            manager.close(drain_timeout=0)

    def test_duplicates_waiting_on_one_job_are_bounded(self, served):
        """At most ``max_queue`` duplicates wait on a job in flight; the
        next gets a 429, so ``wait: false`` floods cannot grow the job
        table while that job runs."""
        base, manager, sid = served
        body = {"scenario": sid, "heuristic": "greedy", "wait": False}
        with manager.shards[0]._pipe_lock:
            status, _, reply = _post(base, "/v1/map", body)
            assert status == 202
            first = manager.get(json.loads(reply)["job"])
            _wait_for(lambda: first.state == "running", "first never ran")
            statuses = [_post(base, "/v1/map", body) for _ in range(40)]
            assert [s for s, _, _ in statuses] == [202] * 16 + [429] * 24
            assert all(int(h["Retry-After"]) >= 1 for _, h, _ in statuses[16:])
            assert len(manager._jobs) == 17
        assert _done(first).state == "succeeded"
        for _, _, reply in statuses[:16]:
            assert _done(manager.get(json.loads(reply)["job"])).state == "succeeded"
        counters = _counters(base)
        assert counters["service.attached"] == 16
        assert counters["service.rejected"] == 24
        assert counters["service.submitted"] == 1
        # Once the map is done, the key is a repeat again, not a 429.
        assert _post(base, "/v1/map", body)[0] == 202
        assert _counters(base)["service.repeats"] == 1


# ---------------------------------------------------------------------------
# (d) failures are never retained


class TestFailedJob:
    def test_key_is_dropped_and_the_duplicate_fails_with_it(self, router):
        manager, sid = router
        shard = manager.shards[0]
        # Holding the pipe keeps the dispatcher from reaching the child.
        with shard._pipe_lock:
            first = manager.submit(sid, "greedy")
            _wait_for(lambda: first.state == "running", "first never ran")
            duplicate = manager.submit(sid, "greedy")
            assert duplicate.source is first
            assert duplicate.state == "running"  # read from its source
            _kill_shard(shard)
        for job in (_done(first), _done(duplicate)):
            assert job.state == "failed"
            assert "ShardCrashedError" in job.error
        assert duplicate.error == first.error
        assert manager.perf.get("service.failed") == 1
        assert manager.perf.get("service.attached") == 1

        again = manager.submit(sid, "greedy")
        assert again.source is None  # a miss: admitted for a fresh map
        assert manager.perf.get("service.submitted") == 2
        assert _done(again).state == "failed"


# ---------------------------------------------------------------------------
# (e) a repeat needs no shard


class TestRepeatWithoutShard:
    def test_answered_while_the_queue_is_full_and_the_shard_is_dead(
        self, router
    ):
        manager, sid = router
        shard = manager.shards[0]
        first = _done(manager.submit(sid, "greedy"))
        assert first.state == "succeeded"
        with shard._pipe_lock:
            running = manager.submit(sid, "minmin")
            _wait_for(lambda: running.state == "running", "minmin never ran")
            queued = manager.submit(sid, "maxmax")  # the queue is now full
            with pytest.raises(QueueFullError):
                manager.submit(sid, "slrh1")
            repeat = manager.submit(sid, "greedy")
            assert repeat.done.is_set() and repeat.state == "succeeded"
            assert repeat.source is first
            assert repeat.mapping_bytes == first.mapping_bytes
            _kill_shard(shard)
        assert _done(running).state == "failed"
        assert _done(queued).state == "failed"
        assert not shard.alive()
        late = manager.submit(sid, "greedy")
        assert late.state == "succeeded" and late.source is first
        assert late.mapping_bytes == first.mapping_bytes
        assert manager.perf.get("service.repeats") == 2
        assert manager.perf.get("service.rejected") == 1


# ---------------------------------------------------------------------------
# (f) the index is bounded by the job table


class TestEviction:
    def test_requested_keys_survive_eviction_and_idle_ones_map_again(
        self, router, monkeypatch
    ):
        manager, sid = router
        monkeypatch.setattr(jobs, "MAX_JOBS_KEPT", 3)

        def run(heuristic: str) -> jobs.Job:
            job = _done(manager.submit(sid, heuristic))
            assert job.state == "succeeded", job.error
            return job

        greedy = run("greedy")
        minmin = run("minmin")
        assert run("greedy").source is greedy  # the key now points here
        run("maxmax")  # evicts greedy's own record
        run("slrh1")  # evicts minmin's: its key is dropped
        with pytest.raises(KeyError):
            manager.get(greedy.id)
        assert run("greedy").source is greedy  # still answered
        assert manager.perf.get("service.submitted") == 4
        again = run("minmin")
        assert again.source is None  # mapped afresh
        assert again.mapping_bytes == minmin.mapping_bytes
        assert manager.perf.get("service.submitted") == 5
        assert manager.perf.get("service.repeats") == 2


# ---------------------------------------------------------------------------
# (g) repeats are not maps


class TestAccounting:
    def test_repeats_move_neither_map_seconds_nor_retry_after(self, router):
        manager, sid = router
        shard = manager.shards[0]
        _done(manager.submit(sid, "greedy"))
        maps = manager.perf.histogram("service.map_seconds")
        count, total = maps.count, maps.total
        requests = manager.perf.histogram("service.request_seconds").count
        with shard._pipe_lock:
            running = manager.submit(sid, "minmin")
            _wait_for(lambda: running.state == "running", "minmin never ran")
            queued = manager.submit(sid, "maxmax")
            with pytest.raises(QueueFullError) as before:
                manager.submit(sid, "slrh1")
            for _ in range(20):
                assert manager.submit(sid, "greedy").state == "succeeded"
            with pytest.raises(QueueFullError) as after:
                manager.submit(sid, "slrh2")
        assert after.value.retry_after == before.value.retry_after
        maps = manager.perf.histogram("service.map_seconds")
        assert (maps.count, maps.total) == (count, total)
        # Repeats are requests, and are observed as such.
        assert (
            manager.perf.histogram("service.request_seconds").count
            == requests + 20
        )
        assert manager.perf.get("service.repeats") == 20
        assert manager.perf.get("service.submitted") == 3
        for job in (running, queued):
            assert _done(job).state == "succeeded"


# ---------------------------------------------------------------------------
# (h) a repeat streams its source's trace


class TestRepeatEvents:
    def test_repeat_streams_the_source_commit_events(self, served):
        base, _, sid = served
        body = {"scenario": sid, "heuristic": "slrh1"}
        status, headers, _ = _post(base, "/v1/map", body)
        assert status == 200
        source = headers["X-Job-Id"]
        status, _, reply = _post(base, "/v1/map", {**body, "wait": False})
        assert status == 202
        repeat = json.loads(reply)["job"]
        assert repeat != source
        _, _, doc = _get(base, f"/v1/jobs/{repeat}")
        assert json.loads(doc)["source"] == source
        assert _counters(base)["service.completed"] == 1  # no second map

        def events(job_id: str) -> list[dict]:
            _, _, raw = _get(base, f"/v1/jobs/{job_id}/events")
            return [json.loads(line) for line in raw.splitlines() if line.strip()]

        own, shared = events(source), events(repeat)
        commits = [e for e in shared if e["event"] == "commit"]
        assert len(commits) == 16
        assert commits == [e for e in own if e["event"] == "commit"]
        assert shared[-1] == {"event": "done", "job": repeat, "state": "succeeded"}


# ---------------------------------------------------------------------------
# validation where the key is built


class TestMapValidation:
    @pytest.mark.parametrize(
        "fields, status",
        [
            ({"wait": "false"}, 400),
            ({"wait": None}, 400),
            ({"scenario": [1]}, 400),
            ({"scenario": 5}, 400),
            ({"heuristic": 5}, 400),
            ({"heuristic": None}, 400),
            ({"alpha": False}, 400),
            ({"alpha": True, "beta": False}, 400),
            ({"alpha": "0.5"}, 400),
            ({"alpha": 10**400}, 400),
            ({"heuristic": "frobnicate"}, 404),
            ({"scenario": "sha256:" + "0" * 64}, 404),
        ],
    )
    def test_bad_fields_are_typed_errors_before_admission(
        self, served, fields, status
    ):
        base, manager, sid = served
        body = {"scenario": sid, "heuristic": "slrh1", **fields}
        got, _, reply = _post(base, "/v1/map", body)
        assert got == status, reply
        assert "error" in json.loads(reply)
        assert manager.perf.get("service.submitted") == 0


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**308, max_value=10**400)
    | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)


def _fuzz_router() -> tuple[ShardRouter, str]:
    registry = ScenarioRegistry()
    sid, _ = registry.put(_doc(12, 1))
    return ShardRouter(registry, shards=1), sid  # never started


_ROUTER, _SID = _fuzz_router()


class TestParserFuzz:
    @settings(max_examples=300, deadline=None)
    @given(
        body=st.fixed_dictionaries(
            {},
            optional={
                "scenario": st.just(_SID) | _JSON,
                "heuristic": st.sampled_from(HEURISTIC_NAMES + ("SLRH-2",))
                | _JSON,
                "alpha": st.floats(0, 1) | _JSON,
                "beta": st.floats(0, 1) | _JSON,
            },
        )
    )
    def test_any_map_body_yields_a_key_or_a_typed_error(self, body):
        """The fields ``POST /v1/map`` hands to ``submit``: a key, or a
        ValueError (400) / KeyError (404), never anything else (500)."""
        try:
            key = _ROUTER.request_key(
                body.get("scenario"),
                body.get("heuristic", "slrh1"),
                body.get("alpha"),
                body.get("beta"),
            )
        except (ValueError, KeyError):
            return
        assert key.scenario_id == _SID
        assert key.heuristic in HEURISTIC_NAMES
        hash(key)

    @settings(max_examples=300, deadline=None)
    @given(
        doc=_JSON
        | st.fixed_dictionaries(
            {},
            optional={
                "event": st.sampled_from(EVENT_KINDS) | _JSON,
                "cycle": st.integers() | _JSON,
                "task": st.integers() | _JSON,
                "machine": st.integers() | _JSON,
            },
        )
    )
    def test_event_from_dict_raises_only_value_error(self, doc):
        try:
            event = event_from_dict(doc)
        except ValueError:
            return
        assert event_from_dict(event.to_dict()) == event
