"""The streaming-session HTTP surface (:mod:`repro.service.sessions` +
the ``/v1/session`` routes): open/stream/status/result, the byte-identity
contract against offline replay, admission limits, idle eviction, drain,
and the session-mode load generator."""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.heuristics import generate_named_scenario
from repro.io.serialization import (
    canonical_json_bytes,
    mapping_to_dict,
    scenario_to_dict,
)
from repro.perf import PerfCounters
from repro.service.app import MAX_EVENT_LINE_BYTES, make_server
from repro.service.jobs import ShardRouter
from repro.service.registry import ScenarioRegistry
from repro.service.sessions import SessionManager
from repro.session import (
    mapping_from_delta_ndjson,
    run_with_events,
    synthesize_events,
)
from tests.lock_witness import owns

N_TASKS, SEED = 24, 3


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


def _post_ndjson(base, path, payload: bytes, timeout=120):
    req = urllib.request.Request(
        base + path,
        data=payload,
        headers={"Content-Type": "application/x-ndjson"},
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


def _ndjson(events) -> bytes:
    return b"".join(canonical_json_bytes(ev.to_dict()) for ev in events)


@pytest.fixture()
def make_service():
    """Factory for live services with configurable session policies."""
    started = []

    def _make(max_sessions=8, idle_timeout=900.0):
        manager = ShardRouter(ScenarioRegistry(), shards=1, max_queue=16)
        sessions = SessionManager(
            manager.registry,
            max_sessions=max_sessions,
            idle_timeout=idle_timeout,
            router=manager,
        )
        server = make_server("127.0.0.1", 0, manager, sessions=sessions)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        started.append((manager, server, thread))
        host, port = server.server_address[:2]
        return f"http://{host}:{port}", manager, sessions

    yield _make
    for manager, server, thread in started:
        manager.drain(timeout=60)
        server.shutdown()
        thread.join(timeout=10)
        server.server_close()
        manager.close(drain_timeout=0)


def _register(base) -> str:
    scenario = generate_named_scenario(N_TASKS, SEED)
    _, _, body = _post(base, "/v1/scenarios", scenario_to_dict(scenario))
    return json.loads(body)["id"]


class TestSessionLifecycle:
    def test_open_stream_result_matches_offline_replay(self, make_service):
        """The acceptance contract end to end over HTTP: a streamed
        session's deltas reassemble to — and its /result endpoint returns
        — the byte-identical mapping of an offline replay."""
        base, _, _ = make_service()
        sid = _register(base)
        scenario = generate_named_scenario(N_TASKS, SEED)
        held, events = synthesize_events(
            scenario, seed=11, n_events=20, max_cycle=60
        )
        status, _, body = _post(
            base,
            "/v1/session",
            {"scenario": sid, "heuristic": "slrh1", "pending": list(held)},
        )
        assert status == 201, body
        doc = json.loads(body)
        assert doc["heuristic"] == "slrh1"
        assert doc["pending"] == sorted(held)
        events_url = doc["events_url"]
        # Fresh session: open, nothing mapped beyond cycle 0, result 409.
        status, _, body = _get(base, doc["status_url"])
        assert status == 200 and json.loads(body)["state"] == "open"
        status, _, _ = _get(base, doc["result_url"])
        assert status == 409
        # Stream the events in three batches; collect every delta line.
        lines: list[bytes] = []
        for start in range(0, len(events), 7):
            batch = events[start : start + 7]
            status, headers, body = _post_ndjson(
                base, events_url, _ndjson(batch)
            )
            assert status == 200, body
            assert headers["Content-Type"] == "application/x-ndjson"
            lines.extend(body.splitlines(keepends=True))
        assert b'"record":"footer"' in lines[-1]
        oracle = run_with_events(scenario, _oracle_scheduler(), events, pending=held)
        oracle_bytes = canonical_json_bytes(
            mapping_to_dict(oracle.final.schedule)
        )
        rebuilt = mapping_from_delta_ndjson(lines, scenario)
        assert canonical_json_bytes(mapping_to_dict(rebuilt)) == oracle_bytes
        # The stored result is the same bytes.
        status, headers, body = _get(base, doc["result_url"])
        assert status == 200
        assert headers["X-Session-Id"] == doc["session"]
        assert body == oracle_bytes
        # Closed status carries the outcome summary.
        status, _, body = _get(base, doc["status_url"])
        closed = json.loads(body)
        assert closed["state"] == "closed"
        assert closed["n_events"] == len(events)
        assert closed["errors"] == 0
        # Listed, counted in healthz, and visible in metrics.
        status, _, body = _get(base, "/v1/sessions")
        assert doc["session"] in json.loads(body)["sessions"]
        status, _, body = _get(base, "/healthz")
        assert json.loads(body)["sessions"] == 1
        status, _, body = _get(base, "/metrics")
        metrics = json.loads(body)
        assert metrics["counters"]["session.opened"] == 1.0
        assert metrics["counters"]["session.closed"] == 1.0
        assert metrics["counters"]["session.events"] == len(events)

    def test_config_overrides_reach_the_engine(self, make_service):
        """delta_t/horizon/kernel overrides at open time change the
        session's replanning exactly like the same SlrhConfig offline."""
        from dataclasses import replace

        base, _, _ = make_service()
        sid = _register(base)
        scenario = generate_named_scenario(N_TASKS, SEED)
        held, events = synthesize_events(
            scenario, seed=4, n_events=10, max_cycle=60
        )
        status, _, body = _post(
            base,
            "/v1/session",
            {
                "scenario": sid,
                "heuristic": "slrh1",
                "pending": list(held),
                "delta_t_cycles": 5,
                "horizon_cycles": 50,
                "kernel": "rebuild",
            },
        )
        assert status == 201, body
        doc = json.loads(body)
        status, _, body = _post_ndjson(base, doc["events_url"], _ndjson(events))
        assert status == 200
        scheduler = _oracle_scheduler()
        scheduler = scheduler.__class__(
            replace(
                scheduler.config,
                delta_t_cycles=5,
                horizon_cycles=50,
                kernel="rebuild",
            )
        )
        oracle = run_with_events(scenario, scheduler, events, pending=held)
        _, _, result = _get(base, doc["result_url"])
        assert result == canonical_json_bytes(
            mapping_to_dict(oracle.final.schedule)
        )

    def test_static_heuristic_session(self, make_service):
        """Statics stream churn/advance events and map once at close."""
        base, _, _ = make_service()
        sid = _register(base)
        scenario = generate_named_scenario(N_TASKS, SEED)
        _, events = synthesize_events(
            scenario, seed=6, n_events=8, max_cycle=40, pending=()
        )
        status, _, body = _post(
            base, "/v1/session", {"scenario": sid, "heuristic": "greedy"}
        )
        assert status == 201, body
        doc = json.loads(body)
        status, _, _ = _post_ndjson(base, doc["events_url"], _ndjson(events))
        assert status == 200
        from repro.heuristics import make_scheduler

        oracle = run_with_events(
            scenario, make_scheduler("greedy"), events, pending=()
        )
        _, _, result = _get(base, doc["result_url"])
        assert result == canonical_json_bytes(
            mapping_to_dict(oracle.final.schedule)
        )


class TestSessionErrors:
    def test_open_rejections(self, make_service):
        base, _, _ = make_service()
        sid = _register(base)
        cases = [
            ({}, 400),  # no scenario
            ({"scenario": "sha256:missing"}, 404),
            ({"scenario": sid, "heuristic": "frobnicate"}, 404),
            ({"scenario": sid, "heuristic": "greedy", "alpha": 0.5}, 400),
            ({"scenario": sid, "heuristic": "greedy", "kernel": "columnar"}, 400),
            ({"scenario": sid, "heuristic": "slrh1", "kernel": "warp"}, 400),
            ({"scenario": sid, "heuristic": "slrh1", "delta_t_cycles": 0}, 400),
            ({"scenario": sid, "heuristic": "slrh1", "pending": [99]}, 400),
            ({"scenario": sid, "heuristic": "slrh1", "pending": "0,1"}, 400),
            ({"scenario": sid, "heuristic": "greedy", "pending": [1]}, 400),
            # The /v1/map validator: types are checked, not coerced.
            ({"scenario": sid, "alpha": False}, 400),
            ({"scenario": sid, "alpha": "0.3"}, 400),
            ({"scenario": sid, "heuristic": 5}, 400),
            ({"scenario": 5}, 400),
        ]
        for body, expected in cases:
            status, _, resp = _post(base, "/v1/session", body)
            assert status == expected, (body, resp)

    def test_event_batch_rejections(self, make_service):
        base, _, _ = make_service()
        sid = _register(base)
        status, _, body = _post(
            base, "/v1/session", {"scenario": sid, "heuristic": "slrh1"}
        )
        doc = json.loads(body)
        # Unknown session.
        status, _, _ = _post_ndjson(
            base, "/v1/session/sess-unknown/events", b'{"event":"advance","cycle":1}\n'
        )
        assert status == 404
        # Empty batch.
        status, _, _ = _post_ndjson(base, doc["events_url"], b"")
        assert status == 400
        # Malformed line: named with its line number.
        status, _, body = _post_ndjson(
            base,
            doc["events_url"],
            b'{"event":"advance","cycle":1}\n{"event":"advance"}\n',
        )
        assert status == 400
        assert b"line 2" in body
        # The 400 rejected the whole batch before any event applied.
        status, _, body = _get(base, doc["status_url"])
        assert json.loads(body)["cursor"] == 0

    def test_overlong_event_line_is_refused_before_parsing(self, make_service):
        base, _, _ = make_service()
        sid = _register(base)
        _, _, body = _post(
            base, "/v1/session", {"scenario": sid, "heuristic": "slrh1"}
        )
        doc = json.loads(body)
        status, _, body = _post_ndjson(
            base, doc["events_url"], b'{"event":"advance","cycle":2}\n'
        )
        assert status == 200
        _, _, body = _get(base, doc["status_url"])
        before = json.loads(body)
        # Line 2 is a valid event padded to 5 KiB: refused unparsed.
        padded = b'{"event":"advance","cycle":4' + b" " * 5 * 1024 + b"}"
        assert len(padded) > MAX_EVENT_LINE_BYTES
        status, _, body = _post_ndjson(
            base, doc["events_url"], b'{"event":"advance","cycle":3}\n' + padded
        )
        assert status == 400
        assert b"line 2" in body and str(MAX_EVENT_LINE_BYTES).encode() in body
        _, _, body = _get(base, doc["status_url"])
        after = json.loads(body)
        assert (after["cursor"], after["seq"]) == (before["cursor"], before["seq"])
        # The next valid batch applies.
        status, _, body = _post_ndjson(
            base, doc["events_url"], b'{"event":"advance","cycle":5}\n'
        )
        assert status == 200
        _, _, body = _get(base, doc["status_url"])
        assert json.loads(body)["cursor"] == 5

    def test_illegal_event_yields_error_record_not_corruption(
        self, make_service
    ):
        base, _, _ = make_service()
        sid = _register(base)
        _, _, body = _post(
            base, "/v1/session", {"scenario": sid, "heuristic": "slrh1"}
        )
        doc = json.loads(body)
        status, _, body = _post_ndjson(
            base, doc["events_url"], b'{"event":"advance","cycle":10}\n'
        )
        assert status == 200
        # Time travel: 200 with an error record, batch stops there.
        status, _, body = _post_ndjson(
            base,
            doc["events_url"],
            b'{"event":"advance","cycle":5}\n{"event":"advance","cycle":12}\n',
        )
        assert status == 200
        error = json.loads(body.splitlines()[0])
        assert error["record"] == "error" and error["event_index"] == 0
        # The session survives and keeps streaming.
        status, _, body = _post_ndjson(
            base, doc["events_url"], b'{"event":"close","cycle":12}\n'
        )
        assert status == 200
        assert b'"record":"footer"' in body
        # Batches after close answer with an error record too.
        status, _, body = _post_ndjson(
            base, doc["events_url"], b'{"event":"advance","cycle":20}\n'
        )
        assert status == 200
        assert json.loads(body.splitlines()[0])["record"] == "error"
        _, _, metrics = _get(base, "/metrics")
        counters = json.loads(metrics)["counters"]
        assert counters["session.event_errors"] == 2.0
        assert counters["session.closed"] == 1.0  # accounted exactly once


class TestSessionAdmission:
    def test_session_limit_answers_429(self, make_service):
        base, _, _ = make_service(max_sessions=1)
        sid = _register(base)
        status, _, _ = _post(base, "/v1/session", {"scenario": sid})
        assert status == 201
        status, headers, body = _post(base, "/v1/session", {"scenario": sid})
        assert status == 429
        assert headers["Retry-After"].isdigit()
        doc = json.loads(body)
        assert doc["active_sessions"] == 1
        assert doc["retry_after"] == int(headers["Retry-After"])

    def test_drain_answers_503(self, make_service):
        base, _, sessions = make_service()
        sid = _register(base)
        _, _, body = _post(base, "/v1/session", {"scenario": sid})
        doc = json.loads(body)
        sessions.drain()
        status, _, _ = _post(base, "/v1/session", {"scenario": sid})
        assert status == 503
        status, _, _ = _post_ndjson(
            base, doc["events_url"], b'{"event":"advance","cycle":1}\n'
        )
        assert status == 503

    def test_idle_sessions_are_evicted(self, make_service):
        base, manager, sessions = make_service(idle_timeout=0.05)
        sid = _register(base)
        _, _, body = _post(base, "/v1/session", {"scenario": sid})
        doc = json.loads(body)
        assert len(sessions) == 1
        time.sleep(0.1)
        # Any table access past the timeout sweeps the session out.
        status, _, _ = _get(base, doc["status_url"])
        assert status == 404
        assert len(sessions) == 0
        assert manager.perf.get("session.evicted") == 1.0


class TestServiceRegistryLock:
    def test_every_registry_write_holds_the_router_lock(
        self, make_service, monkeypatch
    ):
        """The router's service registry is what ``/metrics`` copies under
        the router lock, so every writer — admission, job completion and
        the whole session layer — must hold that lock too.  Drives open →
        error batch → close → a batch after close → eviction → map →
        ``/metrics``, and asks the lock witness whether the writing
        thread owns the lock."""
        base, manager, _ = make_service(idle_timeout=1.0)
        registry = manager.perf
        writes: list[str] = []
        unlocked: list[str] = []
        for method in ("inc", "set_gauge", "observe", "merge"):

            def checked(self, *args, _original=getattr(PerfCounters, method),
                        _method=method, **kwargs):
                if self is registry:
                    if _method == "merge":
                        other = args[0]
                        names = ["merge", *other] if isinstance(other, dict) else [
                            "merge", *other.snapshot(), *other.gauges_snapshot()
                        ]
                    else:
                        names = [args[0]]
                    writes.extend(names)
                    if not owns(manager._lock):
                        unlocked.extend(names)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(PerfCounters, method, checked)
        sid = _register(base)
        _, _, body = _post(
            base, "/v1/session", {"scenario": sid, "heuristic": "slrh1"}
        )
        doc = json.loads(body)
        batches = [
            b'{"event":"advance","cycle":10}\n',
            b'{"event":"advance","cycle":5}\n',  # time travel: one error
            b'{"event":"close","cycle":12}\n',
            b'{"event":"advance","cycle":20}\n',  # after close: one error
        ]
        for batch in batches:
            status, _, _ = _post_ndjson(base, doc["events_url"], batch)
            assert status == 200
        time.sleep(1.2)
        status, _, _ = _get(base, doc["status_url"])
        assert status == 404  # evicted
        status, _, body = _post(base, "/v1/map", {"scenario": sid})
        assert status == 200, body
        status, _, body = _get(base, "/metrics")
        assert status == 200
        assert unlocked == []
        for name in (
            "session.opened",
            "session.event_errors",
            "session.closed",
            "merge",
            "session.evicted",
            "session.active",
            "service.submitted",
            "service.completed",
        ):
            assert name in writes, name
        # Counted exactly once: one close, two rejected events, and the
        # engine's own counters (two applied events + close) merged once.
        counters = json.loads(body)["counters"]
        assert counters["session.closed"] == 1.0
        assert counters["session.event_errors"] == 2.0
        assert counters["session.events"] == 2.0
        assert counters["session.evicted"] == 1.0


    def test_concurrent_writers_and_scrapes_stay_exact(self, monkeypatch):
        """Stress: more writer threads than cores, a 1 µs switch interval,
        and a scraper copying the registry the whole time.  Every
        increment lands, no copy meets a dict growing under it, and each
        writing thread owns the router lock while it writes."""
        import sys

        manager = ShardRouter(ScenarioRegistry(), shards=1)  # never started
        n_threads, n_writes = 4, 5000
        errors: list[BaseException] = []
        done = threading.Event()
        unlocked: list[str] = []
        merge = PerfCounters.merge

        def checked_merge(self, other):
            if self is manager.perf and not owns(manager._lock):
                unlocked.append(threading.current_thread().name)
            return merge(self, other)

        monkeypatch.setattr(PerfCounters, "merge", checked_merge)

        def write(k: int) -> None:
            try:
                for i in range(n_writes):
                    manager.record_perf({"session.event_errors": 1, f"t{k}.{i % 50}": 1})
            except BaseException as exc:  # surfaced by the assertion below
                errors.append(exc)

        def scrape() -> None:
            try:
                while not done.is_set():
                    manager.metrics_document()
            except BaseException as exc:
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            scraper = threading.Thread(target=scrape)
            writers = [threading.Thread(target=write, args=(k,)) for k in range(n_threads)]
            scraper.start()
            for thread in writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
            done.set()
            scraper.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not scraper.is_alive()
        assert not any(thread.is_alive() for thread in writers)
        assert errors == []
        assert unlocked == []
        counters = manager.metrics_document()["counters"]
        assert counters["session.event_errors"] == n_threads * n_writes


class TestSessionLoadgen:
    def test_session_mode_loadgen_round_trip(self, make_service):
        from repro.service.loadgen import run_session_loadgen

        base, _, _ = make_service()
        artifact = run_session_loadgen(
            base, levels=(1, 2), n_tasks=16, seed=5, n_events=8, batch=3,
            max_cycle=40,
        )
        assert artifact["mode"] == "session"
        for level in artifact["levels"]:
            assert level["errors"] == 0
            assert level["sessions"] == level["clients"]
            assert level["delta_lines"] > 0


def _oracle_scheduler():
    from repro.core.objective import Weights
    from repro.heuristics import make_scheduler

    return make_scheduler("slrh1", Weights.from_alpha_beta(0.5, 0.2))
