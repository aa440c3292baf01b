"""The scheduling service (:mod:`repro.service`): registry, job manager,
HTTP surface, backpressure, drain — and the differential determinism
contract against the batch CLI."""

from __future__ import annotations

import http.client
import json
import os
import queue
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.heuristics import HEURISTIC_NAMES, generate_named_scenario
from repro.io.serialization import (
    canonical_json_bytes,
    scenario_digest,
    scenario_to_dict,
)
from repro.service.app import (
    MAX_BODY_BYTES,
    MAX_GENERATE_TASKS,
    ServiceHandler,
    ServiceServer,
    make_server,
)
from repro.service.jobs import DrainingError, QueueFullError, ShardRouter
from repro.service.registry import ScenarioRegistry


def _scenario_doc(n_tasks=16, seed=3) -> dict:
    return scenario_to_dict(generate_named_scenario(n_tasks, seed))


# ---------------------------------------------------------------------------
# registry


class TestScenarioRegistry:
    def test_put_is_content_addressed(self):
        reg = ScenarioRegistry()
        doc = _scenario_doc()
        sid, created = reg.put(doc)
        assert created and sid.startswith("sha256:")
        assert sid == scenario_digest(doc)
        sid2, created2 = reg.put(json.loads(json.dumps(doc)))  # fresh dict, same content
        assert sid2 == sid and not created2
        assert len(reg) == 1 and sid in reg

    def test_rejects_malformed_documents(self):
        reg = ScenarioRegistry()
        with pytest.raises(ValueError):
            reg.put({"kind": "mapping"})
        doc = _scenario_doc()
        doc["etc"] = [[1.0]]  # shape mismatch vs dag/grid
        with pytest.raises(ValueError):
            reg.put(doc)
        assert len(reg) == 0

    def test_unknown_id_raises(self):
        reg = ScenarioRegistry()
        with pytest.raises(KeyError):
            reg.get_doc("sha256:missing")


# ---------------------------------------------------------------------------
# job manager (no HTTP)


class TestShardRouter:
    def test_submit_and_run(self):
        reg = ScenarioRegistry()
        sid, _ = reg.put(_scenario_doc())
        manager = ShardRouter(reg, shards=1, max_queue=4).start()
        try:
            job = manager.submit(sid, "slrh1", alpha=0.5, beta=0.2)
            assert job.done.wait(timeout=120)
            assert job.state == "succeeded"
            assert job.outcome["summary"]["n_mapped"] > 0
            assert job.mapping_bytes.endswith(b"\n")
            assert manager.perf.get("service.completed") == 1.0
            assert manager.perf.histogram("service.request_seconds").count == 1
        finally:
            manager.close(drain_timeout=10)

    def test_validation_happens_at_admission(self):
        reg = ScenarioRegistry()
        sid, _ = reg.put(_scenario_doc())
        manager = ShardRouter(reg, shards=1, max_queue=4)  # never started
        with pytest.raises(KeyError):
            manager.submit("sha256:unregistered", "slrh1")
        with pytest.raises(KeyError):
            manager.submit(sid, "frobnicate")
        with pytest.raises(ValueError):
            manager.submit(sid, "greedy", alpha=0.5)
        assert manager.queue_depth == 0

    def test_bounded_queue_rejects_with_retry_after(self):
        reg = ScenarioRegistry()
        sid, _ = reg.put(_scenario_doc())
        # Dispatcher intentionally NOT started: the queue cannot drain, so
        # saturation is deterministic.
        manager = ShardRouter(reg, shards=1, max_queue=2)
        manager.submit(sid, "slrh1")
        manager.submit(sid, "slrh2")
        with pytest.raises(QueueFullError) as exc_info:
            manager.submit(sid, "slrh3")
        assert exc_info.value.retry_after >= 1
        assert exc_info.value.depth == 2
        assert manager.perf.get("service.rejected") == 1.0
        # The backlog never grew past the bound.
        assert manager.queue_depth == 2
        # Start the dispatcher: the queued jobs drain and complete.
        manager.start()
        assert manager.drain(timeout=120)
        assert all(
            manager.get(f"job-{i:08d}").state == "succeeded" for i in (1, 2)
        )
        manager.close(drain_timeout=10)

    def test_drain_blocks_until_idle_then_rejects(self):
        reg = ScenarioRegistry()
        sid, _ = reg.put(_scenario_doc())
        manager = ShardRouter(reg, shards=1, max_queue=8).start()
        jobs = [manager.submit(sid, "greedy") for _ in range(3)]
        assert manager.drain(timeout=120)
        assert all(j.state == "succeeded" for j in jobs)
        assert manager.queue_depth == 0 and manager.inflight == 0
        with pytest.raises(DrainingError):
            manager.submit(sid, "greedy")
        assert manager.perf.get("service.rejected_draining") == 1.0
        manager.close(drain_timeout=10)

    def test_metrics_document_schema(self):
        reg = ScenarioRegistry()
        sid, _ = reg.put(_scenario_doc())
        manager = ShardRouter(reg, shards=1, max_queue=4).start()
        try:
            manager.submit(sid, "slrh1").done.wait(timeout=120)
            doc = manager.metrics_document()
            assert doc["schema"] == "repro.perf/2"
            assert doc["gauges"]["service.queue_depth"] == 0.0
            assert doc["gauges"]["registry.scenarios"] == 1.0
            hist = doc["histograms"]["service.request_seconds"]
            assert hist["count"] == 1 and hist["p50"] > 0.0
            # Engine counters from the job's run were merged in.
            assert doc["counters"]["map.runs"] == 1.0
            assert doc["counters"]["plan.pairs"] > 0
        finally:
            manager.close(drain_timeout=10)


# ---------------------------------------------------------------------------
# HTTP surface


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


@pytest.fixture()
def service():
    """A live service on an ephemeral port (one shard process, small queue)."""
    manager = ShardRouter(ScenarioRegistry(), shards=1, max_queue=16)
    server = make_server("127.0.0.1", 0, manager)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", manager
    manager.drain(timeout=60)
    server.shutdown()
    thread.join(timeout=10)
    server.server_close()
    manager.close(drain_timeout=0)


class TestHTTPSurface:
    def test_register_map_and_jobs(self, service):
        base, _ = service
        status, _, body = _post(base, "/v1/scenarios", _scenario_doc())
        assert status == 201
        reg_doc = json.loads(body)
        assert reg_doc["created"] and reg_doc["n_tasks"] == 16
        sid = reg_doc["id"]
        # duplicate registration: 200, same id
        status, _, body = _post(base, "/v1/scenarios", _scenario_doc())
        assert status == 200 and json.loads(body)["id"] == sid
        # server-side generation converges on the same content address
        status, _, body = _post(
            base, "/v1/scenarios", {"generate": {"n_tasks": 16, "seed": 3}}
        )
        assert status == 200 and json.loads(body)["id"] == sid

        # synchronous map returns the mapping document directly
        status, headers, mapping = _post(
            base, "/v1/map", {"scenario": sid, "heuristic": "SLRH-3"}
        )
        assert status == 200
        doc = json.loads(mapping)
        assert doc["kind"] == "mapping" and doc["assignments"]
        job_id = headers["X-Job-Id"]

        # job endpoints agree
        status, _, body = _get(base, f"/v1/jobs/{job_id}")
        assert status == 200
        job_doc = json.loads(body)
        assert job_doc["state"] == "succeeded"
        assert job_doc["heuristic"] == "slrh3"
        assert job_doc["summary"]["n_tasks"] == 16
        status, _, result = _get(base, f"/v1/jobs/{job_id}/result")
        assert status == 200 and result == mapping

        status, _, body = _get(base, "/v1/scenarios")
        assert status == 200 and json.loads(body)["scenarios"] == [sid]

    def test_async_map_with_ndjson_events(self, service):
        base, _ = service
        _, _, body = _post(base, "/v1/scenarios", _scenario_doc())
        sid = json.loads(body)["id"]
        status, _, body = _post(
            base, "/v1/map", {"scenario": sid, "heuristic": "slrh1", "wait": False}
        )
        assert status == 202
        pending = json.loads(body)
        assert pending["job"].startswith("job-")
        status, headers, stream = _get(base, pending["events_url"])
        assert status == 200
        assert headers["Content-Type"] == "application/x-ndjson"
        events = [json.loads(line) for line in stream.splitlines() if line]
        kinds = [e["event"] for e in events]
        assert kinds[0] == "status"
        assert kinds[-1] == "done" and events[-1]["state"] == "succeeded"
        commits = [e for e in events if e["event"] == "commit"]
        assert commits and {"clock", "task", "machine", "t100"} <= set(commits[0])
        (trace,) = [e for e in events if e["event"] == "trace"]
        assert trace["commits"] == len(commits)

    def test_every_heuristic_streams_one_commit_per_task(self, service):
        """Every registry heuristic's job streams one ``commit`` event per
        task and a ``trace`` summary counting them, and each map reaches
        /metrics once: ``map.runs`` is the completed jobs, ``commit.count``
        the tasks they mapped."""
        base, _ = service
        _, _, body = _post(base, "/v1/scenarios", _scenario_doc(32, 7))
        sid = json.loads(body)["id"]
        mapped = 0
        for heuristic in HEURISTIC_NAMES:
            status, _, body = _post(
                base,
                "/v1/map",
                {"scenario": sid, "heuristic": heuristic, "wait": False},
            )
            assert status == 202
            pending = json.loads(body)
            _, _, stream = _get(base, pending["events_url"])
            events = [json.loads(line) for line in stream.splitlines() if line]
            assert events[-1]["state"] == "succeeded", heuristic
            commits = [e for e in events if e["event"] == "commit"]
            (trace,) = [e for e in events if e["event"] == "trace"]
            assert len(commits) == trace["commits"] == 32, heuristic
            _, _, body = _get(base, pending["status_url"])
            mapped += json.loads(body)["summary"]["n_mapped"]
        _, _, body = _get(base, "/metrics")
        counters = json.loads(body)["counters"]
        assert counters["map.runs"] == counters["service.completed"] == len(
            HEURISTIC_NAMES
        )
        assert counters["commit.count"] == mapped

    def test_error_statuses(self, service):
        base, _ = service
        status, _, _ = _post(base, "/v1/map", {"scenario": "sha256:nope"})
        assert status == 404
        _, _, body = _post(base, "/v1/scenarios", _scenario_doc())
        sid = json.loads(body)["id"]
        status, _, _ = _post(base, "/v1/map", {"scenario": sid, "heuristic": "bogus"})
        assert status == 404
        status, _, _ = _post(
            base, "/v1/map", {"scenario": sid, "heuristic": "greedy", "alpha": 0.5}
        )
        assert status == 400
        status, _, _ = _post(base, "/v1/map", {})
        assert status == 400
        status, _, _ = _post(base, "/v1/scenarios", {"kind": "other"})
        assert status == 400
        status, _, _ = _get(base, "/v1/jobs/job-99999999")
        assert status == 404
        status, _, _ = _get(base, "/nope")
        assert status == 404

    def test_healthz_and_metrics_under_traffic(self, service):
        base, _ = service
        _, _, body = _post(base, "/v1/scenarios", _scenario_doc())
        sid = json.loads(body)["id"]
        for heuristic in ("slrh1", "minmin"):
            status, _, _ = _post(base, "/v1/map", {"scenario": sid, "heuristic": heuristic})
            assert status == 200
        status, _, body = _get(base, "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "ok" and health["scenarios"] == 1
        status, _, body = _get(base, "/metrics")
        assert status == 200
        metrics = json.loads(body)
        assert metrics["schema"] == "repro.perf/2"
        assert metrics["counters"]["service.completed"] == 2.0
        assert metrics["gauges"]["service.queue_depth"] == 0.0
        assert metrics["counters"]["plan.pairs"] > 0  # merged engine counters
        lat = metrics["histograms"]["service.request_seconds"]
        assert lat["count"] == 2
        assert lat["p50"] <= lat["p95"] <= lat["p99"]

    def test_queue_saturation_returns_429_over_http(self):
        manager = ShardRouter(ScenarioRegistry(), shards=1, max_queue=1)
        # Dispatcher NOT started: saturation is deterministic.
        server = ServiceServer(("127.0.0.1", 0), manager)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            _, _, body = _post(base, "/v1/scenarios", _scenario_doc())
            sid = json.loads(body)["id"]
            payload = {"scenario": sid, "heuristic": "slrh1", "wait": False}
            status, _, _ = _post(base, "/v1/map", payload)
            assert status == 202
            # Another α: a miss, which needs the full queue (a repeat of
            # the queued request would attach to it instead).
            status, headers, body = _post(
                base, "/v1/map", {**payload, "alpha": 0.4}
            )
            assert status == 429
            # RFC 9110 delta-seconds: a plain decimal string, no float repr.
            assert headers["Retry-After"].isdigit()
            assert int(headers["Retry-After"]) >= 1
            doc = json.loads(body)
            assert doc["queue_depth"] == 1
            # Body keeps the integer too — loadgen backs off on this field.
            assert doc["retry_after"] == int(headers["Retry-After"])
            # Draining rejects with 503, not 429.
            manager.start()
            assert manager.drain(timeout=120)
            status, _, _ = _post(base, "/v1/map", payload)
            assert status == 503
        finally:
            server.shutdown()
            thread.join(timeout=10)
            server.server_close()
            manager.close(drain_timeout=0)


def _raw_post(base: str, path: str, content_length: str, timeout: float = 5.0):
    """Send only the request head of a POST declaring *content_length*
    (no body) on a keep-alive connection and return (status, body) of the
    reply — which must arrive within *timeout*, without the client ever
    closing its side."""
    host, port = base.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=timeout) as sock:
        sock.sendall(
            f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {content_length}\r\n\r\n".encode()
        )
        reply = b""
        while b"\r\n\r\n" not in reply:
            chunk = sock.recv(65536)
            assert chunk, "connection closed before a reply"
            reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines[1:])
        while len(body) < int(headers["Content-Length"]):
            body += sock.recv(65536)
        assert headers.get("Connection") == "close"
        return int(lines[0].split()[1]), json.loads(body)


class TestRequestValidation:
    """Bad request contents are a 400 before anything is admitted or
    generated: weights off the simplex on ``/v1/map`` (as
    ``/v1/session`` already answers), and generate specs that overflow
    or exceed :data:`MAX_GENERATE_TASKS`."""

    @pytest.mark.parametrize("wait", [True, False])
    @pytest.mark.parametrize(
        "weights",
        [{"alpha": 2.0}, {"alpha": -1.0, "beta": 0.2}, {"alpha": float("nan")}],
        ids=["sum-above-1", "negative", "nan"],
    )
    def test_bad_weights_are_400_before_admission(self, service, weights, wait):
        base, manager = service
        _, _, body = _post(base, "/v1/scenarios", _scenario_doc(12, 1))
        sid = json.loads(body)["id"]
        request = {"scenario": sid, "heuristic": "slrh1", "wait": wait, **weights}
        status, _, body = _post(base, "/v1/map", request)
        assert status == 400, body
        assert manager.perf.get("service.submitted") == 0
        assert manager.perf.get("service.failed") == 0

    @pytest.mark.parametrize(
        "spec",
        [
            {"n_tasks": float("inf")},
            {"n_tasks": 12, "seed": float("inf")},
            {"n_tasks": 1e300},
            {"n_tasks": MAX_GENERATE_TASKS + 1},
        ],
        ids=["inf-tasks", "inf-seed", "huge-tasks", "above-cap"],
    )
    def test_unbounded_generate_spec_is_400(self, service, spec):
        base, _ = service
        status, _, body = _post(base, "/v1/scenarios", {"generate": spec}, timeout=30)
        assert status == 400, body
        assert json.loads(body)["error"].startswith("bad generate spec")
        status, _, _ = _post(
            base, "/v1/scenarios", {"generate": {"n_tasks": 12, "seed": 1}}
        )
        assert status == 201


class TestBodyLimits:
    """Every request body goes through one bounded reader: a negative or
    non-integer Content-Length is a 400 and one past the cap a 413, both
    answered without reading (or waiting for) the body; a body that
    stalls past the socket timeout is a 408."""

    @pytest.mark.parametrize("path", ["/v1/map", "/v1/session/s1/events"])
    def test_negative_length_is_400_without_waiting(self, service, path):
        base, _ = service
        status, doc = _raw_post(base, path, "-1", timeout=2.0)
        assert status == 400
        assert "Content-Length" in doc["error"]

    def test_non_integer_length_is_400(self, service):
        base, _ = service
        status, doc = _raw_post(base, "/v1/scenarios", "lots", timeout=2.0)
        assert status == 400
        assert "lots" in doc["error"]

    @pytest.mark.parametrize("path", ["/v1/scenarios", "/v1/session/s1/events"])
    def test_oversized_length_is_413(self, service, path):
        base, _ = service
        status, doc = _raw_post(base, path, str(MAX_BODY_BYTES + 1), timeout=2.0)
        assert status == 413
        assert doc["max_bytes"] == MAX_BODY_BYTES

    @pytest.mark.parametrize("path", ["/v1/map", "/v1/session/s1/events"])
    def test_stalled_body_is_408(self, service, path, monkeypatch):
        monkeypatch.setattr(ServiceHandler, "timeout", 0.5)
        base, _ = service
        status, doc = _raw_post(base, path, "100", timeout=5.0)
        assert status == 408
        assert "not received" in doc["error"]


class TestKeepAliveLatency:
    """A reply's header block and body leave in separate writes.  With
    Nagle's algorithm on, the body of every keep-alive reply after the
    first waited for the client's delayed ACK (40 ms or more on Linux);
    with TCP_NODELAY a reply takes what its handler takes."""

    def test_keep_alive_replies_do_not_wait_for_delayed_ack(self, service):
        base, _ = service
        host, port = base.removeprefix("http://").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=30)

        def median_ms(method: str, path: str, doc: dict | None = None) -> float:
            body = None if doc is None else json.dumps(doc)
            latencies = []
            for _ in range(20):
                started = time.perf_counter()
                conn.request(method, path, body)
                resp = conn.getresponse()
                resp.read()
                latencies.append(time.perf_counter() - started)
                assert resp.status == 200
            return statistics.median(latencies) * 1e3

        try:
            conn.request("POST", "/v1/scenarios", json.dumps(_scenario_doc(12, 1)))
            sid = json.loads(conn.getresponse().read())["id"]
            assert median_ms("GET", "/v1/scenarios") < 20.0
            assert median_ms("POST", "/v1/map", {"scenario": sid}) < 20.0
        finally:
            conn.close()


def _reset(sock: socket.socket) -> None:
    """Close *sock* with an RST rather than a FIN (linger on, 0 s)."""
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    sock.close()


class TestClientReset:
    """A client that resets its connection, idle between keep-alive
    requests or while it waits for its map, is a quiet close:
    socketserver's ``handle_error`` (a traceback on stderr) is never
    called, and the job still completes once."""

    @pytest.fixture()
    def watched(self, service, monkeypatch):
        """The service, every ``handle_error`` call, and the client address
        of each connection the server has finished with."""
        errors: list = []
        finished: queue.Queue = queue.Queue()
        monkeypatch.setattr(
            ServiceServer,
            "handle_error",
            lambda self, request, address: errors.append(sys.exc_info()[1]),
        )
        process = ServiceServer.process_request_thread

        def process_and_note(self, request, address):
            process(self, request, address)
            finished.put(address)

        monkeypatch.setattr(ServiceServer, "process_request_thread", process_and_note)
        return service, errors, finished

    @staticmethod
    def _wait_closed(finished: queue.Queue, address: tuple) -> None:
        while finished.get(timeout=30) != address:
            pass

    def test_reset_while_idle(self, watched):
        (base, _), errors, finished = watched
        host, port = base.removeprefix("http://").split(":")
        sock = socket.create_connection((host, int(port)), timeout=5.0)
        address = sock.getsockname()
        sock.sendall(f"GET /v1/scenarios HTTP/1.1\r\nHost: {host}\r\n\r\n".encode())
        reply = b""
        while not reply.endswith(b'{"scenarios":[]}\n'):
            chunk = sock.recv(65536)
            assert chunk, "connection closed before the reply"
            reply += chunk
        _reset(sock)
        self._wait_closed(finished, address)
        assert errors == []

    def test_reset_before_the_reply(self, watched, monkeypatch):
        (base, manager), errors, finished = watched
        _, _, body = _post(base, "/v1/scenarios", _scenario_doc(12, 1))
        sid = json.loads(body)["id"]
        # Hold the finished job's reply until the client has reset, so the
        # server always writes into a connection that is already gone.
        holding, reset = threading.Event(), threading.Event()
        job_result = ServiceHandler._job_result

        def after_reset(handler, job):
            holding.set()
            assert reset.wait(timeout=30)
            job_result(handler, job)

        monkeypatch.setattr(ServiceHandler, "_job_result", after_reset)
        host, port = base.removeprefix("http://").split(":")
        sock = socket.create_connection((host, int(port)), timeout=5.0)
        address = sock.getsockname()
        payload = json.dumps({"scenario": sid, "heuristic": "slrh1"}).encode()
        sock.sendall(
            f"POST /v1/map HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n".encode() + payload
        )
        assert holding.wait(timeout=60)
        _reset(sock)
        reset.set()
        self._wait_closed(finished, address)
        assert errors == []
        assert manager.perf.get("service.completed") == 1.0


class TestRetryAfterHeaderType:
    """The 429 Retry-After header must hit the wire as RFC 9110
    delta-seconds — a decimal string — regardless of how the queue's
    integer estimate reaches the handler, and the same integer must stay
    in the JSON body for clients that back off on ``retry_after``."""

    @pytest.mark.parametrize("estimate,expected", [(7, "7"), (12.0, "12")])
    def test_error_serialises_retry_after_at_the_boundary(
        self, estimate, expected
    ):
        import io

        from repro.service.app import ServiceHandler

        handler = object.__new__(ServiceHandler)
        sent: dict[str, object] = {}
        handler.send_response = lambda status: None  # type: ignore[method-assign]
        handler.send_header = (  # type: ignore[method-assign]
            lambda name, value: sent.__setitem__(name, value)
        )
        handler.end_headers = lambda: None  # type: ignore[method-assign]
        handler.wfile = io.BytesIO()  # type: ignore[assignment]
        handler._error(429, "job queue full", retry_after=estimate, queue_depth=3)
        assert sent["Retry-After"] == expected
        assert isinstance(sent["Retry-After"], str)
        body = json.loads(handler.wfile.getvalue())
        assert body["retry_after"] == estimate
        assert body["queue_depth"] == 3


# ---------------------------------------------------------------------------
# differential determinism: service bytes == batch CLI bytes


class TestDifferentialDeterminism:
    @pytest.fixture(scope="class")
    def served_mappings(self):
        """Every registry heuristic served once for one fixed scenario+seed."""
        manager = ShardRouter(ScenarioRegistry(), shards=1, max_queue=32)
        server = make_server("127.0.0.1", 0, manager)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        served = {}
        try:
            _, _, body = _post(
                base, "/v1/scenarios", {"generate": {"n_tasks": 16, "seed": 3}}
            )
            sid = json.loads(body)["id"]
            for heuristic in HEURISTIC_NAMES:
                status, _, mapping = _post(
                    base, "/v1/map", {"scenario": sid, "heuristic": heuristic}
                )
                assert status == 200, mapping
                served[heuristic] = mapping
        finally:
            manager.drain(timeout=120)
            server.shutdown()
            thread.join(timeout=10)
            server.server_close()
            manager.close(drain_timeout=0)
        return served

    @pytest.mark.parametrize("heuristic", HEURISTIC_NAMES)
    def test_service_matches_batch_cli_byte_for_byte(
        self, served_mappings, heuristic, tmp_path
    ):
        from repro.experiments.__main__ import main as cli_main

        out = tmp_path / f"{heuristic}.json"
        rc = cli_main(
            ["map", "--generate", "16", "--seed", "3",
             "--heuristic", heuristic, "--out", str(out)]
        )
        assert rc == 0
        assert out.read_bytes() == served_mappings[heuristic]

    def test_mapping_bytes_are_canonical(self, served_mappings):
        for payload in served_mappings.values():
            assert payload == canonical_json_bytes(json.loads(payload))


# ---------------------------------------------------------------------------
# the daemon process: boot, serve, SIGTERM drain


class TestDaemonProcess:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0", "--shards", "1"],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "listening on" in line, line
            base = line.split("listening on ", 1)[1].split()[0].rstrip("/")
            status, _, body = _post(
                base, "/v1/scenarios", {"generate": {"n_tasks": 12, "seed": 1}}
            )
            assert status == 201
            sid = json.loads(body)["id"]
            status, _, mapping = _post(base, "/v1/map", {"scenario": sid})
            assert status == 200 and json.loads(mapping)["kind"] == "mapping"
            status, _, body = _get(base, "/metrics")
            assert status == 200 and json.loads(body)["counters"]
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        except BaseException:
            proc.kill()
            raise
        assert proc.returncode == 0, out
        assert "drained" in out and "1 jobs completed" in out


# ---------------------------------------------------------------------------
# load generator


class TestLoadgen:
    def test_run_loadgen_self_hosted(self, tmp_path):
        from repro.service.loadgen import main as loadgen_main

        out = tmp_path / "bench" / "BENCH_service.json"
        rc = loadgen_main(
            ["--clients", "1,2", "--requests", "2", "--n-tasks", "12",
             "--seed", "1", "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro.bench.service/1"
        assert [lvl["clients"] for lvl in doc["levels"]] == [1, 2]
        for lvl in doc["levels"]:
            assert lvl["errors"] == 0
            assert lvl["requests"] == lvl["clients"] * 2
            assert lvl["throughput_rps"] > 0
            lat = lvl["latency_seconds"]
            assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"]
        after = doc["metrics_after"]
        assert after["counters"]["service.completed"] == 6.0
        assert "service.request_seconds" in after["histograms"]

    def test_alpha_steps_leave_the_loadgen_maps_unchanged(self):
        """Loadgen's per-request α, DEFAULT_ALPHA − n·ALPHA_STEP, maps each
        scenario the loadgen sends (16, 24 and 32 tasks, spread over four
        shards from seed 7) to its default-weight bytes, for n up to 4096:
        above the 3,584 requests of the sweep behind BENCH_service.json."""
        from repro.heuristics import DEFAULT_ALPHA, WEIGHTED_HEURISTICS, run_heuristic
        from repro.io.serialization import mapping_to_dict
        from repro.service.loadgen import ALPHA_STEP, spread_seeds

        def mapped(heuristic, scenario, alpha=None):
            schedule = run_heuristic(heuristic, scenario, alpha=alpha).schedule
            return canonical_json_bytes(mapping_to_dict(schedule))

        for n_tasks in (16, 24, 32):
            for seed in spread_seeds(4, n_tasks, 7):
                scenario = generate_named_scenario(n_tasks, seed)
                for heuristic in WEIGHTED_HEURISTICS:
                    default = mapped(heuristic, scenario)
                    for n in (1, 4096):
                        shifted = mapped(heuristic, scenario, DEFAULT_ALPHA - n * ALPHA_STEP)
                        assert shifted == default, (n_tasks, seed, heuristic, n)
