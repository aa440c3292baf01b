"""Fault injection against the scheduling daemon.

Each case forces one fault and asserts a defined outcome: shard children
that exit with a killed daemon, jobs that fail (never hang) when their
shard is killed mid-job, and a 400 (never a dropped connection) for a
request body the JSON parser cannot decode, one that ends before its
``Content-Length`` or one that is not UTF-8."""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from urllib.parse import urlsplit

import pytest

from repro.heuristics import generate_named_scenario
from repro.io.serialization import scenario_to_dict
from repro.service.app import make_server
from repro.service.jobs import ShardRouter
from repro.service.registry import ScenarioRegistry

ROOT = Path(__file__).resolve().parents[1]

#: Seconds a killed process's shards (or a killed shard's jobs) get to
#: reach their defined end state.
FAULT_DEADLINE = 10.0

#: 10 KB of ``[[[…]]]``: json.loads raises RecursionError, not ValueError.
NESTED_JSON = b"[" * 5000 + b"]" * 5000


def _running(pid: int) -> bool:
    """Whether *pid* is a live process.  A zombie (dead, waiting for its
    new parent to reap it) is not."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as stat:
            state = stat.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return True  # no /proc here, or it just exited: the next probe tells
    return state not in ("Z", "X")


def _wait_until_gone(pids: list[int], timeout: float) -> list[int]:
    """Poll until every pid has exited; returns those still running."""
    deadline = time.monotonic() + timeout
    while True:
        alive = [pid for pid in pids if _running(pid)]
        if not alive or time.monotonic() >= deadline:
            return alive
        time.sleep(0.05)


@pytest.fixture()
def served():
    """A live two-shard service on an ephemeral port."""
    registry = ScenarioRegistry()
    manager = ShardRouter(registry, shards=2, max_queue=8)
    server = make_server("127.0.0.1", 0, manager)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", manager
    server.shutdown()
    thread.join(timeout=10)
    server.server_close()
    manager.close(drain_timeout=0)


def _post_raw(base: str, path: str, body: bytes) -> tuple[int, dict]:
    url = urlsplit(base)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=30)
    try:
        conn.request("POST", path, body=body)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def _post_truncated(base: str, path: str, body: bytes) -> tuple[int, str, dict]:
    """POST *body* with a ``Content-Length`` 10 bytes longer, then
    half-close: the client will send nothing more."""
    url = urlsplit(base)
    with socket.create_connection((url.hostname, url.port), timeout=30) as sock:
        sock.sendall(
            f"POST {path} HTTP/1.1\r\nHost: {url.hostname}\r\n"
            f"Content-Length: {len(body) + 10}\r\n\r\n".encode() + body
        )
        sock.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, payload = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), head.decode("latin-1"), json.loads(payload)


def _open_session(base: str) -> dict:
    status, doc = _post_raw(
        base,
        "/v1/scenarios",
        json.dumps({"generate": {"n_tasks": 12, "seed": 1}}).encode(),
    )
    assert status == 201
    status, doc = _post_raw(
        base,
        "/v1/session",
        json.dumps({"scenario": doc["id"], "heuristic": "greedy"}).encode(),
    )
    assert status == 201, doc
    return doc


def _cursor(base: str, session: dict) -> int:
    with urllib.request.urlopen(base + session["status_url"], timeout=30) as resp:
        return json.loads(resp.read())["cursor"]


def _healthz(base: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(base + "/healthz", timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


# ---------------------------------------------------------------------------
# a killed daemon


class TestDaemonKilled:
    def test_shards_exit_with_a_sigkilled_daemon(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0", "--shards", "2"],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        pids: list[int] = []
        try:
            line = daemon.stdout.readline()
            assert "listening on" in line, line
            base = line.split("listening on ", 1)[1].split()[0].rstrip("/")
            status, doc = _healthz(base)
            assert status == 200
            pids = [entry["pid"] for entry in doc["shards"]]
            assert len(pids) == 2 and all(_running(pid) for pid in pids)
            daemon.kill()
            daemon.wait(timeout=30)
            assert _wait_until_gone(pids, FAULT_DEADLINE) == []
        finally:
            daemon.kill()
            daemon.wait(timeout=30)
            daemon.stdout.close()
            for pid in pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)


# ---------------------------------------------------------------------------
# a shard killed mid-job


class TestShardKilledMidJob:
    def test_running_and_queued_jobs_fail_and_the_other_shard_serves(
        self, served
    ):
        base, manager = served
        registry = manager.registry
        big, _ = registry.put(scenario_to_dict(generate_named_scenario(1024, 7)))
        victim = manager.shard_for(big)
        for seed in range(1, 64):
            small, _ = registry.put(scenario_to_dict(generate_named_scenario(12, seed)))
            if manager.shard_of(small) != victim.index:
                break
        assert manager.shard_of(small) != victim.index

        first = manager.submit(big, "maxmax")
        # Another α, so neither later job attaches to the first.  The
        # victim has work and the other shard idles: the second spills.
        second = manager.submit(big, "maxmax", alpha=0.4)
        # Both shards have work now: the third queues behind the first.
        third = manager.submit(big, "maxmax", alpha=0.3)
        assert [job.shard for job in (first, second, third)] == [
            victim.index,
            1 - victim.index,
            victim.index,
        ]
        deadline = time.monotonic() + 60
        while first.state == "queued":
            assert time.monotonic() < deadline, "job never left the queue"
            time.sleep(0.001)
        # A job that fails before it runs ends the wait at once, and its
        # error is the message.
        assert first.state == "running", f"{first.state}: {first.error}"
        assert third.state == "queued"
        os.kill(victim.pid, signal.SIGKILL)
        killed_at = time.monotonic()
        for job in (first, third):
            assert job.done.wait(timeout=FAULT_DEADLINE), job.state
        assert time.monotonic() - killed_at < FAULT_DEADLINE
        for job in (first, third):
            assert job.state == "failed"
            assert "ShardCrashedError" in (job.error or "")
        assert second.done.wait(timeout=60)
        assert second.state == "succeeded", second.error

        other = manager.submit(small, "greedy")
        assert other.done.wait(timeout=60)
        assert other.state == "succeeded", other.error
        status, doc = _healthz(base)
        assert status == 503 and doc["status"] == "degraded"
        alive = {entry["shard"]: entry["alive"] for entry in doc["shards"]}
        assert alive == {victim.index: False, 1 - victim.index: True}
        assert manager.perf.get("service.failed") == 2
        assert manager.perf.get("service.spilled") == 1


# ---------------------------------------------------------------------------
# bodies the JSON parser cannot decode


class TestDeeplyNestedJson:
    @pytest.mark.parametrize(
        "route",
        ["/v1/scenarios", "/v1/map", "/v1/session", "/v1/session/{id}/events"],
    )
    def test_answers_400_and_the_daemon_keeps_serving(self, served, route):
        base, _ = served
        if "{id}" in route:
            route = route.format(id=_open_session(base)["session"])
        status, doc = _post_raw(base, route, NESTED_JSON)
        assert status == 400, doc
        assert "error" in doc
        status, _ = _healthz(base)
        assert status == 200


# ---------------------------------------------------------------------------
# bodies that end before their Content-Length (RFC 9112 §6.3)


class TestTruncatedBody:
    def test_scenario_registration_registers_nothing(self, served):
        base, manager = served
        body = json.dumps({"generate": {"n_tasks": 8, "seed": 1}}).encode()
        status, head, doc = _post_truncated(base, "/v1/scenarios", body)
        assert status == 400, doc
        assert "Connection: close" in head
        assert "ended after" in doc["error"]
        assert len(manager.registry) == 0
        assert _healthz(base)[0] == 200

    def test_map_submits_no_job(self, served):
        base, manager = served
        sid, _ = manager.registry.put(
            scenario_to_dict(generate_named_scenario(12, 1))
        )
        body = json.dumps({"scenario": sid, "heuristic": "greedy"}).encode()
        status, head, doc = _post_truncated(base, "/v1/map", body)
        assert status == 400, doc
        assert "Connection: close" in head
        assert manager.perf.get("service.submitted") == 0
        assert _healthz(base)[0] == 200

    def test_event_batch_cut_after_its_first_line_applies_nothing(self, served):
        base, _ = served
        session = _open_session(base)
        first = b'{"event":"advance","cycle":10}\n'
        status, head, doc = _post_truncated(base, session["events_url"], first)
        assert status == 400, doc
        assert "Connection: close" in head
        assert _cursor(base, session) == 0
        assert _healthz(base)[0] == 200


# ---------------------------------------------------------------------------
# bodies that are not UTF-8


class TestNonUtf8Body:
    def test_map_body_answers_400(self, served):
        base, manager = served
        status, doc = _post_raw(base, "/v1/map", b'{"scenario": "\xff"}')
        assert status == 400, doc
        assert manager.perf.get("service.submitted") == 0

    def test_event_line_answers_400_and_applies_nothing(self, served):
        base, _ = served
        session = _open_session(base)
        batch = b'{"event":"advance","cycle":10}\n{"event":"adv\xffance","cycle":12}\n'
        status, doc = _post_raw(base, session["events_url"], batch)
        assert status == 400, doc
        assert "line 2" in doc["error"]
        assert _cursor(base, session) == 0
        assert _healthz(base)[0] == 200
