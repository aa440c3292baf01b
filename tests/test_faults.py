"""Fault injection against the scheduling daemon.

Each case forces one fault and asserts a defined outcome: shard children
that exit with a killed daemon, jobs that fail (never hang) when their
shard is killed mid-job, and a 400 (never a dropped connection) for a
request body the JSON parser cannot decode."""

from __future__ import annotations

import http.client
import json
import os
import signal
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
        # Queued behind it on the same shard; another α, so it is not
        # attached to the first.
        second = manager.submit(big, "maxmax", alpha=0.4)
        deadline = time.monotonic() + 60
        while first.state != "running":
            assert time.monotonic() < deadline, first.state
            time.sleep(0.001)
        assert second.state == "queued"
        os.kill(victim.pid, signal.SIGKILL)
        killed_at = time.monotonic()
        for job in (first, second):
            assert job.done.wait(timeout=FAULT_DEADLINE), job.state
        assert time.monotonic() - killed_at < FAULT_DEADLINE
        for job in (first, second):
            assert job.state == "failed"
            assert "ShardCrashedError" in (job.error or "")

        other = manager.submit(small, "greedy")
        assert other.done.wait(timeout=60)
        assert other.state == "succeeded", other.error
        status, doc = _healthz(base)
        assert status == 503 and doc["status"] == "degraded"
        alive = {entry["shard"]: entry["alive"] for entry in doc["shards"]}
        assert alive == {victim.index: False, 1 - victim.index: True}
        assert manager.perf.get("service.failed") == 2


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
            route = route.format(id=doc["session"])
        status, doc = _post_raw(base, route, NESTED_JSON)
        assert status == 400, doc
        assert "error" in doc
        status, _ = _healthz(base)
        assert status == 200
