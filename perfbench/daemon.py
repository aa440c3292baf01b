"""Drive a real ``python -m repro.service`` daemon from outside.

:class:`Daemon` boots the daemon as its own process (``--port 0 --shards
2``), reads its port off the ``listening`` line, and stops it with
SIGTERM (the daemon's graceful drain) before a run ends.  :class:`Client`
is one closed-loop client: one persistent HTTP/1.1 connection, reused
for every request the server keeps open (``http.client`` reconnects by
itself after a ``Connection: close`` reply, as on the session event
stream).  :class:`Probe` runs the host-speed probe beside them.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import BENCH_DIR, ROOT, SpeedTrace, vm_hwm_mb

SHARDS = 2
_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")
_BOOT_TIMEOUT_S = 60.0
_HTTP_TIMEOUT_S = 120.0
#: 429 retries before a request counts as a failed op.
MAX_RETRIES = 3


class Daemon:
    """One daemon process and its shard children."""

    def __init__(
        self,
        env: dict[str, str],
        log_path: Path,
        *,
        spans_dir: Path | None = None,
        max_sessions: int | None = None,
    ) -> None:
        if spans_dir is None:
            cmd = [sys.executable, "-m", "repro.service"]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "traced_daemon.py"), str(spans_dir)]
        cmd += ["--port", "0", "--shards", str(SHARDS)]
        if max_sessions is not None:
            cmd += ["--max-sessions", str(max_sessions)]
        self._cmd = cmd
        self._env = env
        self._log_path = log_path
        self._proc: subprocess.Popen | None = None
        self.port = 0
        self.shards: list[int] = []

    def start(self) -> None:
        """Spawn the daemon and block until it listens (shards forked)."""
        log = open(self._log_path, "ab")
        try:
            self._proc = subprocess.Popen(
                self._cmd,
                cwd=ROOT,
                env=self._env,
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
            )
        finally:
            log.close()
        watchdog = threading.Timer(_BOOT_TIMEOUT_S, self._proc.kill)
        watchdog.start()
        try:
            line = self._proc.stdout.readline()
        finally:
            watchdog.cancel()
        match = _LISTENING.search(line)
        if match is None:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}; see {self._log_path}")
        self.port = int(match.group(2))
        self.shards = self.shard_pids()

    @property
    def pid(self) -> int:
        return self._proc.pid if self._proc is not None else 0

    def stop(self) -> None:
        """SIGTERM (graceful drain), then make sure the process is gone."""
        proc = self._proc
        if proc is None:
            return
        self._proc = None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        # The daemon joins its shards on a clean stop; after a kill they
        # exit on their own once the command pipe closes.  Wait for both.
        deadline = time.monotonic() + 30
        for pid in self.shards:
            while _running(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            if _running(pid):
                os.kill(pid, signal.SIGKILL)

    def _get_json(self, path: str) -> dict:
        client = Client(self.port)
        try:
            status, _, body = client.request("GET", path)
        finally:
            client.close()
        if status != 200:
            raise RuntimeError(f"{path} answered {status}")
        return json.loads(body)

    def shard_pids(self) -> list[int]:
        return [int(shard["pid"]) for shard in self._get_json("/healthz")["shards"]]

    def metrics(self) -> dict:
        return self._get_json("/metrics")

    def peak_rss_mb(self) -> tuple[float, float]:
        """(daemon VmHWM, summed shard VmHWM) in MB; read before stop."""
        shards = sum(vm_hwm_mb(pid) for pid in self.shard_pids())
        return vm_hwm_mb(self.pid), shards


def _running(pid: int) -> bool:
    """Whether *pid* still runs (a zombie has ended)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


class Client:
    """A closed-loop HTTP/1.1 client on one keep-alive connection."""

    def __init__(self, port: int) -> None:
        self._conn = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=_HTTP_TIMEOUT_S
        )
        #: When the last reply's headers were read (``time.perf_counter``).
        self.headers_at = 0.0

    def request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        content_type: str = "application/json",
    ) -> tuple[int, dict[str, str], bytes]:
        """Send one request and read the whole reply body.  Raises
        ``OSError``/``HTTPException`` on transport failure (after closing
        the connection, so the next request reconnects)."""
        headers = {"Content-Type": content_type} if body is not None else {}
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            self.headers_at = time.perf_counter()
            payload = response.read()
        except (OSError, http.client.HTTPException):
            self._conn.close()
            raise
        return response.status, dict(response.getheaders()), payload

    def post_json(self, path: str, doc: dict) -> tuple[int, dict[str, str], bytes]:
        """POST *doc*, retrying a 429 up to :data:`MAX_RETRIES` times."""
        body = json.dumps(doc).encode("ascii")
        for attempt in range(MAX_RETRIES + 1):
            status, headers, payload = self.request("POST", path, body)
            if status != 429 or attempt == MAX_RETRIES:
                return status, headers, payload
            time.sleep(0.05 * (attempt + 1))
        raise AssertionError("unreachable")

    def close(self) -> None:
        self._conn.close()


class Probe:
    """The host-speed probe (``probe.py``), a side process for a whole run."""

    def __init__(self, env: dict[str, str]) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "probe.py")],
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        if self._proc.stdout.readline().strip() != "ready":
            self.stop()
            raise RuntimeError("the speed probe did not start")

    def stop(self) -> SpeedTrace:
        """Close the probe's input, wait for it and return its samples."""
        try:
            out, _ = self._proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.communicate()
            raise
        return SpeedTrace([tuple(sample) for sample in json.loads(out)])


def load_spans(spans_dir: Path) -> list[dict]:
    """Every process's dumped span records (see ``tracer.Recorder``)."""
    return [json.loads(path.read_text()) for path in sorted(spans_dir.glob("spans-*.json"))]
