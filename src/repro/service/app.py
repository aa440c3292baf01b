"""HTTP surface of the scheduling service (stdlib ``http.server``).

Routes (all bodies JSON; streaming endpoints NDJSON):

``POST /v1/scenarios``
    Register a scenario document (``scenario_to_dict`` form), or generate
    one server-side from ``{"generate": {"n_tasks": N, "seed": S}}`` via
    the same constructor the batch CLI uses.  201 on first registration,
    200 for a duplicate (content-addressed: same bytes → same id).
``POST /v1/map``
    Run a registry heuristic on a registered scenario.  Default is
    synchronous: the response body is the canonical mapping JSON,
    byte-identical to ``python -m repro.experiments map``.  With
    ``"wait": false`` returns 202 and a job id to poll.  A repeat of a
    request the router still holds is answered from that job, and a
    duplicate of one in flight waits on it; each gets its own job id.
    Backpressure: 429 + ``Retry-After`` when the target shard's bounded
    queue is full, 503 while draining.
``GET /v1/jobs/<id>``
    Job status document.
``GET /v1/jobs/<id>/result``
    Canonical mapping JSON of a finished job (409 while running).
``GET /v1/jobs/<id>/events``
    NDJSON stream: ``status`` heartbeats while the job is queued/running,
    then the tick-level ``commit`` trace events of the finished mapping,
    a ``trace`` summary and a final ``done`` record.
``GET /v1/scenarios``
    Registered scenario ids.
``POST /v1/session``
    Open a live-grid streaming session on a registered scenario: one
    persistent schedule (and, for the SLRH family, one persistent
    scheduling kernel fed by precise event deltas) that survives across
    requests.  The body names the scenario, heuristic, optional (α, β)
    and — SLRH family only — ``delta_t_cycles`` / ``horizon_cycles`` /
    ``kernel`` overrides plus a ``pending`` list of held task ids that
    arrive later via ``task_arrival`` events.  429 when the bounded
    session table is full, 503 while draining.
``POST /v1/session/<id>/events``
    Stream grid events in (NDJSON request body, one
    :mod:`repro.session.events` document per line, each at most
    :data:`MAX_EVENT_LINE_BYTES`); mapping deltas
    stream out (NDJSON response): per event one delta block — new or
    changed assignments only (:mod:`repro.session.codec`, the one
    NDJSON mapping stream) — and after ``close`` a final footer.  A
    rejected event yields one ``error`` record and ends the response;
    the session itself survives (events apply atomically).
``GET /v1/session/<id>``
    Session status document (cursor, delta ``seq``, mapped count,
    still-pending arrivals; final summary once closed).
``GET /v1/session/<id>/result``
    Canonical mapping JSON of a *closed* session (409 while open) —
    byte-identical to an offline replay of the same event stream.
``GET /v1/sessions``
    Live session ids.
``GET /healthz``
    Liveness + drain state, plus one entry per shard (pid, queue depth,
    busy, seconds since the last heartbeat).  503 the moment any shard
    process is dead — jobs routed there fail fast, so the probe should
    too.
``GET /metrics``
    The live ``repro.perf/2`` registry: engine counters merged from every
    completed job (pool builds, plan pairs …), service gauges (queue depth,
    in-flight) and latency histograms with p50/p95/p99.  Content
    negotiated: JSON by default; ``Accept: text/plain`` or
    ``?format=prom`` returns Prometheus text exposition
    (:func:`repro.obs.prom.render_prometheus`) for scrapers.

When the structured event log is configured (``--obs-log`` /
``REPRO_OBS_LOG``), every request emits one ``http.request`` NDJSON
record with method, path, status, latency and queue depth.

Threading model: :class:`ThreadingHTTPServer` gives one handler thread per
connection; synchronous ``/v1/map`` handlers block on the job's completion
event while the shard dispatchers (one thread + one resident child
process per shard, at any shard count) drain their bounded queues.  A
miss queues on its scenario-affine shard unless that shard has work
while another live shard is idle; then it runs on the idle one.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.io.serialization import canonical_json_bytes
from repro.obs.log import enabled as _obs_enabled
from repro.obs.log import get_logger
from repro.obs.prom import render_prometheus
from repro.service.jobs import DrainingError, Job, QueueFullError, ShardRouter
from repro.service.sessions import SessionLimitError, SessionManager
from repro.session import event_from_dict

#: Seconds between NDJSON ``status`` heartbeats while a job is pending.
EVENT_HEARTBEAT_SECONDS = 1.0

#: Largest request body the daemon reads (a |T| = 1024 scenario document
#: is about 0.17 MB); a longer declared ``Content-Length`` gets a 413.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Largest ``n_tasks`` a ``{"generate": ...}`` registration may ask for:
#: the generated document (11.8 MiB at 65,536 tasks) still fits in an
#: upload of :data:`MAX_BODY_BYTES`.  A larger spec gets a 400.
MAX_GENERATE_TASKS = 65536

#: Longest line of a ``/v1/session/<id>/events`` batch; a valid event
#: line is under 100 bytes.  A longer line gets a 400 before it is parsed.
MAX_EVENT_LINE_BYTES = 4096

#: Bound on every socket read and write of a connection.  A client that
#: stops sending mid-body gets a 408; an idle keep-alive connection is
#: closed.  Waiting on a map or a shard RPC is not a socket operation,
#: so a long map never times out.
SOCKET_TIMEOUT_SECONDS = 60.0

_LOG = get_logger("service.http")


class ServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service state.

    No ``# guarded-by:`` annotations here on purpose: every attribute is
    written once before ``serve_forever`` and read-only afterwards, and
    all cross-thread mutable state lives behind the manager's and
    registry's own locks.  Handlers hold only per-connection state.
    """

    daemon_threads = True
    allow_reuse_address = True
    # The socketserver default accept backlog (5) drops connections under
    # the 64-256-client loadgen levels the shard layer is built for; the
    # kernel clamps this to somaxconn, so a large value is safe anywhere.
    request_queue_size = 512

    def __init__(
        self,
        address: tuple[str, int],
        manager: ShardRouter,
        quiet: bool = True,
        sessions: SessionManager | None = None,
    ) -> None:
        super().__init__(address, ServiceHandler)
        self.manager = manager
        self.registry = manager.registry
        self.quiet = quiet
        self.sessions = (
            sessions
            if sessions is not None
            else SessionManager(manager.registry, router=manager)
        )
        self.started_at = time.monotonic()


def make_server(
    host: str,
    port: int,
    manager: ShardRouter,
    quiet: bool = True,
    sessions: SessionManager | None = None,
) -> ServiceServer:
    """Bind a :class:`ServiceServer` (port 0 → ephemeral) and start the
    manager's dispatcher."""
    server = ServiceServer((host, port), manager, quiet=quiet, sessions=sessions)
    manager.start()
    return server


class ServiceHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # A reply leaves in several writes (the header block, then the body or
    # one NDJSON line per write).  With Nagle's algorithm on, each write
    # after the first waits for the ACK of the one before, which a
    # keep-alive client delays by 40 ms or more.
    # StreamRequestHandler.setup() sets TCP_NODELAY on every connection.
    disable_nagle_algorithm = True
    timeout = SOCKET_TIMEOUT_SECONDS
    server: ServiceServer

    # -- plumbing ----------------------------------------------------------

    def handle(self) -> None:
        # A client that resets its connection, between keep-alive requests
        # or mid-response, is a quiet close rather than a traceback from
        # socketserver's handle_error.
        try:
            super().handle()
        except ConnectionError:
            pass

    def log_message(self, fmt: str, *args: object) -> None:  # pragma: no cover - log noise
        if not self.server.quiet:
            super().log_message(fmt, *args)

    @property
    def manager(self) -> ShardRouter:
        return self.server.manager

    def send_response(self, code: int, message: str | None = None) -> None:
        # Remember the status for the structured access log (the base class
        # offers no other hook between routing and response).
        self._obs_status = code
        super().send_response(code, message)

    def _access_log(self, method: str, started: float) -> None:
        if not _obs_enabled():
            return  # skip the queue-depth lock entirely when obs is off
        _LOG.event(
            "http.request",
            method=method,
            path=self.path,
            status=getattr(self, "_obs_status", 0),
            latency_seconds=round(time.perf_counter() - started, 6),
            queue_depth=self.manager.queue_depth,
        )

    def _send(
        self,
        status: int,
        payload: bytes,
        content_type: str = "application/json",
        extra_headers: dict | None = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, str(value))
        self.end_headers()
        self.wfile.write(payload)

    def _send_json(self, status: int, doc: dict, extra_headers: dict | None = None) -> None:
        self._send(status, canonical_json_bytes(doc), extra_headers=extra_headers)

    def _error(self, status: int, message: str, **extra: object) -> None:
        headers = {}
        if "retry_after" in extra:
            # RFC 9110 §10.2.3: Retry-After carries delta-seconds as a
            # decimal string.  Serialise here, at the header boundary, so
            # the wire value never depends on how send_header renders an
            # int — and keep the integer in the JSON body, which clients
            # (see loadgen) read for their backoff.
            headers["Retry-After"] = str(int(extra["retry_after"]))
        self._send_json(status, {"error": message, **extra}, extra_headers=headers)

    def _read_raw_body(self) -> bytes | None:
        """The request body, or ``None`` once a 400 (negative or
        non-integer ``Content-Length``, or a body that ends before it),
        413 (above :data:`MAX_BODY_BYTES`) or 408 (the body stalled for
        :data:`SOCKET_TIMEOUT_SECONDS`) has been sent.  A refused body is
        never read in full, so the reply closes the connection."""
        declared = self.headers.get("Content-Length", "0")
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            self._send_json(
                400,
                {"error": f"bad Content-Length {declared!r}"},
                extra_headers={"Connection": "close"},
            )
            return None
        if length > MAX_BODY_BYTES:
            self._send_json(
                413,
                {
                    "error": f"request body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit",
                    "max_bytes": MAX_BODY_BYTES,
                },
                extra_headers={"Connection": "close"},
            )
            return None
        if not length:
            return b""
        try:
            body = self.rfile.read(length)
        except TimeoutError:
            self._send_json(
                408,
                {"error": f"request body not received within {self.timeout} s"},
                extra_headers={"Connection": "close"},
            )
            return None
        if len(body) < length:
            # The client half-closed early: RFC 9112 §6.3 calls the
            # message incomplete, so no prefix of it is acted on.
            self._send_json(
                400,
                {"error": f"request body ended after {len(body)} of {length} bytes"},
                extra_headers={"Connection": "close"},
            )
            return None
        return body

    def _read_body(self) -> dict | None:
        raw = self._read_raw_body()
        if raw is None:
            return None
        try:
            doc = json.loads(raw) if raw else {}
        except (ValueError, RecursionError):  # deep nesting: RecursionError
            self._error(400, "request body must be a JSON object")
            return None
        if not isinstance(doc, dict):
            self._error(400, "request body must be a JSON object")
            return None
        return doc

    # -- POST --------------------------------------------------------------

    def do_POST(self) -> None:
        started = time.perf_counter()
        try:
            if self.path == "/v1/scenarios":
                self._post_scenarios()
            elif self.path == "/v1/map":
                self._post_map()
            elif self.path == "/v1/session":
                self._post_session()
            elif self.path.startswith("/v1/session/") and self.path.endswith(
                "/events"
            ):
                self._post_session_events(
                    self.path[len("/v1/session/"):-len("/events")]
                )
            else:
                self._error(404, f"no such endpoint {self.path!r}")
        finally:
            self._access_log("POST", started)

    def _post_scenarios(self) -> None:
        body = self._read_body()
        if body is None:
            return
        gen = body.get("generate")
        if gen is not None:
            from repro.heuristics import generate_named_scenario
            from repro.io.serialization import scenario_to_dict

            try:
                n_tasks = int(gen.get("n_tasks", 0))
                seed = int(gen.get("seed", 0))
                if n_tasks > MAX_GENERATE_TASKS:
                    raise ValueError(
                        f"n_tasks must be <= {MAX_GENERATE_TASKS}, got {n_tasks}"
                    )
                doc = scenario_to_dict(generate_named_scenario(n_tasks, seed))
            except (TypeError, ValueError, AttributeError, OverflowError) as exc:
                self._error(400, f"bad generate spec: {exc}")
                return
        else:
            doc = body
        try:
            scenario_id, created = self.server.registry.put(doc)
        except (KeyError, TypeError, ValueError) as exc:
            self._error(400, f"bad scenario document: {exc}")
            return
        self._send_json(
            201 if created else 200,
            {
                "id": scenario_id,
                "created": created,
                "name": doc.get("name"),
                "n_tasks": doc["dag"]["n_tasks"],
                "n_machines": len(doc["grid"]["machines"]),
            },
        )

    def _post_map(self) -> None:
        body = self._read_body()
        if body is None:
            return
        wait = body.get("wait", True)
        try:
            if not isinstance(wait, bool):
                raise ValueError(f"'wait' must be a boolean, not {type(wait).__name__}")
            job = self.manager.submit(
                body.get("scenario"),
                body.get("heuristic", "slrh1"),
                body.get("alpha"),
                body.get("beta"),
            )
        except QueueFullError as exc:
            self._error(
                429, str(exc),
                retry_after=exc.retry_after,
                queue_depth=exc.depth,
            )
            return
        except DrainingError as exc:
            self._error(503, str(exc))
            return
        except KeyError as exc:
            self._error(404, str(exc.args[0] if exc.args else exc))
            return
        except ValueError as exc:
            self._error(400, str(exc))
            return
        if wait:
            job.done.wait()
            self._job_result(job)
        else:
            self._send_json(
                202,
                {
                    "job": job.id,
                    "state": job.state,
                    "status_url": f"/v1/jobs/{job.id}",
                    "events_url": f"/v1/jobs/{job.id}/events",
                    "result_url": f"/v1/jobs/{job.id}/result",
                },
            )

    def _post_session(self) -> None:
        body = self._read_body()
        if body is None:
            return
        try:
            session = self.server.sessions.open(body)
        except SessionLimitError as exc:
            self._error(
                429, str(exc),
                retry_after=exc.retry_after,
                active_sessions=exc.active,
            )
            return
        except DrainingError as exc:
            self._error(503, str(exc))
            return
        except KeyError as exc:
            self._error(404, str(exc.args[0] if exc.args else exc))
            return
        except (TypeError, ValueError, IndexError) as exc:
            self._error(400, str(exc))
            return
        self._send_json(
            201,
            {
                "session": session.id,
                "scenario": session.scenario_id,
                "heuristic": session.heuristic,
                "pending": session.status_doc()["pending"],
                "events_url": f"/v1/session/{session.id}/events",
                "status_url": f"/v1/session/{session.id}",
                "result_url": f"/v1/session/{session.id}/result",
            },
        )

    def _post_session_events(self, session_id: str) -> None:
        """Apply one NDJSON batch of grid events; stream delta blocks back."""
        sessions = self.server.sessions
        if sessions.draining:
            self._error(503, "service is draining; not accepting session events")
            return
        raw = self._read_raw_body()
        if raw is None:
            return
        events = []
        for lineno, line in enumerate(raw.splitlines(), start=1):
            if len(line) > MAX_EVENT_LINE_BYTES:
                self._error(
                    400,
                    f"event line {lineno} is {len(line)} bytes; the limit "
                    f"is {MAX_EVENT_LINE_BYTES}",
                )
                return
            if not line.strip():
                continue
            try:
                events.append(event_from_dict(json.loads(line)))
            except (ValueError, RecursionError) as exc:
                self._error(400, f"bad event on line {lineno}: {exc}")
                return
        if not events:
            self._error(400, "empty event batch (one NDJSON event per line)")
            return
        try:
            session = sessions.get(session_id)
        except KeyError:
            self._error(404, f"no such session {session_id!r}")
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        for line in session.stream(events):
            self.wfile.write(line)
            self.wfile.flush()

    # -- GET ---------------------------------------------------------------

    def do_GET(self) -> None:
        started = time.perf_counter()
        path, _, query = self.path.partition("?")
        try:
            if path == "/healthz":
                self._get_healthz()
            elif path == "/metrics":
                self._get_metrics(query)
            elif path == "/v1/scenarios":
                self._send_json(200, {"scenarios": self.server.registry.ids()})
            elif path == "/v1/sessions":
                self._send_json(200, {"sessions": self.server.sessions.ids()})
            elif path.startswith("/v1/jobs/"):
                self._get_job(path[len("/v1/jobs/"):])
            elif path.startswith("/v1/session/"):
                self._get_session(path[len("/v1/session/"):])
            else:
                self._error(404, f"no such endpoint {self.path!r}")
        finally:
            self._access_log("GET", started)

    def _get_healthz(self) -> None:
        manager = self.manager
        health = manager.health_doc()
        if not health["healthy"]:
            status, code = "degraded", 503
        elif manager.draining:
            status, code = "draining", 200
        else:
            status, code = "ok", 200
        self._send_json(
            code,
            {
                "status": status,
                "uptime_seconds": time.monotonic() - self.server.started_at,
                "queue_depth": manager.queue_depth,
                "inflight": manager.inflight,
                "scenarios": len(self.server.registry),
                "sessions": len(self.server.sessions),
                "shards": health["shards"],
            },
        )

    def _get_session(self, tail: str) -> None:
        session_id, _, verb = tail.partition("/")
        try:
            session = self.server.sessions.get(session_id)
        except KeyError:
            self._error(404, f"no such session {session_id!r}")
            return
        if verb == "":
            self._send_json(200, session.status_doc())
        elif verb == "result":
            payload = session.result_bytes()
            if payload is None:
                self._error(409, f"session {session.id} is still open")
            else:
                self._send(200, payload, extra_headers={"X-Session-Id": session.id})
        else:
            self._error(404, f"no such session endpoint {verb!r}")

    def _wants_prometheus(self, query: str) -> bool:
        """Content negotiation for ``/metrics``: JSON unless the client asks
        for exposition via ``?format=prom`` or ``Accept: text/plain``."""
        params = query.split("&") if query else []
        if "format=prom" in params:
            return True
        if "format=json" in params:
            return False
        accept = self.headers.get("Accept", "")
        return "text/plain" in accept and "json" not in accept

    def _get_metrics(self, query: str = "") -> None:
        doc = self.manager.metrics_document(
            service="repro.service",
            uptime_seconds=time.monotonic() - self.server.started_at,
        )
        if self._wants_prometheus(query):
            self._send(
                200,
                render_prometheus(doc).encode("utf-8"),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
            return
        payload = (
            json.dumps(doc, indent=2, sort_keys=True, allow_nan=True) + "\n"
        ).encode("ascii")
        self._send(200, payload)

    def _get_job(self, tail: str) -> None:
        job_id, _, verb = tail.partition("/")
        try:
            job = self.manager.get(job_id)
        except KeyError:
            self._error(404, f"no such job {job_id!r}")
            return
        if verb == "":
            self._send_json(200, job.status_doc())
        elif verb == "result":
            if not job.done.is_set():
                self._error(409, f"job {job.id} is {job.state}")
            else:
                self._job_result(job)
        elif verb == "events":
            self._stream_events(job)
        else:
            self._error(404, f"no such job endpoint {verb!r}")

    def _job_result(self, job: Job) -> None:
        if job.state == "succeeded":
            self._send(
                200,
                job.mapping_bytes,
                extra_headers={
                    "X-Job-Id": job.id,
                    "X-Heuristic": job.outcome["heuristic"],
                    "X-Heuristic-Seconds": f"{job.outcome['heuristic_seconds']:.6f}",
                },
            )
        else:
            self._error(500, job.error or f"job {job.id} {job.state}")

    def _stream_events(self, job: Job) -> None:
        """NDJSON progress stream: heartbeats until done, then the trace."""
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True

        def line(doc: dict) -> None:
            self.wfile.write(canonical_json_bytes(doc))
            self.wfile.flush()

        line({"event": "status", "job": job.id, "state": job.state})
        while not job.done.wait(timeout=EVENT_HEARTBEAT_SECONDS):
            line(
                {
                    "event": "status",
                    "job": job.id,
                    "state": job.state,
                    "queue_depth": self.manager.queue_depth,
                }
            )
        if job.state == "succeeded":
            for event in job.outcome["events"]:
                line(event)
        line(
            {
                "event": "done",
                "job": job.id,
                "state": job.state,
                **({"error": job.error} if job.error else {}),
            }
        )
