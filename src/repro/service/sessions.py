"""Live-grid streaming sessions: the service's stateful surface.

A ``/v1/map`` job is one shot — scenario in, mapping out.  An ad hoc
grid (§I of the paper) is not one shot: tasks appear and machines leave
and rejoin while the heuristic is already committed to half a mapping.
A *session* keeps that evolving state on the server: one
:class:`~repro.session.SessionEngine` (live schedule + persistent
SLRH kernel fed by precise event deltas, never rebuilt from scratch)
plus one :class:`~repro.session.DeltaEncoder` that tells the client only
what changed after each event.

Under the shard layer the kernel no longer lives in the manager: each
session is routed **shard-affine by session id** (numeric id modulo the
shard count), its engine+encoder pair is hosted by that one shard's
:class:`~repro.service.worker.SessionHost` — in exactly one process for
the session's whole lifetime — and the :class:`LiveSession` here is a
thin proxy shipping event batches over the shard RPC and yielding the
delta lines that come back.

Concurrency model:

* the **manager lock** (``SessionManager._lock``) guards the session
  table — open, lookup, idle eviction, drain — and is held across the
  shard ``session_open`` RPC so the capacity bound stays exact;
* each **session lock** (``LiveSession.lock``) serialises event batches
  on that session, so two clients streaming into the same session
  interleave at batch granularity and the delta ``seq`` numbers stay
  dense.

Sessions are evicted after :attr:`SessionManager.idle_timeout` seconds
without a request (closed sessions too — the final mapping stays
retrievable until then; the hosting shard drops its kernel), and the
table is bounded: opening beyond ``max_sessions`` live sessions answers
429 upstream.

A crashed shard process takes its hosted sessions with it: the next
event batch on such a session yields one ``{"record": "error", ...}``
line naming the crash instead of hanging.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Iterator, Sequence

from repro.heuristics import normalize_heuristic
from repro.io.serialization import canonical_json_bytes
from repro.obs.log import enabled as _obs_enabled
from repro.obs.log import get_logger
from repro.perf import PerfCounters
from repro.service.jobs import DrainingError, ShardRouter
from repro.service.registry import ScenarioRegistry
from repro.service.shard import ProcessShard, ShardCrashedError
from repro.service.worker import build_scheduler
from repro.session import SessionEvent

#: Default bound on concurrently stored sessions (open *or* closed-but-
#: not-yet-evicted); opening past it is a 429 upstream.
DEFAULT_MAX_SESSIONS = 64

#: Default seconds of inactivity before a session is evicted.
DEFAULT_IDLE_TIMEOUT = 900.0

#: Retry-After hint handed to clients bouncing off the session bound.
_SESSION_RETRY_AFTER = 30

_LOG = get_logger("service.sessions")


class SessionLimitError(Exception):
    """The session table is at capacity (HTTP 429 upstream)."""

    def __init__(self, active: int) -> None:
        super().__init__(
            f"session table full ({active} live sessions); "
            f"retry in ~{_SESSION_RETRY_AFTER}s"
        )
        self.active = active
        self.retry_after = _SESSION_RETRY_AFTER


class LiveSession:
    """One open session: a proxy over its hosting shard's kernel.

    Every method takes ``self.lock`` itself; callers never talk to the
    hosting shard directly.  The proxy caches what the HTTP layer needs
    between batches (closed flag, error count, the close-time perf
    snapshot) so status checks after a stream don't need another RPC.
    """

    def __init__(
        self,
        session_id: str,
        scenario_id: str,
        heuristic: str,
        shard: ProcessShard,
        perf: PerfCounters,
    ) -> None:
        self.id = session_id
        self.scenario_id = scenario_id
        self.heuristic = heuristic  # canonical registry name
        self.shard = shard  # hosting shard (RPCs are self-serialising)
        self.perf = perf  # the service registry (mutated via manager lock paths)
        self.lock = threading.Lock()
        self.last_active = time.monotonic()  # guarded-by: lock
        self.n_errors = 0  # guarded-by: lock
        self._closed = False  # guarded-by: lock
        self._perf_snapshot: dict | None = None  # guarded-by: lock

    def stream(self, events: Sequence[SessionEvent]) -> Iterator[bytes]:
        """Apply *events* in order on the hosting shard, yielding each
        one's delta block (and the footer after ``close``).

        A rejected event (time travel, unknown id, double loss …) yields
        one ``{"record": "error", ...}`` line and ends the stream; the
        engine rejects atomically, so the session stays usable and the
        remaining events of the batch are simply not applied.  A crashed
        shard yields one error record naming the crash — the stream
        fails, it never hangs.
        """
        with self.lock:
            self.last_active = time.monotonic()
            try:
                reply = self.shard.session_events(
                    self.id, [event.to_dict() for event in events]
                )
            except ShardCrashedError as exc:
                self.n_errors += 1
                self.perf.inc("session.event_errors")
                yield canonical_json_bytes(
                    {"record": "error", "error": str(exc), "event_index": 0}
                )
                return
            if reply["errors"]:
                self.n_errors += reply["errors"]
                self.perf.inc("session.event_errors", reply["errors"])
            if reply["closed"]:
                self._closed = True
                if reply["perf"] is not None:
                    self._perf_snapshot = reply["perf"]
            yield from reply["lines"]

    def status_doc(self) -> dict:
        """JSON-ready status for ``GET /v1/session/<id>`` (one shard RPC)."""
        with self.lock:
            doc = self.shard.session_status(self.id)
            self._closed = doc["state"] == "closed"
            return doc

    def result_bytes(self) -> bytes | None:
        """Canonical mapping JSON of a closed session (None while open)
        — byte-identical to an offline replay of the same events."""
        with self.lock:
            return self.shard.session_result(self.id)

    def is_closed(self) -> bool:
        with self.lock:
            return self._closed

    def take_perf_snapshot(self) -> dict | None:
        """The engine's close-time perf counters, exactly once (None
        thereafter) — so closing twice never double-counts in the
        service registry."""
        with self.lock:
            snapshot, self._perf_snapshot = self._perf_snapshot, None
            return snapshot


class SessionManager:
    """Bounded, idle-evicting table of :class:`LiveSession`."""

    def __init__(
        self,
        registry: ScenarioRegistry,
        *,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
        idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
        perf: PerfCounters | None = None,
        router: ShardRouter,
    ) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if not idle_timeout > 0:
            raise ValueError("idle_timeout must be positive")
        self.registry = registry
        self.max_sessions = max_sessions
        self.idle_timeout = idle_timeout
        self.perf = perf if perf is not None else PerfCounters()
        self.router = router
        self._lock = threading.Lock()
        self._sessions: dict[str, LiveSession] = {}  # guarded-by: _lock
        self._next_id = 1  # guarded-by: _lock
        self._draining = False  # guarded-by: _lock

    # -- admission ---------------------------------------------------------

    def open(self, body: dict) -> LiveSession:
        """Open a session from a ``POST /v1/session`` body.

        Raises ``KeyError`` for an unregistered scenario or unknown
        heuristic, ``ValueError``/``IndexError`` for a malformed spec,
        :class:`~repro.service.jobs.DrainingError` during shutdown and
        :class:`SessionLimitError` at capacity.
        """
        scenario_id = body.get("scenario")
        if not scenario_id:
            raise ValueError("missing 'scenario' (a registered scenario id)")
        if scenario_id not in self.registry:
            raise KeyError(f"scenario {scenario_id!r} is not registered")
        canonical = normalize_heuristic(body.get("heuristic", "slrh1"))
        # Validate the scheduler spec here (cheap, and the 400s must not
        # depend on which shard would host the session); the hosting
        # shard rebuilds it next to its engine.
        build_scheduler(canonical, body)
        pending = body.get("pending", [])
        if not isinstance(pending, list) or any(
            not isinstance(t, int) or isinstance(t, bool) for t in pending
        ):
            raise ValueError("'pending' must be a list of task ids")
        doc = self.registry.get_doc(scenario_id)
        with self._lock:
            if self._draining:
                self.perf.inc("session.rejected_draining")
                raise DrainingError("service is draining; not accepting sessions")
            now = time.monotonic()
            self._evict_idle_locked(now)
            if len(self._sessions) >= self.max_sessions:
                self.perf.inc("session.rejected")
                raise SessionLimitError(len(self._sessions))
            numeric_id = self._next_id
            session_id = f"sess-{numeric_id:08d}"
            # Round-robin over shards, pinned for the session's lifetime.
            shard = self.router.session_shard(numeric_id)
            # Holding the lock across the open RPC keeps the capacity
            # bound exact; engine-construction errors (out-of-range
            # pending task …) re-raise here with nothing to roll back.
            opened = shard.session_open(session_id, scenario_id, doc, body)
            self._next_id = numeric_id + 1
            session = LiveSession(
                session_id=session_id,
                scenario_id=scenario_id,
                heuristic=canonical,
                shard=shard,
                perf=self.perf,
            )
            self._sessions[session.id] = session
            self.perf.inc("session.opened")
            self._update_gauges_locked()
        if _obs_enabled():
            _LOG.event(
                "session.opened",
                session=session.id,
                scenario=scenario_id,
                heuristic=canonical,
                pending=len(opened["pending"]),
            )
        return session

    def get(self, session_id: str) -> LiveSession:
        """The live session under *session_id* (KeyError when unknown or
        already evicted)."""
        with self._lock:
            self._evict_idle_locked(time.monotonic())
            return self._sessions[session_id]

    def ids(self) -> list[str]:
        with self._lock:
            return sorted(self._sessions)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def note_closed(self, session: LiveSession) -> None:
        """Account a just-closed session: merge its engine counters
        (pool builds, plan pairs …) into the service registry, once."""
        snapshot = session.take_perf_snapshot()
        if snapshot is None:
            return  # a later batch on an already-closed session
        self.perf.inc("session.closed")
        self.perf.merge(snapshot)
        if _obs_enabled():
            _LOG.event("session.closed", session=session.id)

    # -- lifecycle ---------------------------------------------------------

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    def drain(self) -> None:
        """Stop admitting sessions and event batches (503 upstream).
        In-flight batches are synchronous per request and finish on
        their own handler threads."""
        with self._lock:
            self._draining = True
            self._update_gauges_locked()

    def _update_gauges_locked(self) -> None:
        self.perf.set_gauge("session.active", float(len(self._sessions)))
        self.perf.set_gauge(
            "session.draining", 1.0 if self._draining else 0.0
        )

    def _evict_idle_locked(self, now: float) -> None:
        """Drop sessions idle past the timeout.  A session whose lock is
        held is in use by definition and never evicted mid-request."""
        idle_after = self.idle_timeout
        if not math.isfinite(idle_after):
            return
        for sid in list(self._sessions):
            session = self._sessions[sid]
            if not session.lock.acquire(blocking=False):
                continue
            try:
                idle = now - session.last_active
            finally:
                session.lock.release()
            if idle > idle_after:
                del self._sessions[sid]
                try:
                    # Free the hosting shard's kernel too; a dead shard
                    # has already lost it.
                    session.shard.session_discard(sid)
                except ShardCrashedError:
                    pass
                self.perf.inc("session.evicted")
                if _obs_enabled():
                    _LOG.event(
                        "session.evicted",
                        session=sid,
                        idle_seconds=round(idle, 3),
                    )
        self._update_gauges_locked()
