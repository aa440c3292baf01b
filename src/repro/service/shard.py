"""One shard of the scheduling service: a job queue, its dispatcher
thread, and the forked child process that runs the work.

A *shard* is the unit the service scales over, and
:class:`ProcessShard` is all of it:

* a bounded FIFO of admitted :class:`~repro.service.jobs.Job` records
  and the dispatcher thread that ships them to the child one at a time.
  Admission belongs to the router
  (:class:`~repro.service.jobs.ShardRouter`), which serialises
  submitters and reads :meth:`ProcessShard.admission_state` under its
  own lock before :meth:`ProcessShard.enqueue`, so ``enqueue`` itself
  never rejects;
* one long-lived child process running
  :func:`~repro.service.worker.shard_main`, reached over one duplex
  ``Pipe`` — at every shard count, ``--shards 1`` included, so the
  router process never maps or hosts a session itself.

Calls are synchronous RPCs: one send and one receive under the pipe
lock, so callers interleave at whole-call granularity and a reply can
never be misattributed.  Scenario docs are shipped at most once per
shard (``_shipped``, under the same lock); the child keeps the raw doc
and its deserialised-LRU entry resident, which is what affine routing
buys.  Child-side exceptions come back as ``("error", type_name,
message)`` and are re-raised here as the matching builtin, so upstream
HTTP status mapping sees the same exceptions a direct call would raise.

Failure is surfaced, never a hang.  The child holds the only other end
of its pipe, so its death — between calls or mid-reply — reads as EOF
at once and raises :class:`ShardCrashedError`: the job *fails*, and
every later call on the shard fails fast.  A dead shard stays dead (no
auto-restart; ``/healthz`` goes 503 so the operator sees it).  The
converse holds too: the child also waits on its parent's sentinel, so
a killed daemon takes its shard children with it.

Locks: ``_lock`` guards the queue side (the queue, the busy, draining
and stopped flags, the per-shard perf registry; ``_wake`` and ``_idle``
are conditions on it) and ``_pipe_lock`` the pipe side (every
exchange, and ``_shipped``).  The two are never nested.  The router
acquires ``_lock`` while holding its own; a shard never acquires the
router lock while holding either of its locks (:meth:`_run_job` records
results *between* lock scopes).  The test suite's lock witness checks
that order on every lock the service takes (DESIGN.md §12.4).
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from collections import deque
from multiprocessing.connection import Connection, wait
from multiprocessing.process import BaseProcess
from typing import TYPE_CHECKING, Any

from repro.obs.log import get_logger
from repro.perf import PerfCounters
from repro.service.worker import shard_main

if TYPE_CHECKING:
    from repro.service.jobs import Job, ShardRouter

#: Child exception names re-raised as their builtin counterparts; anything
#: unrecognised degrades to RuntimeError (a 500 upstream, never a hang).
_ERROR_TYPES: dict[str, type[Exception]] = {
    "KeyError": KeyError,
    "ValueError": ValueError,
    "TypeError": TypeError,
    "IndexError": IndexError,
    "RuntimeError": RuntimeError,
}

#: Seconds to wait for a stopping child's ack, and for a stopping or
#: dead child to exit.
_STOP_TIMEOUT = 5.0

#: Job-lifecycle events, under the same logger name as the router's.
_LOG = get_logger("service.jobs")


class ShardCrashedError(RuntimeError):
    """The shard's child process died before answering a call.

    A caller waiting on a reply sees this as soon as the child's end of
    the pipe closes, and every later call on the same shard fails fast
    with it too: a dead shard stays dead.
    """


def _unwrap(reply: tuple) -> Any:
    """The value of an ``("ok", value)`` reply; an ``("error", name,
    message)`` reply re-raised as the matching builtin."""
    if reply[0] == "ok":
        return reply[1]
    _, name, message = reply
    raise _ERROR_TYPES.get(name, RuntimeError)(message)


class ProcessShard:
    """One shard: a bounded job queue and its dispatcher thread in front
    of one forked child, reached over one duplex pipe."""

    def __init__(self, index: int, router: ShardRouter) -> None:
        self.index = index
        self.router = router
        self.perf = PerfCounters()  # guarded-by: _lock
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._queue: deque[Job] = deque()  # guarded-by: _lock
        self._busy = False  # guarded-by: _lock
        self._draining = False  # guarded-by: _lock
        self._stopped = False  # guarded-by: _lock
        self._thread: threading.Thread | None = None  # guarded-by: _lock
        self._pipe_lock = threading.Lock()
        self._shipped: set[str] = set()  # guarded-by: _pipe_lock
        self._proc: BaseProcess | None = None
        self._conn: Connection | None = None
        self.last_beat = 0.0  # monotonic time of the child's last reply

    # -- lifecycle ---------------------------------------------------------

    def spawn(self) -> None:
        """Fork the child (idempotent).

        The pipe is made here, at its own fork, and the parent closes the
        child's end straight after: the child then holds the only copy,
        so its death is EOF on this side.  ``shard_main`` is read from
        this module's globals now, at fork time.
        """
        with self._pipe_lock:
            if self._proc is not None:
                return
            ctx = multiprocessing.get_context()
            conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=shard_main,
                args=(child_conn, self.index),
                name=f"repro-shard-{self.index}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._proc = proc
            self._conn = conn
            self.last_beat = time.monotonic()

    def start(self) -> ProcessShard:
        """Fork the child, then start the dispatcher thread (idempotent)."""
        with self._lock:
            if self._stopped:
                raise RuntimeError("ProcessShard is closed")
            if self._thread is not None:
                return self
            thread = threading.Thread(
                target=self._dispatch_loop,
                name=f"repro-dispatcher-{self.index}",
                daemon=True,
            )
            self._thread = thread
        self.spawn()  # fork before traffic
        thread.start()
        return self

    def drain(self, deadline: float | None) -> bool:
        """Stop this shard's work from growing and wait until its queue
        and in-flight job are empty.  True when drained by *deadline*."""
        with self._lock:
            self._draining = True
            self._wake.notify_all()
            while self._queue or self._busy:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._idle.wait(timeout=remaining)
        return True

    def close(self) -> None:
        """Stop the dispatcher thread, then ask the child to exit and
        make sure it did.  Idempotent."""
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            self._wake.notify_all()
            thread = self._thread
        # Join outside the lock: the dispatcher needs it to observe
        # _stopped and exit.
        if thread is not None:
            thread.join(timeout=10)
        with self._pipe_lock:
            proc, conn = self._proc, self._conn
            self._conn = None
            if conn is not None:
                try:
                    conn.send(("stop",))
                    if conn.poll(_STOP_TIMEOUT):
                        conn.recv()
                except (EOFError, OSError):
                    pass
                conn.close()
        if proc is not None:
            proc.join(timeout=_STOP_TIMEOUT)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=_STOP_TIMEOUT)

    @property
    def pid(self) -> int | None:
        return self._proc.pid if self._proc is not None else None

    def alive(self) -> bool:
        proc = self._proc
        return proc is not None and self._conn is not None and proc.is_alive()

    def heartbeat_age(self) -> float:
        """Seconds since the child last answered.  Pings only when the
        pipe is free, so health checks never queue behind a running
        job — a busy shard's age just keeps growing until its current
        reply lands."""
        if self._pipe_lock.acquire(blocking=False):
            try:
                self._exchange(("ping",))
            except ShardCrashedError:
                pass
            finally:
                self._pipe_lock.release()
        return max(0.0, time.monotonic() - self.last_beat)

    # -- the pipe ----------------------------------------------------------

    # requires-lock: _pipe_lock
    def _exchange(self, command: tuple) -> Any:
        """Send *command* and return the child's reply tuple; raises
        :class:`ShardCrashedError` when the child is dead or dies before
        replying."""
        proc, conn = self._proc, self._conn
        if proc is None or conn is None or not proc.is_alive():
            raise ShardCrashedError(
                f"shard {self.index} is not running (pid={self.pid})"
            )
        try:
            conn.send(command)
            # Wakes on the reply or on the child's exit.  Either way the
            # pipe is readable: the child's exit closes the only other
            # end, and recv() then raises EOFError for a missing reply
            # or OSError for one cut off mid-write.
            wait([conn, proc.sentinel])
            if conn.poll():
                reply = conn.recv()
                self.last_beat = time.monotonic()
                return reply
        except (EOFError, OSError):
            pass
        proc.join(timeout=_STOP_TIMEOUT)  # reap it: alive() is False from now on
        raise ShardCrashedError(
            f"shard {self.index} (pid={proc.pid}) died while handling "
            f"{command[0]!r}"
        )

    def call(self, *command: Any) -> Any:
        """Send one raw command tuple and return the child's raw reply
        (``("ok", value)`` or ``("error", name, message)``)."""
        with self._pipe_lock:
            return self._exchange(command)

    def _call_shipping(
        self, op: str, scenario_id: str, doc: dict, *args: Any
    ) -> Any:
        """Call ``(op, scenario_id, doc | None, *args)``: the doc travels
        only the first time this child sees *scenario_id*.  It is marked
        shipped before the send: if the call crashes the shard is dead
        for good, so a wrong entry is moot."""
        with self._pipe_lock:
            shipped = scenario_id in self._shipped
            self._shipped.add(scenario_id)
            reply = self._exchange(
                (op, scenario_id, None if shipped else doc, *args)
            )
        return _unwrap(reply)

    def run_job(
        self,
        scenario_id: str,
        doc: dict,
        heuristic: str,
        alpha: float | None,
        beta: float | None,
    ) -> dict:
        return self._call_shipping(
            "job", scenario_id, doc, heuristic, alpha, beta
        )

    def session_open(
        self, session_id: str, scenario_id: str, doc: dict, body: dict
    ) -> dict:
        return self._call_shipping(
            "session_open", scenario_id, doc, session_id, body
        )

    def session_events(self, session_id: str, event_docs: list[dict]) -> dict:
        return _unwrap(self.call("session_events", session_id, event_docs))

    def session_status(self, session_id: str) -> dict:
        return _unwrap(self.call("session_status", session_id))

    def session_result(self, session_id: str) -> bytes | None:
        return _unwrap(self.call("session_result", session_id))

    def session_discard(self, session_id: str) -> bool:
        return _unwrap(self.call("session_discard", session_id))

    # -- admission (router-lock-serialised callers) ------------------------

    def admission_state(self, per_job_seconds: float) -> tuple[int, int]:
        """(queue depth, Retry-After hint) for an admission decision.

        Retry-After is this shard's backlog (queued + busy) × the
        observed mean map seconds, clamped to [1, 300] — the same ETA
        formula the pre-shard service used, scoped to one shard.
        """
        with self._lock:
            backlog = len(self._queue) + (1 if self._busy else 0)
            eta = backlog * per_job_seconds
            return len(self._queue), max(1, min(300, int(eta + 0.999)))

    def enqueue(self, job: Job) -> int:
        """Append an admitted job; returns the new queue depth.  Callers
        hold the router lock, so capacity checked there still holds."""
        with self._lock:
            self._queue.append(job)
            depth = len(self._queue)
            self._wake.notify_all()
            return depth

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    @property
    def busy(self) -> bool:
        with self._lock:
            return self._busy

    # -- dispatch ----------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._stopped:
                    if self._draining:
                        self._idle.notify_all()
                    self._wake.wait()
                if self._stopped and not self._queue:
                    self._idle.notify_all()
                    return
                job = self._queue.popleft()
                job.run.state = "running"
                job.run.started_at = time.monotonic()
                self._busy = True
            self._run_job(job)
            with self._lock:
                self._busy = False
                self._idle.notify_all()

    def _run_job(self, job: Job) -> None:
        _LOG.event(
            "job.dispatched",
            job=job.id,
            shard=self.index,
            scenario=job.scenario_id,
        )
        router = self.router
        try:
            doc = router.registry.get_doc(job.scenario_id)
            outcome = self.run_job(
                job.scenario_id, doc, job.heuristic, *job.alpha_beta
            )
        except Exception as exc:  # shard/crash failure: fail the job
            self._note_outcome(None)
            router._record_finish(job, error=f"{type(exc).__name__}: {exc}")
            return
        # Per-shard counts first: a woken waiter already sees its job there.
        self._note_outcome(outcome)
        router._record_finish(job, outcome=outcome)

    def _note_outcome(self, outcome: dict | None) -> None:
        """Per-shard instruments (``shard<k>.*``) for the roll-up."""
        prefix = f"shard{self.index}"
        with self._lock:
            if outcome is None:
                self.perf.inc(f"{prefix}.failed")
                return
            self.perf.inc(f"{prefix}.completed")
            self.perf.observe(
                f"{prefix}.map_seconds", outcome["heuristic_seconds"]
            )
            stats = outcome.get("perf") or {}
            for kind in ("hits", "misses", "evictions"):
                count = stats.get(f"worker.scenario_cache_{kind}", 0)
                if count:
                    self.perf.inc(f"{prefix}.cache_{kind}", count)

    def perf_registry(self) -> PerfCounters:
        """An independent copy of this shard's registry with the live
        queue-depth/busy/alive gauges stamped in (roll-up input)."""
        prefix = f"shard{self.index}"
        with self._lock:
            copied = PerfCounters().merge(self.perf)
            copied.set_gauge(f"{prefix}.queue_depth", float(len(self._queue)))
            copied.set_gauge(f"{prefix}.busy", 1.0 if self._busy else 0.0)
            copied.set_gauge(
                f"{prefix}.cache_hits", self.perf.get(f"{prefix}.cache_hits")
            )
        copied.set_gauge(f"{prefix}.alive", 1.0 if self.alive() else 0.0)
        return copied
