"""Job admission, affine routing and lifecycle for the scheduling service.

The service dispatch layer is *sharded*: N independent
:class:`~repro.service.shard.ProcessShard` objects (one bounded queue +
one dispatcher thread + one forked child process each) behind one thin
:class:`ShardRouter`.  Requests become :class:`Job` records routed by
**scenario-hash affinity** — ``int(sha256_digest, 16) % n_shards`` — so
every request for a given scenario lands on the same shard and that
shard's process-resident deserialised-scenario LRU stays hot.  Every
shard, at ``shards=1`` too, runs its jobs in a long-lived child process.

Admission control is global but per-shard-bounded: the router serialises
admission under its own lock, and when the *target shard's* queue is at
``max_queue`` the submit raises :class:`QueueFullError` (HTTP 429
upstream) carrying a ``Retry-After`` derived from that shard's backlog ×
the observed mean map time — never an unbounded backlog, and a hot
scenario cannot starve requests routed to other shards.  Draining is
global: once :meth:`ShardRouter.drain` starts, every shard rejects with
:class:`DrainingError` (503) while queued and in-flight jobs run out.

The router owns the global :mod:`repro.perf` registry (service and
session counters, request/map latency histograms, every job's and closed
session's merged engine counters), written only under the router lock;
each shard keeps a per-shard registry (``shard<k>.*`` counters,
exact map-seconds histogram, queue/busy/cache gauges).
:meth:`ShardRouter.metrics_document` rolls all of them into the one
``repro.perf/2`` document ``/metrics`` serves, and
:meth:`ShardRouter.health_doc` reports per-shard liveness (pid, queue
depth, last heartbeat) for ``/healthz``.

A crashed shard child fails its in-flight job and every job queued
behind it (each surfaced as a ``failed`` job with the crash message —
never a hang), stays dead, and flips ``/healthz`` to 503.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.heuristics import normalize_heuristic, resolve_weights
from repro.io.serialization import canonical_json_bytes
from repro.obs.log import get_logger
from repro.perf import PerfCounters, merge_registries
from repro.service.registry import ScenarioRegistry
from repro.service.shard import ProcessShard
from repro.util.parallel import resolve_shards

#: Fallback per-job seconds used for Retry-After before any job finished.
_DEFAULT_JOB_SECONDS = 1.0

#: Jobs (with their mapping bytes) the table behind ``GET /v1/jobs/<id>``
#: keeps; beyond it the oldest finished job is forgotten.
MAX_JOBS_KEPT = 1024

#: Structured job-lifecycle events (no-op unless repro.obs.log is configured).
_LOG = get_logger("service.jobs")


class QueueFullError(Exception):
    """The target shard's bounded queue is at capacity (HTTP 429 upstream)."""

    def __init__(self, depth: int, retry_after: int) -> None:
        super().__init__(
            f"job queue full ({depth} queued); retry in ~{retry_after}s"
        )
        self.depth = depth
        self.retry_after = retry_after


class DrainingError(Exception):
    """The service is draining and no longer admits jobs (HTTP 503)."""


@dataclass
class Job:
    """One ``/v1/map`` request through its lifecycle."""

    id: str
    scenario_id: str
    heuristic: str
    alpha: float | None
    beta: float | None
    shard: int = 0
    state: str = "queued"  # queued | running | succeeded | failed
    error: str | None = None
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    outcome: dict | None = None
    done: threading.Event = field(default_factory=threading.Event, repr=False)

    @property
    def mapping_bytes(self) -> bytes | None:
        """Canonical mapping JSON of a succeeded job (None otherwise)."""
        if self.outcome is None:
            return None
        return canonical_json_bytes(self.outcome["mapping"])

    def status_doc(self) -> dict:
        """JSON-ready status for ``GET /v1/jobs/<id>``."""
        doc = {
            "job": self.id,
            "state": self.state,
            "scenario": self.scenario_id,
            "heuristic": self.heuristic,
            "alpha": self.alpha,
            "beta": self.beta,
            "shard": self.shard,
        }
        if self.error is not None:
            doc["error"] = self.error
        if self.finished_at is not None:
            doc["wait_seconds"] = (self.started_at or self.finished_at) - self.submitted_at
            doc["total_seconds"] = self.finished_at - self.submitted_at
        if self.outcome is not None:
            doc["summary"] = self.outcome["summary"]
            doc["heuristic_seconds"] = self.outcome["heuristic_seconds"]
        return doc


class ShardRouter:
    """Thin global front: validation, affine routing, admission, job table.

    The router never executes anything itself — it picks the target
    shard from the scenario digest, makes the global admission decision
    (draining → 503, target shard full → 429 + Retry-After), and keeps
    the bounded global job table that ``GET /v1/jobs/<id>`` reads.  All
    global perf accounting (``service.*`` counters and latency
    histograms) lives on :attr:`perf` and is mutated only under
    ``_lock`` — submitters take it on admission, dispatcher threads take
    it per finished job, the session layer takes it through
    :meth:`record_perf` — so exact counts survive N concurrent shards
    and a ``/metrics`` scrape never copies a registry mid-write.
    """

    def __init__(
        self,
        registry: ScenarioRegistry,
        shards: int | str | None = None,
        max_queue: int = 64,
    ) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.registry = registry
        self.n_shards = resolve_shards(shards)
        self.max_queue = max_queue
        self._lock = threading.Lock()
        self.perf = PerfCounters()  # guarded-by: _lock
        self._jobs: dict[str, Job] = {}  # guarded-by: _lock
        self._job_order: deque[str] = deque()  # guarded-by: _lock
        self._ids = itertools.count(1)  # guarded-by: _lock
        self._draining = False  # guarded-by: _lock
        self._stopped = False  # guarded-by: _lock
        self.shards = [ProcessShard(k, self) for k in range(self.n_shards)]

    # -- routing -----------------------------------------------------------

    def shard_of(self, scenario_id: str) -> int:
        """Affine shard index for a content-addressed scenario id: the
        SHA-256 digest modulo the shard count.  Deterministic across
        processes and restarts (unlike ``hash()``), so a scenario is
        pinned to one shard for the daemon's lifetime."""
        digest = scenario_id.split(":", 1)[-1]
        return int(digest, 16) % self.n_shards

    def shard_for(self, scenario_id: str) -> ProcessShard:
        return self.shards[self.shard_of(scenario_id)]

    def session_shard(self, affinity: int) -> ProcessShard:
        """Shard for a session affinity key (the numeric session id):
        sessions spread round-robin and each kernel lives in exactly one
        shard process."""
        return self.shards[affinity % self.n_shards]

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ShardRouter":
        """Start every shard (idempotent); returns self.

        Every child is forked before any dispatcher thread starts: a fork
        clones only the calling thread, so a child forked while a
        dispatcher runs could inherit a lock with no owner.
        """
        with self._lock:
            if self._stopped:
                raise RuntimeError("ShardRouter is closed")
        for shard in self.shards:
            shard.spawn()
        for shard in self.shards:
            shard.start()
        return self

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting jobs and wait until every shard's queue and
        in-flight work are empty.  True when fully drained within
        *timeout* (None = forever)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            self._draining = True
            self.perf.set_gauge("service.draining", 1.0)
        drained = True
        for shard in self.shards:
            drained = shard.drain(deadline) and drained
        return drained

    def close(self, drain_timeout: float | None = None) -> None:
        """Drain (bounded by *drain_timeout*), then close every shard: its
        dispatcher thread and its child process.  Idempotent."""
        self.drain(timeout=drain_timeout)
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
        for shard in self.shards:
            shard.close()

    # -- admission ---------------------------------------------------------

    # acquires: ProcessShard._lock
    def submit(
        self,
        scenario_id: str,
        heuristic: str,
        alpha: float | None = None,
        beta: float | None = None,
    ) -> Job:
        """Admit one mapping request; returns its :class:`Job`.

        Raises :class:`KeyError` for an unregistered scenario or unknown
        heuristic, :class:`ValueError` for weights
        :func:`~repro.heuristics.resolve_weights` rejects,
        :class:`DrainingError` during shutdown and :class:`QueueFullError`
        when the target shard's bounded queue is at capacity.
        """
        canonical = normalize_heuristic(heuristic)  # KeyError when unknown
        resolve_weights(canonical, alpha, beta)  # ValueError before admission
        if scenario_id not in self.registry:
            raise KeyError(f"scenario {scenario_id!r} is not registered")
        shard = self.shard_for(scenario_id)
        with self._lock:
            if self._stopped or self._draining:
                self.perf.inc("service.rejected_draining")
                _LOG.event("job.rejected", reason="draining", scenario=scenario_id)
                raise DrainingError("service is draining; not accepting jobs")
            # Admission is serialised on this lock, so the depth read here
            # cannot be raced upward by another submitter; the dispatcher
            # only ever shrinks it.
            depth, retry_after = shard.admission_state(
                self._per_job_seconds_locked()
            )
            if depth >= self.max_queue:
                self.perf.inc("service.rejected")
                _LOG.event(
                    "job.rejected",
                    reason="queue_full",
                    scenario=scenario_id,
                    shard=shard.index,
                    queue_depth=depth,
                )
                raise QueueFullError(depth, retry_after)
            job = Job(
                id=f"job-{next(self._ids):08d}",
                scenario_id=scenario_id,
                heuristic=canonical,
                alpha=alpha,
                beta=beta,
                shard=shard.index,
                submitted_at=time.monotonic(),
            )
            new_depth = shard.enqueue(job)
            self._remember_locked(job)
            self.perf.inc("service.submitted")
            _LOG.event(
                "job.submitted",
                job=job.id,
                scenario=scenario_id,
                heuristic=canonical,
                shard=shard.index,
                queue_depth=new_depth,
            )
        return job

    def _remember_locked(self, job: Job) -> None:
        self._jobs[job.id] = job
        self._job_order.append(job.id)
        while len(self._job_order) > MAX_JOBS_KEPT:
            old = self._job_order.popleft()
            stale = self._jobs.get(old)
            # Never evict a job that hasn't finished: its submitter may
            # still be blocked on it.
            if stale is not None and stale.done.is_set():
                del self._jobs[old]
            else:
                self._job_order.append(old)
                break

    def _per_job_seconds_locked(self) -> float:
        hist = self.perf.histogram("service.map_seconds")
        if hist is not None and hist.count:
            return max(hist.mean, 1e-3)
        return _DEFAULT_JOB_SECONDS

    def get(self, job_id: str) -> Job:
        """The job registered under *job_id* (KeyError when unknown)."""
        with self._lock:
            return self._jobs[job_id]

    @property
    def queue_depth(self) -> int:
        """Total queued jobs across every shard."""
        return sum(shard.queue_depth for shard in self.shards)

    @property
    def inflight(self) -> int:
        """Shards currently running a job."""
        return sum(1 for shard in self.shards if shard.busy)

    # -- completion (shard dispatcher threads) -----------------------------

    def _record_finish(
        self, job: Job, outcome: dict | None = None, error: str | None = None
    ) -> None:
        """Global accounting for one finished job (any dispatcher thread);
        the router lock makes concurrent shard completions exact."""
        job.finished_at = time.monotonic()
        with self._lock:
            if error is not None:
                job.state = "failed"
                job.error = error
                self.perf.inc("service.failed")
            else:
                job.state = "succeeded"
                job.outcome = outcome
                self.perf.inc("service.completed")
                self.perf.observe(
                    "service.map_seconds", outcome["heuristic_seconds"]
                )
                self.perf.merge(outcome["perf"])  # engine counters (pool, plan …)
            self.perf.observe(
                "service.request_seconds", job.finished_at - job.submitted_at
            )
        _LOG.event(
            "job.finished",
            job=job.id,
            state=job.state,
            shard=job.shard,
            latency_seconds=round(job.finished_at - job.submitted_at, 6),
            **({"error": job.error} if job.error else {}),
        )
        job.done.set()

    def record_perf(self, update: PerfCounters | dict[str, float]) -> None:
        """Fold *update* (a registry, or counter increments) into
        :attr:`perf` under the router lock: how the session layer writes it."""
        with self._lock:
            self.perf.merge(update)

    # -- health ------------------------------------------------------------

    def health_doc(self) -> dict:
        """Per-shard liveness for ``/healthz``: pid, queue depth, busy,
        seconds since the last heartbeat.  ``healthy`` goes False (503
        upstream) the moment any shard process is dead."""
        shards = []
        healthy = True
        for shard in self.shards:
            alive = shard.alive()
            healthy = healthy and alive
            shards.append(
                {
                    "shard": shard.index,
                    "pid": shard.pid,
                    "alive": alive,
                    "queue_depth": shard.queue_depth,
                    "busy": shard.busy,
                    "last_heartbeat_seconds": round(shard.heartbeat_age(), 3),
                }
            )
        return {"healthy": healthy, "shards": shards}

    # -- metrics -----------------------------------------------------------

    def metrics_document(self, **context: object) -> dict:
        """The live ``repro.perf/2`` document served by ``/metrics``: the
        global service registry, the scenario registry's and every
        shard's, rolled into one (counters add, per-shard gauges keep
        their ``shard<k>.`` names, histograms merge exactly)."""
        from repro.perf import perf_document

        shard_registries = [shard.perf_registry() for shard in self.shards]
        with self._lock:
            own = PerfCounters().merge(self.perf)
        merged = merge_registries(
            self.registry.perf_registry(), own, *shard_registries
        )
        merged.set_gauge("service.queue_depth", float(self.queue_depth))
        merged.set_gauge("service.inflight", float(self.inflight))
        merged.set_gauge("service.draining", 1.0 if self.draining else 0.0)
        merged.set_gauge("service.shards", float(self.n_shards))
        return perf_document(
            merged.snapshot(),
            gauges=merged.gauges_snapshot(),
            histograms=merged.histograms_summary(),
            **context,
        )
