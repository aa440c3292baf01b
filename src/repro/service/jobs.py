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

Mapping is deterministic, so the router answers a repeated request
without a shard.  Its *request index* maps each request's
:class:`RequestKey` (scenario id, canonical heuristic, resolved weights)
to the newest retained job holding that key's result.  A repeat of a
succeeded job is answered at once; a duplicate of a queued or running
job attaches to it (single flight), up to ``max_queue`` duplicates per
job; only a miss is admitted to a shard.  Every request still gets its
own :class:`Job` record; a repeat or a duplicate names the job that ran
the map as its ``source`` and reads that job's :class:`MapRun`.  The
index holds no key beyond the job table (:data:`MAX_JOBS_KEPT`), and a
failed job leaves it.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.core.objective import Weights
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
#: keeps; beyond it the oldest finished job is forgotten.  Unfinished jobs
#: stay, at most ``max_queue + 1`` shard jobs per shard and ``max_queue``
#: duplicates waiting on each.  It bounds the request index too: a key
#: lives only as long as the record it points at.
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


class RequestKey(NamedTuple):
    """The canonical form of one map request: everything
    :func:`~repro.heuristics.run_heuristic` reads from it, so equal keys
    map to equal bytes.  The request index's key."""

    scenario_id: str
    heuristic: str  # canonical registry name
    weights: Weights | None  # None for the weight-free baselines


def _weight(name: str, value: object) -> float | None:
    """A request's α or β as a float (None when absent).  ValueError for a
    boolean, a non-number, or an integer too large for a float."""
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name!r} must be a number, not {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name!r} is out of range") from None


class MapRun:
    """One shard map, shared by the job that ran it and by every record
    answered from it.  Its shard's dispatcher sets ``state`` and
    ``started_at``; the router sets the rest when the map ends, then
    ``done``."""

    def __init__(self) -> None:
        self.state = "queued"  # queued | running | succeeded | failed
        self.error: str | None = None
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.outcome: dict | None = None
        self.done = threading.Event()
        self._encode_lock = threading.Lock()
        self._mapping_bytes: bytes | None = None  # guarded-by: _encode_lock

    def mapping_bytes(self) -> bytes | None:
        """Canonical mapping JSON of a succeeded map (None otherwise).

        The first reader encodes it and the outcome drops the mapping
        dict, so every reply sends bytes encoded once, and the encode
        runs on a request's thread, not on the shard's dispatcher.
        """
        with self._encode_lock:
            if self._mapping_bytes is None and self.outcome is not None:
                self._mapping_bytes = canonical_json_bytes(
                    self.outcome.pop("mapping")
                )
            return self._mapping_bytes


def _not_before(floor: float, moment: float | None) -> float | None:
    return None if moment is None else max(floor, moment)


@dataclass
class Job:
    """One ``/v1/map`` request through its lifecycle.

    A job that ran its own map has no :attr:`source`.  A repeat, or a
    duplicate attached to a job in flight, names that job as its source
    and reads state, error, outcome and ``done`` from the source's
    :class:`MapRun`.  Its own wait and total start at its submission.
    """

    id: str
    key: RequestKey
    shard: int = 0
    submitted_at: float = 0.0
    source: Job | None = None
    run: MapRun = field(default_factory=MapRun, repr=False)

    @property
    def state(self) -> str:
        return self.run.state

    @property
    def error(self) -> str | None:
        return self.run.error

    @property
    def outcome(self) -> dict | None:
        return self.run.outcome

    @property
    def done(self) -> threading.Event:
        return self.run.done

    @property
    def started_at(self) -> float | None:
        return _not_before(self.submitted_at, self.run.started_at)

    @property
    def finished_at(self) -> float | None:
        return _not_before(self.submitted_at, self.run.finished_at)

    @property
    def scenario_id(self) -> str:
        return self.key.scenario_id

    @property
    def heuristic(self) -> str:
        return self.key.heuristic

    @property
    def alpha_beta(self) -> tuple[float | None, float | None]:
        """The (α, β) the map runs with; (None, None) when weight-free."""
        weights = self.key.weights
        return (None, None) if weights is None else (weights.alpha, weights.beta)

    @property
    def mapping_bytes(self) -> bytes | None:
        """Canonical mapping JSON of a succeeded job (None otherwise)."""
        return self.run.mapping_bytes()

    def status_doc(self) -> dict:
        """JSON-ready status for ``GET /v1/jobs/<id>``."""
        alpha, beta = self.alpha_beta
        doc = {
            "job": self.id,
            "state": self.state,
            "scenario": self.scenario_id,
            "heuristic": self.heuristic,
            "alpha": alpha,
            "beta": beta,
            "shard": self.shard,
        }
        if self.source is not None:
            doc["source"] = self.source.id
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
    shard from the scenario digest, answers repeats from its request
    index, makes the global admission decision (draining → 503, target
    shard full → 429 + Retry-After), and keeps the bounded global job
    table that ``GET /v1/jobs/<id>`` reads.  All
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
        # The newest retained record holding each key's result.
        self._index: dict[RequestKey, Job] = {}  # guarded-by: _lock
        # Source job id → the duplicates waiting on it, at most max_queue.
        self._attached: dict[str, list[Job]] = {}  # guarded-by: _lock
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

    def request_key(
        self,
        scenario_id: object,
        heuristic: object,
        alpha: object = None,
        beta: object = None,
    ) -> RequestKey:
        """The canonical form of one map request.

        Raises :class:`ValueError` (400 upstream) for a missing or
        non-string scenario id, a non-string heuristic, a boolean or
        non-numeric weight, and weights
        :func:`~repro.heuristics.resolve_weights` rejects;
        :class:`KeyError` (404) for an unknown heuristic or an
        unregistered scenario.
        """
        if scenario_id is None or scenario_id == "":
            raise ValueError("missing 'scenario' (a registered scenario id)")
        if not isinstance(scenario_id, str):
            raise ValueError(
                f"'scenario' must be a string, not {type(scenario_id).__name__}"
            )
        if not isinstance(heuristic, str):
            raise ValueError(
                f"'heuristic' must be a string, not {type(heuristic).__name__}"
            )
        canonical = normalize_heuristic(heuristic)  # KeyError when unknown
        weights = resolve_weights(
            canonical, _weight("alpha", alpha), _weight("beta", beta)
        )
        if scenario_id not in self.registry:
            raise KeyError(f"scenario {scenario_id!r} is not registered")
        return RequestKey(scenario_id, canonical, weights)

    def submit(
        self,
        scenario_id: str,
        heuristic: str,
        alpha: float | None = None,
        beta: float | None = None,
    ) -> Job:
        """Answer one mapping request with its own :class:`Job`.

        After :meth:`request_key` has validated the request: draining
        raises :class:`DrainingError`; a key the index holds is answered
        without a shard (a repeat of a succeeded job is done at once, a
        duplicate of a queued or running job attaches to it); a miss is
        admitted to its shard.  A miss waits in its shard's queue and a
        duplicate on its source; either raises :class:`QueueFullError`
        when ``max_queue`` requests already wait there.
        """
        key = self.request_key(scenario_id, heuristic, alpha, beta)
        shard = self.shard_for(key.scenario_id)
        with self._lock:
            if self._stopped or self._draining:
                self.perf.inc("service.rejected_draining")
                _LOG.event("job.rejected", reason="draining", scenario=key.scenario_id)
                raise DrainingError("service is draining; not accepting jobs")
            held = self._index.get(key)
            source = None if held is None else held.source or held
            if source is not None and source.state == "succeeded":
                job = self._new_job_locked(key, shard, source)
                self.perf.inc("service.repeats")
                self.perf.observe("service.request_seconds", 0.0)
                _LOG.event("job.repeat", job=job.id, source=source.id)
            else:
                # Admission is serialised on this lock, so a depth read
                # here cannot be raced upward by another submitter; the
                # dispatcher and finishing jobs only ever shrink it.
                depth, retry_after = shard.admission_state(
                    self._per_job_seconds_locked()
                )
                if source is not None:
                    depth = len(self._attached.get(source.id, ()))
                if depth >= self.max_queue:
                    self.perf.inc("service.rejected")
                    _LOG.event(
                        "job.rejected",
                        reason="queue_full" if source is None else "attach_full",
                        scenario=key.scenario_id,
                        shard=shard.index,
                        queue_depth=depth,
                    )
                    raise QueueFullError(depth, retry_after)
                job = self._new_job_locked(key, shard, source)
                if source is None:
                    depth = shard.enqueue(job)
                    self.perf.inc("service.submitted")
                    _LOG.event(
                        "job.submitted",
                        job=job.id,
                        scenario=key.scenario_id,
                        heuristic=key.heuristic,
                        shard=shard.index,
                        queue_depth=depth,
                    )
                else:
                    self._attached.setdefault(source.id, []).append(job)
                    self.perf.inc("service.attached")
                    _LOG.event("job.attached", job=job.id, source=source.id)
            self._index[key] = job
            self._remember_locked(job)
        return job

    def _new_job_locked(
        self, key: RequestKey, shard: ProcessShard, source: Job | None
    ) -> Job:
        """A request's record: its own map's, or a view of *source*'s."""
        return Job(
            id=f"job-{next(self._ids):08d}",
            key=key,
            shard=shard.index,
            submitted_at=time.monotonic(),
            source=source,
            run=MapRun() if source is None else source.run,
        )

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
                if self._index.get(stale.key) is stale:
                    del self._index[stale.key]
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
        """Global accounting for one finished shard job (any dispatcher
        thread) and the records attached to it; the router lock makes
        concurrent shard completions exact."""
        run = job.run
        with self._lock:
            run.finished_at = time.monotonic()
            if error is not None:
                run.state = "failed"
                run.error = error
                self.perf.inc("service.failed")
                held = self._index.get(job.key)
                if held is not None and held.run is run:
                    del self._index[job.key]  # failures are never retained
            else:
                run.state = "succeeded"
                run.outcome = outcome
                self.perf.inc("service.completed")
                self.perf.observe(
                    "service.map_seconds", outcome["heuristic_seconds"]
                )
                self.perf.merge(outcome["perf"])  # engine counters (pool, plan …)
            for record in (job, *self._attached.pop(job.id, ())):
                self.perf.observe(
                    "service.request_seconds",
                    run.finished_at - record.submitted_at,
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
