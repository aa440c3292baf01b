"""What runs inside a shard child process.

:func:`execute_mapping` takes and returns only plain JSON-able values and
dispatches through the same registry as the batch CLI
(:func:`repro.heuristics.run_heuristic`), which is what keeps served
results byte-identical to the batch CLI at any shard count.

Each shard keeps one small LRU of deserialised scenarios keyed by content
digest (:class:`_ScenarioCache`), shared by its jobs and its sessions, so
a stream of requests against one hot scenario deserialises it once per
shard, not once per request.  The bound is the constant
:data:`SCENARIO_CACHE_SIZE`, and every hit/miss/eviction is reported
back in the job outcome's perf snapshot as
``worker.scenario_cache_{hits,misses,evictions}``.

:func:`shard_main` is the shard child's top-level loop: it reads command
tuples off its end of the shard's duplex pipe and answers each with
exactly one reply on the same pipe (the
:class:`~repro.service.shard.ProcessShard` contract).  Besides one-shot
jobs it hosts *sessions* — persistent
:class:`~repro.session.SessionEngine` kernels that live in exactly one
shard process for their whole lifetime (:class:`SessionHost`).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from collections import OrderedDict
from dataclasses import replace as _dc_replace
from multiprocessing.connection import Connection, wait
from typing import Any

from repro.core.kernel import KERNEL_MODES, resolve_kernel_mode
from repro.heuristics import (
    SLRH_FAMILY,
    make_scheduler,
    normalize_heuristic,
    resolve_weights,
    run_heuristic,
)
from repro.io.serialization import (
    canonical_json_bytes,
    mapping_to_dict,
    scenario_from_dict,
)
from repro.session import DeltaEncoder, SessionEngine, event_from_dict
from repro.sim.trace import MappingTrace
from repro.workload.scenario import Scenario

#: Bound on deserialised scenarios kept hot per shard.
SCENARIO_CACHE_SIZE = 8

#: SlrhConfig fields a session-open request may override.  Everything
#: else (weights aside) is pinned to the registry defaults so "same
#: scenario + heuristic + overrides" means the same mapping everywhere.
_CONFIG_OVERRIDES = ("delta_t_cycles", "horizon_cycles", "kernel")


class _ScenarioCache:
    """Bounded LRU of deserialised scenarios with per-call stats.

    Not thread-safe: a shard child builds one and runs every command that
    touches it on its single command-loop thread.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self._scenarios: OrderedDict[str, Scenario] = OrderedDict()

    def get(self, scenario_id: str, doc: dict) -> tuple[Scenario, dict]:
        """The deserialised scenario plus this lookup's cache-stat deltas
        (nonzero ``worker.scenario_cache_*`` counters only)."""
        scenario = self._scenarios.get(scenario_id)
        if scenario is not None:
            self._scenarios.move_to_end(scenario_id)
            return scenario, {"worker.scenario_cache_hits": 1}
        scenario = scenario_from_dict(doc)
        self._scenarios[scenario_id] = scenario
        stats = {"worker.scenario_cache_misses": 1}
        evicted = 0
        while len(self._scenarios) > self.limit:
            self._scenarios.popitem(last=False)
            evicted += 1
        if evicted:
            stats["worker.scenario_cache_evictions"] = evicted
        return scenario, stats

    def __len__(self) -> int:
        return len(self._scenarios)


def build_scheduler(canonical: str, body: dict) -> Any:
    """Construct the scheduler a session-open request describes.

    Raises ``ValueError`` for weights that
    :func:`~repro.heuristics.resolve_weights` rejects, config overrides
    outside the SLRH family, or an unknown kernel mode.
    """
    overrides: dict = {}
    for key in _CONFIG_OVERRIDES:
        if body.get(key) is not None:
            overrides[key] = body[key]
    if canonical not in SLRH_FAMILY and overrides:
        raise ValueError(
            f"{sorted(overrides)} only apply to the SLRH family, "
            f"not {canonical!r}"
        )
    weights = resolve_weights(canonical, body.get("alpha"), body.get("beta"))
    scheduler = make_scheduler(canonical, weights)
    if overrides:
        for key in ("delta_t_cycles", "horizon_cycles"):
            if key in overrides:
                value = overrides[key]
                if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                    raise ValueError(f"{key} must be a positive integer")
        if "kernel" in overrides and overrides["kernel"] not in KERNEL_MODES:
            raise ValueError(
                f"unknown kernel mode {overrides['kernel']!r}; "
                f"expected one of {', '.join(KERNEL_MODES)}"
            )
        scheduler = scheduler.__class__(
            _dc_replace(scheduler.config, **overrides)
        )
    return scheduler


def trace_events(trace: MappingTrace) -> list[dict]:
    """Tick-level progress events of a finished mapping, NDJSON-ready.

    One ``commit`` event per committed assignment (in commit order, with
    the heuristic clock, pool size and running T100) plus one trailing
    ``trace`` summary event.
    """
    events = [
        {
            "event": "commit",
            "clock": r.clock,
            "task": r.task,
            "version": r.version,
            "machine": r.machine,
            "start": r.start,
            "finish": r.finish,
            "objective": r.objective,
            "pool_size": r.pool_size,
            "t100": r.t100,
        }
        for r in trace.records
    ]
    events.append(
        {
            "event": "trace",
            "ticks": trace.ticks,
            "commits": trace.n_commits,
            "empty_pool_ticks": trace.empty_pool_ticks,
            "machine_scans": trace.machine_scans,
            # Which candidate-pool maintenance mode the kernel ran under
            # (mappings are byte-identical across modes; this is for
            # provenance when $REPRO_KERNEL pins the rebuild oracle).
            "kernel": resolve_kernel_mode(None),
        }
    )
    return events


def execute_mapping(
    scenario_id: str,
    scenario_doc: dict,
    heuristic: str,
    alpha: float | None,
    beta: float | None,
    cache: _ScenarioCache,
) -> dict:
    """Run *heuristic* on the scenario (deserialised through *cache*) and
    return a plain-dict outcome.

    The outcome carries the mapping document (canonicalised to bytes by
    the caller), the tick-level trace events, the run's perf-counter
    snapshot (including this lookup's scenario-cache stats) and a summary
    — everything the service surfaces, nothing that needs the shard
    process again.
    """
    scenario, cache_stats = cache.get(scenario_id, scenario_doc)
    result = run_heuristic(heuristic, scenario, alpha, beta)
    perf = dict(result.trace.perf)
    for key, value in cache_stats.items():
        perf[key] = perf.get(key, 0) + value
    return {
        "mapping": mapping_to_dict(result.schedule),
        "events": trace_events(result.trace),
        "perf": perf,
        "heuristic": result.heuristic,
        "heuristic_seconds": result.heuristic_seconds,
        "summary": {
            "scenario": scenario.name,
            "n_tasks": scenario.n_tasks,
            "n_mapped": result.schedule.n_mapped,
            "t100": result.t100,
            "aet": result.aet,
            "tec": result.tec,
            "success": result.success,
        },
    }


class SessionHost:
    """Worker-side table of live session kernels.

    This is where a persistent :class:`~repro.session.SessionEngine`
    actually lives — in exactly one process for its whole lifetime
    (session-affine routing upstream guarantees every batch for a session
    lands here).  The parent-side
    :class:`~repro.service.sessions.LiveSession` is a thin proxy over
    these methods.

    One lock serialises the session table and event application.  In a
    shard child every call arrives serially off the shard's pipe, so the
    lock is uncontended; the child's jobs share *cache* on that same
    thread.
    """

    def __init__(self, cache: _ScenarioCache) -> None:
        self._lock = threading.Lock()
        self._sessions: dict[str, dict] = {}  # guarded-by: _lock
        self._cache = cache

    def open(
        self, session_id: str, scenario_id: str, doc: dict, body: dict
    ) -> dict:
        """Create the engine+encoder pair for a validated open request.

        Raises ``ValueError``/``IndexError``/``KeyError`` exactly like
        direct :class:`SessionEngine` construction, so upstream HTTP
        status mapping is unchanged.
        """
        canonical = normalize_heuristic(body.get("heuristic", "slrh1"))
        scheduler = build_scheduler(canonical, body)
        pending = body.get("pending", [])
        with self._lock:
            scenario, _stats = self._cache.get(scenario_id, doc)
            engine = SessionEngine(scenario, scheduler, pending=pending)
            self._sessions[session_id] = {
                "engine": engine,
                "encoder": DeltaEncoder(engine.schedule),
                "scenario_id": scenario_id,
                "heuristic": canonical,
                "n_errors": 0,
                "accounted": False,
            }
            return {"pending": sorted(engine.pending), "heuristic": canonical}

    def apply(self, session_id: str, event_docs: list[dict]) -> dict:
        """Apply an event batch; returns the encoded delta lines plus
        bookkeeping the parent needs (new error count, closed flag, and
        — exactly once, at close — the engine's perf snapshot).

        A rejected event (time travel, unknown id, double loss …) adds
        one ``{"record": "error", ...}`` line and ends the batch; the
        engine rejects atomically, so the session stays usable and the
        remaining events are simply not applied.
        """
        with self._lock:
            record = self._sessions[session_id]
            engine = record["engine"]
            encoder = record["encoder"]
            lines: list[bytes] = []
            new_errors = 0
            for index, event_doc in enumerate(event_docs):
                event = event_from_dict(event_doc)
                try:
                    engine.apply(event)
                except (ValueError, IndexError) as exc:
                    record["n_errors"] += 1
                    new_errors += 1
                    lines.append(
                        canonical_json_bytes(
                            {
                                "record": "error",
                                "error": str(exc),
                                "event_index": index,
                            }
                        )
                    )
                    break
                lines.extend(
                    encoder.delta_lines(cycle=event.cycle, event=event.kind)
                )
                if engine.closed:
                    lines.extend(encoder.footer_lines())
                    break
            perf = None
            if engine.closed and not record["accounted"]:
                record["accounted"] = True
                perf = engine.schedule.perf.snapshot()
            return {
                "lines": lines,
                "closed": engine.closed,
                "errors": new_errors,
                "perf": perf,
            }

    def status(self, session_id: str) -> dict:
        """JSON-ready status doc for ``GET /v1/session/<id>``."""
        with self._lock:
            record = self._sessions[session_id]
            engine = record["engine"]
            doc = {
                "session": session_id,
                "state": "closed" if engine.closed else "open",
                "scenario": record["scenario_id"],
                "heuristic": record["heuristic"],
                "cursor": engine.cursor,
                "seq": record["encoder"].seq,
                "n_mapped": engine.schedule.n_mapped,
                "pending": sorted(engine.pending),
                "errors": record["n_errors"],
            }
            if engine.closed:
                outcome = engine.outcome
                doc["n_events"] = outcome.n_events
                doc["rolled_back"] = outcome.total_rolled_back
                doc["success"] = outcome.final.success
                doc["heuristic_seconds"] = outcome.final.heuristic_seconds
            return doc

    def result(self, session_id: str) -> bytes | None:
        """Canonical mapping JSON of a closed session (None while open)
        — byte-identical to an offline replay of the same events."""
        with self._lock:
            engine = self._sessions[session_id]["engine"]
            if not engine.closed:
                return None
            return canonical_json_bytes(mapping_to_dict(engine.schedule))

    def discard(self, session_id: str) -> bool:
        """Drop a session's kernel (idle eviction upstream); returns
        whether it existed."""
        with self._lock:
            return self._sessions.pop(session_id, None) is not None

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)


def shard_main(conn: Connection, index: int) -> None:
    """Shard child main loop: one reply per command, state kept hot.

    Commands (plain tuples; first element is the op):

    * ``("ping",)`` → ``("ok", {"pid": ...})`` — liveness heartbeat.
    * ``("job", scenario_id, doc|None, heuristic, alpha, beta)`` — run a
      mapping.  The raw scenario doc is shipped only the *first* time a
      scenario reaches this shard (affine placement makes that sticky;
      a miss spilled here from a busy shard ships it here too);
      afterwards the parent sends ``None`` and the shard replays from
      its resident copy.  Jobs and sessions share one scenario LRU of
      :data:`SCENARIO_CACHE_SIZE` entries.
    * ``("session_open", scenario_id, doc|None, session_id, body)`` —
      open a hosted session; the doc is shipped like a job's.
    * ``("session_events"|"session_status"|"session_result"|
      "session_discard", session_id, ...)`` — hosted-session RPCs (see
      :class:`SessionHost`).
    * ``("stop",)`` — acknowledge and exit the loop.
    * ``("exit", code)`` — ``os._exit(code)`` with *no* reply: the crash
      everyone upstream must survive (tests inject it on purpose).

    Failures reply ``("error", exc_type_name, message)`` so the parent
    can re-raise the matching builtin; successes reply ``("ok", value)``.
    Every reply goes back on *conn*.

    The loop also ends when the parent dies.  A forked child inherits
    copies of the parent's pipe ends (its own and its older siblings'),
    so the parent's death need not close *conn*; the child waits on the
    parent's sentinel as well, which fires however the parent exits.
    """
    docs: dict[str, dict] = {}
    cache = _ScenarioCache(SCENARIO_CACHE_SIZE)
    sessions = SessionHost(cache)
    parent = multiprocessing.parent_process()
    watched: list[Connection | int] = [conn]
    if parent is not None:
        watched.append(parent.sentinel)
    while True:
        if conn not in wait(watched):
            break  # only the parent's sentinel fired: the daemon is gone
        try:
            # No timeout: the child's only job is this wait, and wait()
            # above returns on a command or on the parent's death, so a
            # dead daemon ends the loop.
            command = conn.recv()
        except (EOFError, OSError):
            break
        op = command[0]
        if op == "stop":
            conn.send(("ok", "stopped"))
            break
        if op == "exit":
            os._exit(int(command[1]))
        try:
            if op == "ping":
                reply = {"pid": os.getpid(), "sessions": len(sessions)}
            elif op == "job":
                _, scenario_id, doc, heuristic, alpha, beta = command
                if doc is not None:
                    docs[scenario_id] = doc
                reply = execute_mapping(
                    scenario_id, docs[scenario_id], heuristic, alpha, beta, cache
                )
            elif op == "session_open":
                _, scenario_id, doc, session_id, body = command
                if doc is not None:
                    docs[scenario_id] = doc
                reply = sessions.open(
                    session_id, scenario_id, docs[scenario_id], body
                )
            elif op == "session_events":
                reply = sessions.apply(command[1], command[2])
            elif op == "session_status":
                reply = sessions.status(command[1])
            elif op == "session_result":
                reply = sessions.result(command[1])
            elif op == "session_discard":
                reply = sessions.discard(command[1])
            else:
                raise ValueError(f"unknown shard command {op!r}")
        except Exception as exc:  # surfaced to the parent, never fatal here
            conn.send(("error", type(exc).__name__, str(exc)))
        else:
            conn.send(("ok", reply))
