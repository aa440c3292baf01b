"""Span recording from outside the program, for the traced run.

The benchmark never edits ``src/``: it wraps the public functions of each
layer where they are looked up (a class attribute, or a module global of
the module that calls it) and records one span per call.  Spans nest per
thread; a layer's *self* time is its span minus the wrapped calls it
made.  Each top-level span (depth 0 in its thread) is kept as one record
``[start, end, name, meta, {name: [calls, total_s, self_s]}, {count: n}]`` so
the client can keep exactly the records that fall in its timed window:
``time.perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, shared by every
process on the host, so daemon and shard records compare directly with
client timestamps.

This is deliberately not ``repro.obs``: its spans turn off the kernel's
columnar fast-forward, and its ledger forces the rebuild kernel, so both
would time a different program.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable

#: Trace counters the kernel-run wrapper reads off ``Schedule.perf``.
PERF_COUNTERS = (
    "pool.builds",
    "pool.members",
    "pool.reuse_hits",
    "pool.invalidations",
    "plan.cache.pair_hit",
    "plan.cache.pair_miss",
    "plan.pairs",
    "commit.count",
)


class Recorder:
    """Per-thread span stacks; finished top-level records in one list."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.records: list[list] = []  # guarded-by: _lock

    def _state(self) -> Any:
        state = self._local
        if not hasattr(state, "stack"):
            state.stack = []
            state.tree = None
            state.counts = None
            state.meta = None
        return state

    def span(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        state = self._state()
        stack = state.stack
        if not stack:
            state.tree, state.counts, state.meta = {}, {}, {}
            state.root = name
        frame = [0.0]
        stack.append(frame)
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            ended = time.perf_counter()
            elapsed = ended - started
            stack.pop()
            entry = state.tree.get(name)
            if entry is None:
                entry = state.tree[name] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += elapsed - frame[0]
            if stack:
                stack[-1][0] += elapsed
            else:
                record = [
                    started, ended, state.root, state.meta, state.tree, state.counts
                ]
                with self._lock:
                    self.records.append(record)

    def count(self, name: str, n: float) -> None:
        """Add *n* to a counter of the current top-level span."""
        counts = self._state().counts
        if counts is not None:
            counts[name] = counts.get(name, 0) + n

    def annotate(self, **meta: Any) -> None:
        """Attach *meta* to the current top-level span's record."""
        state = self._state()
        if state.meta is not None:
            state.meta.update(meta)

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    def reset(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.records = []

    def dump(self, path: Path) -> None:
        with self._lock:
            records = list(self.records)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"pid": os.getpid(), "records": records}))
        tmp.replace(path)


RECORDER = Recorder()


def _patch(owner: Any, attr: str, replacement_for: Callable[[Callable], Callable]) -> None:
    original = getattr(owner, attr)
    setattr(owner, attr, replacement_for(original))


def install_engine() -> None:
    """Wrap the kernel, pool, schedule and baseline layers (classes, so
    every caller in this process and its forked children sees them)."""
    from repro.baselines.greedy import GreedyScheduler
    from repro.baselines.maxmax import MaxMaxScheduler
    from repro.baselines.minmin import MinMinScheduler
    from repro.core.columnar import ColumnarPool
    from repro.core.kernel import SchedulingKernel
    from repro.core.slrh import SlrhScheduler
    from repro.sim.schedule import Schedule

    rec = RECORDER
    _patch(ColumnarPool, "pool_for", lambda f: rec.wrap("core.pool_for", f))
    _patch(ColumnarPool, "replan", lambda f: rec.wrap("core.replan", f))
    _patch(Schedule, "plan", lambda f: rec.wrap("sim.plan", f))
    _patch(Schedule, "plan_versions", lambda f: rec.wrap("sim.plan", f))
    _patch(Schedule, "commit", lambda f: rec.wrap("sim.commit", f))
    for cls in (SlrhScheduler, MaxMaxScheduler, MinMinScheduler, GreedyScheduler):
        _patch(cls, "map", lambda f: rec.wrap("core.map", f))

    def counted(kernel: Any, trace: Any, clock_driven: bool, call: Callable) -> Any:
        perf = kernel.schedule.perf
        before = [perf.get(name) for name in PERF_COUNTERS]
        ticks, scans, empty = trace.ticks, trace.machine_scans, trace.empty_pool_ticks
        try:
            return call()
        finally:
            for name, was in zip(PERF_COUNTERS, before):
                rec.count(name, perf.get(name) - was)
            rec.count("trace.ticks", trace.ticks - ticks)
            rec.count("trace.machine_scans", trace.machine_scans - scans)
            rec.count("trace.empty_pool_ticks", trace.empty_pool_ticks - empty)
            if clock_driven:
                rec.count("run.commits", perf.get("commit.count") - before[-1])
                rec.count("run.members", perf.get("pool.members") - before[1])

    def wrap_run(run: Callable) -> Callable:
        @functools.wraps(run)
        def wrapper(self: Any, policy: Any, clock: Any, trace: Any, **kwargs: Any) -> Any:
            return rec.span(
                "core.kernel",
                counted,
                self,
                trace,
                True,
                lambda: run(self, policy, clock, trace, **kwargs),
            )

        return wrapper

    def wrap_run_static(run_static: Callable) -> Callable:
        @functools.wraps(run_static)
        def wrapper(self: Any, select: Callable, trace: Any, **kwargs: Any) -> Any:
            timed_select = rec.wrap("baselines.select", select)
            return rec.span(
                "core.kernel",
                counted,
                self,
                trace,
                False,
                lambda: run_static(self, timed_select, trace, **kwargs),
            )

        return wrapper

    _patch(SchedulingKernel, "run", wrap_run)
    _patch(SchedulingKernel, "run_static", wrap_run_static)


def install_shard_child(spans_dir: Path) -> None:
    """Wrap the shard worker's layers; the fork-started shard children
    inherit these wrappers and dump their records when ``shard_main``
    returns (the child exits with ``os._exit``, so no atexit hook runs)."""
    import repro.service.shard as shard_module
    import repro.service.worker as worker
    from repro.session.codec import DeltaEncoder
    from repro.session.engine import SessionEngine

    rec = RECORDER
    _patch(worker, "execute_mapping", lambda f: rec.wrap("worker.job", f))
    _patch(worker, "scenario_from_dict", lambda f: rec.wrap("io.decode", f))
    _patch(worker, "mapping_to_dict", lambda f: rec.wrap("io.encode", f))
    _patch(worker, "canonical_json_bytes", lambda f: rec.wrap("io.encode", f))
    _patch(worker, "run_heuristic", lambda f: rec.wrap("service.map", f))
    _patch(worker.SessionHost, "open", lambda f: rec.wrap("session.open", f))
    _patch(worker.SessionHost, "apply", lambda f: rec.wrap("worker.session_apply", f))
    _patch(SessionEngine, "apply", lambda f: rec.wrap("session.apply", f))

    def wrap_delta_lines(delta_lines: Callable) -> Callable:
        def listed(*args: Any, **kwargs: Any) -> list:
            return list(delta_lines(*args, **kwargs))

        return rec.wrap("session.encode", listed)

    _patch(DeltaEncoder, "delta_lines", wrap_delta_lines)

    def wrap_shard_main(shard_main: Callable) -> Callable:
        @functools.wraps(shard_main)
        def wrapper(*args: Any, **kwargs: Any) -> None:
            rec.reset()  # forget anything inherited from the parent
            try:
                shard_main(*args, **kwargs)
            finally:
                rec.dump(spans_dir / f"spans-shard-{os.getpid()}.json")

        return wrapper

    # ProcessShard reads shard_main from its own module's globals.
    _patch(shard_module, "shard_main", wrap_shard_main)


def install_router() -> None:
    """Wrap the daemon's HTTP handler, admission, pipe RPC and encode."""
    import repro.service.app as app
    import repro.service.jobs as jobs
    from repro.service.shard import ProcessShard

    rec = RECORDER
    current = threading.local()

    def wrap_submit(submit: Callable) -> Callable:
        @functools.wraps(submit)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            job = submit(*args, **kwargs)
            current.job = job
            return job

        return wrapper

    _patch(jobs.ShardRouter, "submit", wrap_submit)

    def handle(do_post: Callable, handler: Any) -> None:
        current.job = None
        do_post(handler)
        job = current.job
        if job is not None and job.finished_at is not None:
            started = job.started_at or job.finished_at
            rec.annotate(
                job=job.id,
                wait_s=started - job.submitted_at,
                total_s=job.finished_at - job.submitted_at,
            )
        rec.annotate(path=handler.path)

    def wrap_do_post(do_post: Callable) -> Callable:
        @functools.wraps(do_post)
        def wrapper(handler: Any) -> None:
            rec.span("service.handler", handle, do_post, handler)

        return wrapper

    _patch(app.ServiceHandler, "do_POST", wrap_do_post)
    _patch(app.ServiceHandler, "do_GET", lambda f: rec.wrap("service.handler_get", f))
    _patch(jobs, "canonical_json_bytes", lambda f: rec.wrap("io.encode", f))
    _patch(app, "canonical_json_bytes", lambda f: rec.wrap("io.encode", f))
    for name in ("run_job", "session_open", "session_events", "session_result"):
        _patch(ProcessShard, name, lambda f: rec.wrap("service.rpc", f))
