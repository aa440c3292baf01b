"""Process-pool fan-out shared by the experiment and tuning drivers.

Every study in :mod:`repro.experiments` and :mod:`repro.tuning` is an
embarrassingly parallel grid — independent (heuristic, scenario,
weight-point) cells, each reproducible from its own
``SeedSequence.spawn`` stream — so fanning them over a
:class:`~concurrent.futures.ProcessPoolExecutor` is safe by construction.
The worker count comes from an explicit ``n_jobs`` argument, else the
``REPRO_JOBS`` environment variable (the CLI's ``--jobs`` flag sets it),
else 1; ``n_jobs == 1`` runs serially in-process with no executor, so the
serial path stays exactly the pre-parallel code path.  ``auto`` (either
spelling) resolves to :func:`os.cpu_count`.

Two entry points:

* :func:`parallel_starmap` — one-shot fan-out; spins an executor up and
  down around a single batch.
* :class:`ShardProcess` — a single *long-lived*, *stateful* child process
  driven over a command pipe with a result queue coming back.  Unlike an
  executor pool, the child keeps process-resident state between
  calls (the :mod:`repro.service` shard layer parks hot deserialised
  scenarios and live session kernels there).  Calls are synchronous RPCs
  serialised by a lock; a dead child is *detected* (liveness polled while
  waiting on the result queue) and surfaces as
  :class:`ShardCrashedError`, never as a hang.
"""

from __future__ import annotations

import os
import queue as _queue
import threading
import time
from typing import Any, Callable, Iterable, Sequence, TypeVar, Union

T = TypeVar("T")

JobsLike = Union[int, str, None]


def _coerce_count(value: int | str, what: str) -> int:
    """Parse a worker/shard count: an int, digits, or ``'auto'``."""
    if isinstance(value, str):
        text = value.strip()
        if text.lower() == "auto":
            value = os.cpu_count() or 1
        else:
            try:
                value = int(text)
            except ValueError:
                raise ValueError(
                    f"{what} must be an integer or 'auto', got {text!r}"
                ) from None
    if value < 1:
        raise ValueError(f"{what} must be >= 1, got {value}")
    return value


def resolve_jobs(n_jobs: JobsLike = None) -> int:
    """Effective worker count: *n_jobs*, else ``$REPRO_JOBS``, else 1.

    Either source accepts the literal string ``"auto"`` (case-insensitive),
    which resolves to :func:`os.cpu_count` (floored at 1 when the count is
    unknown).
    """
    if n_jobs is None:
        raw = os.environ.get("REPRO_JOBS", "").strip()
        n_jobs = raw if raw else 1
    return _coerce_count(n_jobs, "jobs")


def resolve_shards(shards: JobsLike = None) -> int:
    """Effective shard count: *shards*, else ``$REPRO_SHARDS``, else 1.

    Same grammar as :func:`resolve_jobs` (``'auto'`` →
    :func:`os.cpu_count`); only the argument and environment sources
    differ, so the daemon's ``--shards`` and the study CLI's ``--jobs``
    stay independently settable.
    """
    if shards is None:
        raw = os.environ.get("REPRO_SHARDS", "").strip()
        shards = raw if raw else 1
    return _coerce_count(shards, "shards")


class ShardCrashedError(RuntimeError):
    """The shard child process died before answering a call.

    The contract is *failure surfaced, never a hang*: callers waiting on
    a result observe this exception within one liveness-poll interval of
    the child's death, and every later call on the same process fails
    fast with it too (a dead shard stays dead; restarts are a deployment
    concern, not a library one).
    """


class ShardProcess:
    """One long-lived child process behind a command-pipe RPC.

    The parent sends picklable command tuples down a one-way pipe; the
    child's *main* function (``main(cmd_conn, result_queue, index,
    *args)``) answers every command with exactly one reply tuple on the
    result queue.  :meth:`call` pairs one send with one receive under a
    lock, so concurrent callers interleave at whole-call granularity —
    the child never sees interleaved commands and replies cannot be
    misattributed.

    Liveness: while waiting for a reply the parent wakes every
    ``poll_seconds`` to check the child is still alive; a dead child
    raises :class:`ShardCrashedError` (after one final drain of the
    result queue, closing the race where the reply was already in
    flight).  :attr:`last_beat` is the monotonic time of the last message
    received — the per-shard heartbeat ``/healthz`` reports.
    """

    _POLL_SECONDS = 0.25

    def __init__(
        self,
        main: Callable[..., None],
        index: int = 0,
        args: Sequence[Any] = (),
        poll_seconds: float = _POLL_SECONDS,
    ) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context()
        recv_conn, send_conn = ctx.Pipe(duplex=False)
        self.index = index
        self._results = ctx.Queue()
        self._proc = ctx.Process(
            target=main,
            args=(recv_conn, self._results, index, *args),
            name=f"repro-shard-{index}",
            daemon=True,
        )
        self._cmd = send_conn
        self._child_end = recv_conn
        self._poll = poll_seconds
        self._lock = threading.Lock()
        self._started = False
        self._stopped = False
        self.last_beat = 0.0

    def start(self) -> "ShardProcess":
        """Fork the child (idempotent); returns self."""
        with self._lock:
            if not self._started:
                self._proc.start()
                self._child_end.close()  # the child's end lives in the child
                self._started = True
                self.last_beat = time.monotonic()
        return self

    @property
    def pid(self) -> int | None:
        return self._proc.pid if self._started else None

    def alive(self) -> bool:
        return self._started and not self._stopped and self._proc.is_alive()

    def call(self, *command: Any) -> Any:
        """Send *command* and block for its reply (lock-serialised RPC).

        Raises :class:`ShardCrashedError` when the child is (or dies)
        mid-call — detected by liveness polling, so a crash never leaves
        the caller blocked forever.
        """
        with self._lock:
            return self._call_holding_lock(*command)

    def try_call(self, *command: Any) -> Any | None:
        """Like :meth:`call` but returns None instead of blocking when
        another call is in flight (used for non-blocking heartbeats)."""
        if not self._lock.acquire(blocking=False):
            return None
        try:
            return self._call_holding_lock(*command)
        finally:
            self._lock.release()

    def _call_holding_lock(self, *command: Any) -> Any:
        # requires-lock: _lock
        if not self._started or self._stopped or not self._proc.is_alive():
            raise ShardCrashedError(
                f"shard {self.index} is not running (pid={self.pid})"
            )
        try:
            self._cmd.send(command)
        except (BrokenPipeError, OSError) as exc:
            raise ShardCrashedError(
                f"shard {self.index} (pid={self.pid}) pipe is closed: {exc}"
            ) from None
        deadline_drain = False
        while True:
            try:
                reply = self._results.get(timeout=self._poll)
            except _queue.Empty:
                if deadline_drain:
                    raise ShardCrashedError(
                        f"shard {self.index} (pid={self.pid}) died while "
                        f"handling {command[0]!r}"
                    ) from None
                if not self._proc.is_alive():
                    # One final drain: the reply may already be in flight.
                    deadline_drain = True
                continue
            self.last_beat = time.monotonic()
            return reply

    def stop(self, timeout: float = 5.0) -> None:
        """Ask the child to exit, then make sure it did.  Idempotent."""
        with self._lock:
            if not self._started or self._stopped:
                self._stopped = True
                return
            self._stopped = True
            try:
                self._cmd.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            self._cmd.close()
        self._proc.join(timeout=timeout)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=timeout)
        self._results.close()
        self._results.cancel_join_thread()


def parallel_starmap(
    fn: Callable[..., T],
    argtuples: Iterable[Sequence],
    n_jobs: JobsLike = None,
    chunksize: int | None = None,
) -> list[T]:
    """Order-preserving ``[fn(*args) for args in argtuples]``, fanned over
    a process pool when the effective job count exceeds 1.

    *fn* and every argument must be picklable (module-level functions,
    plain dataclasses).  Results come back in input order, so callers can
    keep the deterministic merge logic of their serial loops.  An
    executor is spun up and torn down around this one call.
    """
    argtuples = [tuple(args) for args in argtuples]
    n_jobs = resolve_jobs(n_jobs)
    if n_jobs == 1 or len(argtuples) <= 1:
        return [fn(*args) for args in argtuples]
    from concurrent.futures import ProcessPoolExecutor

    if chunksize is None:
        chunksize = max(1, len(argtuples) // (4 * n_jobs))
    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        return list(pool.map(fn, *zip(*argtuples), chunksize=chunksize))
