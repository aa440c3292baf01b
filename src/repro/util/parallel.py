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

:func:`parallel_starmap` is the one entry point: a one-shot fan-out that
spins an executor up and down around a single batch.  The service's
long-lived, stateful shard children are not a pool; they live in
:class:`repro.service.shard.ProcessShard`.  :func:`resolve_shards`
parses their count here because it shares :func:`resolve_jobs`'s
grammar.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Sequence, TypeVar, Union

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
