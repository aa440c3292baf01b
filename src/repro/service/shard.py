"""The shard execution backend: one forked child process per shard.

A *shard* is the unit the service scales over: one bounded queue + one
dispatcher thread (both in :mod:`repro.service.jobs`) in front of one
:class:`ProcessShard`, which ships every call to a long-lived
:class:`~repro.util.parallel.ShardProcess` child running
:func:`~repro.service.worker.shard_main` — at every shard count,
``--shards 1`` included, so the router process never maps or hosts a
session itself.  Scenario docs are shipped at most once per shard
(``_shipped``); the child keeps the raw doc and its deserialised-LRU
entry resident, which is what affine routing buys.  Child-side
exceptions come back as ``("error", type_name, message)`` and are
re-raised here as the matching builtin, so upstream HTTP status mapping
sees the same exceptions a direct call would raise.  A dead child
surfaces as :class:`~repro.util.parallel.ShardCrashedError` — jobs
*fail*, they never hang — and the shard stays dead (no auto-restart;
``/healthz`` goes 503 so the operator sees it).
"""

from __future__ import annotations

import threading
import time
from typing import Any

from repro.service.worker import DEFAULT_SCENARIO_CACHE, shard_main
from repro.util.parallel import ShardCrashedError, ShardProcess

#: Child exception names re-raised as their builtin counterparts; anything
#: unrecognised degrades to RuntimeError (a 500 upstream, never a hang).
_ERROR_TYPES: dict[str, type[Exception]] = {
    "KeyError": KeyError,
    "ValueError": ValueError,
    "TypeError": TypeError,
    "IndexError": IndexError,
    "RuntimeError": RuntimeError,
}


class ProcessShard:
    """Child-process backend over the :class:`ShardProcess` RPC pipe."""

    def __init__(
        self, index: int, scenario_cache: int = DEFAULT_SCENARIO_CACHE
    ) -> None:
        self.index = index
        self._proc = ShardProcess(
            shard_main, index=index, args=(scenario_cache,)
        )
        self._lock = threading.Lock()
        self._shipped: set[str] = set()  # guarded-by: _lock

    def start(self) -> "ProcessShard":
        self._proc.start()
        return self

    def stop(self) -> None:
        self._proc.stop()

    def alive(self) -> bool:
        return self._proc.alive()

    @property
    def pid(self) -> int | None:
        return self._proc.pid

    def heartbeat_age(self) -> float:
        """Seconds since the child last answered.  Pings only when the
        command pipe is free, so health checks never queue behind a
        running job — a busy shard's age just keeps growing until its
        current reply lands."""
        try:
            self._proc.try_call("ping")
        except ShardCrashedError:
            pass
        return max(0.0, time.monotonic() - self._proc.last_beat)

    def _rpc(self, *command: Any) -> Any:
        reply = self._proc.call(*command)
        if reply[0] == "ok":
            return reply[1]
        _, name, message = reply
        raise _ERROR_TYPES.get(name, RuntimeError)(message)

    def _doc_to_ship(self, scenario_id: str, doc: dict) -> dict | None:
        # Optimistically marked before the send: if the call crashes the
        # shard is dead for good, so a wrong "shipped" entry is moot.
        with self._lock:
            if scenario_id in self._shipped:
                return None
            self._shipped.add(scenario_id)
            return doc

    def run_job(
        self,
        scenario_id: str,
        doc: dict,
        heuristic: str,
        alpha: float | None,
        beta: float | None,
    ) -> dict:
        return self._rpc(
            "job",
            scenario_id,
            self._doc_to_ship(scenario_id, doc),
            heuristic,
            alpha,
            beta,
        )

    def session_open(
        self, session_id: str, scenario_id: str, doc: dict, body: dict
    ) -> dict:
        return self._rpc(
            "session_open",
            session_id,
            scenario_id,
            self._doc_to_ship(scenario_id, doc),
            body,
        )

    def session_events(self, session_id: str, event_docs: list[dict]) -> dict:
        return self._rpc("session_events", session_id, event_docs)

    def session_status(self, session_id: str) -> dict:
        return self._rpc("session_status", session_id)

    def session_result(self, session_id: str) -> bytes | None:
        return self._rpc("session_result", session_id)

    def session_discard(self, session_id: str) -> bool:
        return self._rpc("session_discard", session_id)
