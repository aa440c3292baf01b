"""Content-addressed scenario registry.

A scenario's identity is :func:`repro.io.serialization.scenario_digest` —
SHA-256 over the canonical bytes of its JSON document — so registering the
same document twice is a no-op returning the same id, and two clients that
built the same scenario independently converge on one stored copy.

The registry keeps only *documents*: they are the source of truth and are
what shard processes receive.  Deserialised
:class:`~repro.workload.scenario.Scenario` objects live in the shard that
maps them (:class:`repro.service.worker._ScenarioCache`), never here.
"""

from __future__ import annotations

import threading

from repro.io.serialization import scenario_digest, scenario_from_dict
from repro.perf import PerfCounters


class ScenarioRegistry:
    """Thread-safe content-addressed store of scenario documents."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.perf = PerfCounters()  # guarded-by: _lock
        self._docs: dict[str, dict] = {}  # guarded-by: _lock

    def put(self, doc: dict) -> tuple[str, bool]:
        """Register *doc*; returns ``(scenario_id, created)``.

        The document is validated by a full deserialisation before it is
        accepted (a malformed upload is rejected with :class:`ValueError`,
        never stored); the deserialised scenario is then dropped.
        """
        scenario_id = scenario_digest(doc)  # also rejects non-scenario kinds
        with self._lock:
            if scenario_id in self._docs:
                self.perf.inc("registry.put_dup")
                return scenario_id, False
        scenario_from_dict(doc)  # outside the lock: may be slow
        with self._lock:
            created = scenario_id not in self._docs
            if created:
                self._docs[scenario_id] = doc
                self.perf.inc("registry.put")
            else:
                self.perf.inc("registry.put_dup")
            self.perf.set_gauge("registry.scenarios", float(len(self._docs)))
        return scenario_id, created

    def perf_registry(self) -> PerfCounters:
        """A copy of the registry's counters and gauges, taken under its
        lock (a concurrent ``put`` may add keys)."""
        with self._lock:
            return PerfCounters().merge(self.perf)

    def get_doc(self, scenario_id: str) -> dict:
        """The stored document for *scenario_id* (KeyError when absent)."""
        with self._lock:
            return self._docs[scenario_id]

    def ids(self) -> list[str]:
        with self._lock:
            return sorted(self._docs)

    def __contains__(self, scenario_id: str) -> bool:
        with self._lock:
            return scenario_id in self._docs

    def __len__(self) -> int:
        with self._lock:
            return len(self._docs)
