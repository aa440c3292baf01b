"""repro.service — the long-running SLRH scheduling daemon.

The paper's SLRH manager is an *online* resource manager: a clock-driven
process reacting to an ad hoc grid.  This package is its serving layer —
the deployment shape assumed by grid brokers such as Nimrod/G (Buyya et
al.) and the DAG-scheduling platforms of Pop & Cristea — built entirely
from the stdlib on top of the existing engine:

* :mod:`repro.service.registry` — content-addressed scenario store
  (``sha256:`` of the canonical scenario bytes), documents only;
* :mod:`repro.service.jobs` — admission control (bounded per-shard queues
  → HTTP 429), scenario-affine routing over the shard layer
  (:class:`~repro.service.jobs.ShardRouter`), graceful drain, and the live
  :mod:`repro.perf` registry (counters + gauges + latency histograms);
* :mod:`repro.service.shard` / :mod:`repro.service.worker` — one
  :class:`~repro.service.shard.ProcessShard` per shard (its bounded
  queue, dispatcher thread and forked child, ``--shards 1`` included)
  and what runs in the child: the mapping executor, the session host
  and the one per-shard scenario LRU;
* :mod:`repro.service.app` — the HTTP surface (``/v1/scenarios``,
  ``/v1/map``, ``/v1/jobs/<id>`` + NDJSON event streaming, ``/healthz``,
  ``/metrics``);
* :mod:`repro.service.loadgen` — a concurrent load generator that writes
  the ``BENCH_service.json`` artefact.

Start it with ``python -m repro.service [--port] [--shards] [--max-queue]``.

Determinism contract: for a fixed scenario + seed, the mapping JSON served
by ``POST /v1/map`` is byte-identical to ``python -m repro.experiments
map``'s output for every heuristic in :mod:`repro.heuristics` — both
surfaces dispatch through the same registry and encode through
:func:`repro.io.serialization.canonical_mapping_bytes`.
"""

from repro.service.jobs import (
    DrainingError,
    Job,
    QueueFullError,
    ShardRouter,
)
from repro.service.registry import ScenarioRegistry

__all__ = [
    "DrainingError",
    "Job",
    "QueueFullError",
    "ScenarioRegistry",
    "ShardRouter",
]
