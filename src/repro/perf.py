"""Performance counter registry.

The ROADMAP north star is a mapper that runs "as fast as the hardware
allows"; you cannot steer that without measuring it.  :class:`PerfCounters`
is a tiny flat registry of named ``float`` accumulators shared by the hot
paths (plans computed, pool sizes and reuse, per-phase wall time).  Every :class:`~repro.sim.schedule.Schedule` owns one; heuristics
snapshot it into :class:`~repro.sim.trace.MappingTrace` at the end of a
mapping, and the experiment drivers merge the snapshots upward so a whole
weight-search study (possibly spread over worker processes) reduces to one
JSON artefact next to the ``benchmarks/out/`` outputs.

Counter namespace (dotted, flat):

``plan.pairs``
    (task, machine) plan pairs computed from scratch (the hot path).
``pool.builds`` / ``pool.members``
    Candidate pools built and their total membership.
``pool.reuse_hits`` / ``pool.invalidations``
    Columnar pool slots reused as-is / re-planned (the delta rate).
``pool.empty_ticks`` / ``tick.count``
    Heuristic ticks whose pools all came up empty, and total ticks run
    (surfaced from :class:`~repro.sim.trace.MappingTrace` so the ratio is
    visible on ``/metrics`` without parsing traces).
``commit.count`` / ``unassign.count``
    Schedule mutations.
``phase.pool_seconds`` / ``phase.commit_seconds`` / ``map.seconds``
    Wall time per phase and per whole mapping; ``map.runs`` counts
    mappings merged into a snapshot.
``span.<name>_seconds`` (histograms)
    Per-span wall-time distributions recorded when a
    :class:`repro.obs.spans.Tracer` is attached to a mapping
    (``span.pool.build_seconds``, ``span.select_seconds``,
    ``span.commit_seconds``, ``span.tick_seconds``, ``span.map_seconds``).

The registry is deliberately schema-free: unknown counters merge like any
other.  :func:`write_perf_json` pins the on-disk schema (documented in
DESIGN.md).

Besides monotonically accumulating *counters*, the serving layer
(:mod:`repro.service`) needs two more instrument kinds, added in schema
``repro.perf/2``:

* **gauges** — last-write-wins point-in-time values (queue depth, jobs in
  flight, registry size).  :meth:`PerfCounters.set_gauge` records them;
  merging takes the other side's value.
* **histograms** — distributions of observations (request latency, map
  wall time) with exact nearest-rank percentiles.  See :class:`Histogram`;
  :meth:`PerfCounters.observe` feeds the registry-owned instances.

Counter-only callers are unaffected: snapshots, merges and the JSON layout
only grow gauge/histogram sections when those instruments were used.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Mapping

#: On-disk schema identifier written by :func:`write_perf_json`.
PERF_SCHEMA = "repro.perf/2"

#: Histogram percentiles reported in snapshots and the JSON artefact.
HISTOGRAM_PERCENTILES = (50.0, 95.0, 99.0)


class Histogram:
    """Exact distribution of float observations with bounded memory.

    Observations accumulate in insertion order; ``count``/``sum`` are exact
    over the histogram's whole lifetime.  Percentiles are computed
    *nearest-rank* over the retained observations.  When the retained list
    exceeds ``maxlen`` it is compressed deterministically: the list is
    sorted and every second element kept (the elements at even sorted
    indices 0, 2, 4, …), which halves memory while preserving the
    distribution's shape (no RNG — snapshots stay reproducible
    run-to-run for a fixed observation sequence).

    Compression bias, documented so consumers are not surprised:

    * Below ``maxlen`` retained observations, percentiles are **exact**
      nearest-rank values — some observed value, never an interpolation.
    * After compression, keeping even sorted indices systematically drops
      the retained maximum whenever the retained count is even (the last
      element sits at an odd index), so upper-tail percentiles (p99, max)
      can step **down** after a compression even though the true
      distribution did not change; the retained minimum is always kept,
      so low percentiles are stable.  ``count``/``sum``/``mean`` are
      never affected — only which sample a percentile lands on.
    * Because compression sorts first, the retained set depends only on
      the *multiset* of retained observations, never their arrival order:
      ``a.merge(b)`` and ``b.merge(a)`` report identical percentiles.
      Chained merges are deterministic for a fixed order but not
      associative — once an *intermediate* merge triggers compression,
      a different grouping may retain a slightly different sample set.
    """

    __slots__ = ("_obs", "count", "total", "maxlen")

    def __init__(self, maxlen: int = 8192) -> None:
        if maxlen < 2:
            raise ValueError("maxlen must be >= 2")
        self._obs: list[float] = []
        self.count = 0
        self.total = 0.0
        self.maxlen = maxlen

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self._obs.append(value)
        if len(self._obs) > self.maxlen:
            self._obs = sorted(self._obs)[::2]

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile *q* in [0, 100]; NaN when empty."""
        if not self._obs:
            return float("nan")
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        import math

        ordered = sorted(self._obs)
        rank = max(1, math.ceil(q / 100.0 * len(ordered)))
        return ordered[rank - 1]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold *other*'s observations into this histogram; returns self."""
        self.count += other.count
        self.total += other.total
        self._obs.extend(other._obs)
        while len(self._obs) > self.maxlen:
            self._obs = sorted(self._obs)[::2]
        return self

    def summary(self) -> dict:
        """JSON-ready summary: count, sum, mean and the standard percentiles."""
        doc = {"count": self.count, "sum": self.total, "mean": self.mean}
        for q in HISTOGRAM_PERCENTILES:
            doc[f"p{q:g}"] = self.percentile(q)
        return doc


class PerfCounters:
    """A flat registry of named float accumulators, gauges and histograms."""

    __slots__ = ("_values", "_gauges", "_hists")

    def __init__(self, values: Mapping[str, float] | None = None) -> None:
        self._values: dict[str, float] = dict(values) if values else {}
        self._gauges: dict[str, float] = {}
        self._hists: dict[str, Histogram] = {}

    # -- recording ---------------------------------------------------------

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Add *amount* to counter *name* (creating it at 0)."""
        self._values[name] = self._values.get(name, 0.0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge *name* to *value* (last write wins)."""
        self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record *value* into histogram *name* (creating it empty)."""
        hist = self._hists.get(name)
        if hist is None:
            hist = self._hists[name] = Histogram()
        hist.observe(value)

    @contextmanager
    def timer(self, name: str):
        """Accumulate the wall time of the ``with`` body into *name*."""
        started = time.perf_counter()
        try:
            yield self
        finally:
            self.inc(name, time.perf_counter() - started)

    @contextmanager
    def latency_timer(self, name: str):
        """Observe the wall time of the ``with`` body into histogram *name*."""
        started = time.perf_counter()
        try:
            yield self
        finally:
            self.observe(name, time.perf_counter() - started)

    # -- reading -----------------------------------------------------------

    def get(self, name: str, default: float = 0.0) -> float:
        return self._values.get(name, default)

    def gauge(self, name: str, default: float = 0.0) -> float:
        return self._gauges.get(name, default)

    def histogram(self, name: str) -> Histogram | None:
        return self._hists.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def __len__(self) -> int:
        return len(self._values)

    def snapshot(self) -> dict[str, float]:
        """An independent copy of the current counter values."""
        return dict(self._values)

    def gauges_snapshot(self) -> dict[str, float]:
        """An independent copy of the current gauge values."""
        return dict(self._gauges)

    def histograms_summary(self) -> dict[str, dict]:
        """JSON-ready ``{name: Histogram.summary()}`` for every histogram."""
        return {name: h.summary() for name, h in sorted(self._hists.items())}

    # -- combining ---------------------------------------------------------

    def merge(self, other: "PerfCounters | Mapping[str, float]") -> "PerfCounters":
        """Fold *other* into this registry; returns self.

        Counters add; gauges take *other*'s value (it is newer); histograms
        concatenate observations.  Plain mappings merge as counters, which
        keeps every pre-``repro.perf/2`` call site working unchanged.
        """
        if isinstance(other, PerfCounters):
            values = other._values
            self._gauges.update(other._gauges)
            for name, hist in other._hists.items():
                mine = self._hists.get(name)
                if mine is None:
                    mine = self._hists[name] = Histogram(maxlen=hist.maxlen)
                mine.merge(hist)
        else:
            values = other
        for name, amount in values.items():
            self._values[name] = self._values.get(name, 0.0) + amount
        return self

    def clear(self) -> None:
        self._values.clear()
        self._gauges.clear()
        self._hists.clear()


def merge_registries(*registries: "PerfCounters") -> PerfCounters:
    """A fresh registry with every *registry* folded in, left to right
    (counters add, gauges last-write-wins in argument order, histograms
    concatenate).  The inputs are never mutated — this is the shard
    ``/metrics`` roll-up: global service registry + per-shard registries
    in, one document out."""
    total = PerfCounters()
    for registry in registries:
        total.merge(registry)
    return total


def merge_snapshots(snapshots: Iterable[Mapping[str, float]]) -> dict[str, float]:
    """Sum an iterable of counter snapshots into one."""
    total = PerfCounters()
    for snap in snapshots:
        if snap:
            total.merge(snap)
    return total.snapshot()


def perf_document(
    counters: Mapping[str, float],
    gauges: Mapping[str, float] | None = None,
    histograms: Mapping[str, dict] | None = None,
    **context,
) -> dict:
    """The :data:`PERF_SCHEMA` document for *counters* (plus optional
    gauge/histogram sections and *context* metadata).

    *histograms* maps names to :meth:`Histogram.summary` dicts.  The gauge
    and histogram sections appear only when provided, so counter-only
    artefacts keep the three-key layout.
    """
    doc = {
        "schema": PERF_SCHEMA,
        "context": dict(context),
        "counters": {k: counters[k] for k in sorted(counters)},
    }
    if gauges is not None:
        doc["gauges"] = {k: gauges[k] for k in sorted(gauges)}
    if histograms is not None:
        doc["histograms"] = {k: dict(histograms[k]) for k in sorted(histograms)}
    return doc


def write_perf_json(
    path,
    counters: Mapping[str, float],
    gauges: Mapping[str, float] | None = None,
    histograms: Mapping[str, dict] | None = None,
    **context,
) -> dict:
    """Write the :func:`perf_document` for *counters* to *path* (creating
    parent directories as needed); returns the document."""
    doc = perf_document(counters, gauges=gauges, histograms=histograms, **context)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=True)
        fh.write("\n")
    return doc
