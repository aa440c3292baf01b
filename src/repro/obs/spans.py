"""Span tracing over the monotonic clock → Chrome trace events.

A *span* is a named, timed region of work entered as a context manager::

    with tracer.span("pool.build", machine=j):
        ...

Completed spans accumulate on the :class:`Tracer` and export as Chrome
trace-event JSON (Perfetto, ``chrome://tracing``): the whole mapping as
a flame chart, ``map`` → ``kernel.tick`` → ``pool.columnar`` (or the
rebuild oracle's ``pool.build`` → ``select``) / ``commit``, plus one
``kernel.stall`` (args ``ticks``, ``tick``, ``clock``) per run of stall
ticks the columnar kernel fast-forwards.  A traced run is the production
run: ``kernel.tick`` spans plus ``kernel.stall`` ticks equal the trace's
tick count.  Overlapping complete ("X") events on one thread row render
nested by containment, so no span stack is kept.  A tracer carrying a
:class:`repro.perf.PerfCounters` also feeds each span into the
``span.<name>_seconds`` histogram (perf JSON, ``/metrics``).

A mapping's tracer lives on its schedule
(:attr:`repro.sim.schedule.Schedule.tracer`); the disabled default is
:data:`NULL_TRACER`, whose :meth:`~NullTracer.span` returns one shared
no-op context manager.  Hot sites branch on ``tracer.enabled`` before
even building a span's kwargs (see :data:`NULL_SPAN`), so a disabled
site costs one attribute check.  ``Tracer`` instances are single-thread
affine (one mapping = one tracer); the service does not share them.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER", "NULL_SPAN"]


class Span:
    """One in-flight timed region; created by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "name", "args", "_started")

    def __init__(self, tracer: "Tracer", name: str, args: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.args = args
        self._started = 0.0

    def __enter__(self) -> "Span":
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        ended = time.perf_counter()
        self._tracer._record(self.name, self._started, ended - self._started, self.args)
        return False


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()

#: Shared no-op span for hot paths that want to skip even the kwargs-dict
#: construction of a ``tracer.span(...)`` call when tracing is off::
#:
#:     cm = tracer.span("kernel.tick", tick=i) if tracer.enabled else NULL_SPAN
#:     with cm: ...
NULL_SPAN = _NULL_SPAN


class NullTracer:
    """Disabled tracer: every span is one shared no-op context manager."""

    __slots__ = ()
    enabled = False
    perf = None

    def span(self, name: str, **args) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, **args) -> None:
        return None

    def complete(self, name: str, started: float, ended: float, **args) -> None:
        return None


#: The shared disabled tracer instance the hot paths default to.
NULL_TRACER = NullTracer()


class Tracer:
    """Collects completed spans and instant events for one mapping run.

    Parameters
    ----------
    perf:
        Optional :class:`repro.perf.PerfCounters`; when set, every span
        duration is observed into the ``span.<name>_seconds`` histogram.
    """

    __slots__ = ("events", "perf", "_t0")
    enabled = True

    def __init__(self, perf=None) -> None:
        self.events: list[dict] = []
        self.perf = perf
        self._t0 = time.perf_counter()

    def span(self, name: str, **args) -> Span:
        return Span(self, name, args)

    def instant(self, name: str, **args) -> None:
        """Record a zero-duration marker event."""
        self.events.append(
            {"name": name, "ts": time.perf_counter() - self._t0, "dur": None, "args": args}
        )

    def complete(self, name: str, started: float, ended: float, **args) -> None:
        """Record a span the caller timed (``perf_counter`` instants) and
        kept once it knew the region was worth a span."""
        self._record(name, started, ended - started, args)

    def _record(self, name: str, started: float, duration: float, args: dict) -> None:
        self.events.append(
            {"name": name, "ts": started - self._t0, "dur": duration, "args": args}
        )
        if self.perf is not None:
            self.perf.observe(f"span.{name}_seconds", duration)

    def __len__(self) -> int:
        return len(self.events)

    def spans_named(self, name: str) -> list[dict]:
        return [e for e in self.events if e["name"] == name and e["dur"] is not None]

    def chrome_trace(self, pid: int = 1, tid: int = 1, process_name: str = "repro") -> dict:
        """The Chrome trace-event document (``{"traceEvents": [...]}``).

        Complete spans become ``ph: "X"`` events, instants ``ph: "i"``;
        timestamps are microseconds relative to tracer creation.
        """
        trace_events: list[dict] = [
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": tid,
                "args": {"name": process_name},
            }
        ]
        for event in self.events:
            doc = {
                "name": event["name"],
                "cat": "repro",
                "pid": pid,
                "tid": tid,
                "ts": event["ts"] * 1e6,
                "args": event["args"],
            }
            if event["dur"] is None:
                doc["ph"] = "i"
                doc["s"] = "t"
            else:
                doc["ph"] = "X"
                doc["dur"] = event["dur"] * 1e6
            trace_events.append(doc)
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path, **kwargs) -> Path:
        """Write :meth:`chrome_trace` to *path* (parents created)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(**kwargs), fh, default=str)
            fh.write("\n")
        return path
