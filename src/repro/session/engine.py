"""The session replanning state machine and its offline oracle.

:class:`SessionEngine` owns one mutable :class:`~repro.sim.schedule.Schedule`
and — for the SLRH family — one persistent
:class:`~repro.core.kernel.SchedulingKernel` that lives across every
event.  Each applied event becomes a *precise delta* against the kernel's
candidate pool (``note_arrival`` / ``note_rejoin`` / ``note_disturbance``),
so the pool is never rebuilt from scratch unless the differential oracle
mode (``SlrhConfig(kernel="rebuild")``) is forced.  Mappings are
byte-identical across both kernel modes — pinned by
``tests/test_session.py`` and, for loss/rejoin timelines,
``tests/test_kernel.py``.

Scheduler families differ in *when* planning happens:

* **SLRH-1/2/3** (clock-driven): the heuristic runs segment-by-segment
  between events; a ``machine_loss`` rolls back the machine's work and
  its descendants (:func:`repro.sim.engine.rollback_machine`) and a
  ``machine_rejoin`` brings the machine back; ``task_arrival`` events
  move a held task's release time from ``math.inf`` to its arrival
  instant and the pool keeps every entry the arrival provably did not
  touch.
* **Static baselines** (Max-Max, Min-Min, greedy): clockless — a task
  "arriving" mid-run has no meaning, so arrivals are rejected; losses,
  rejoins and advances mutate the grid state and one *final-state
  mapping* runs at close against whatever machines remain online (with
  sunk energy already debited).

:func:`run_with_events` replays a recorded event stream offline through
the same engine — it IS the oracle a streamed HTTP session is compared
against, and the benchmark's from-scratch arm (``persistent=False``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Iterable, Sequence

import math

from repro.core.slrh import MappingResult, SlrhScheduler
from repro.obs.log import enabled as _obs_enabled
from repro.obs.log import get_logger
from repro.obs.spans import NULL_SPAN, NullTracer, Tracer
from repro.sim.engine import rollback_machine
from repro.sim.schedule import Schedule
from repro.session.events import SessionEvent, validate_events
from repro.util.units import CYCLE_SECONDS
from repro.workload.scenario import Scenario

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.trace import MappingTrace

_LOG = get_logger("session")


@dataclass(frozen=True)
class ChurnRecord:
    """What one ``machine_loss`` or ``machine_rejoin`` did to the schedule."""

    event: SessionEvent
    rolled_back: tuple[int, ...]
    sunk_energy: float


@dataclass(frozen=True)
class SessionOutcome:
    """What a closed session produced."""

    final: MappingResult
    records: tuple[ChurnRecord, ...]
    n_events: int

    @property
    def total_rolled_back(self) -> int:
        return sum(len(r.rolled_back) for r in self.records)


class SessionEngine:
    """Apply a stream of :class:`SessionEvent` to one live schedule.

    Parameters
    ----------
    scenario:
        The workload + grid being scheduled.
    scheduler:
        Any registry heuristic (see :mod:`repro.heuristics`).  SLRH-family
        schedulers replan incrementally between events; static baselines
        map once at close.
    pending:
        Task ids *held back* at session open — they are invisible to the
        heuristic (release time ``math.inf``) until a ``task_arrival``
        event names them.  Requires an SLRH-family scheduler.
    persistent:
        ``True`` (default) keeps one kernel across all segments, fed by
        precise event deltas.  ``False`` builds a fresh kernel for every
        segment — the per-event from-scratch arm of the replan-frequency
        benchmark.  Mappings are byte-identical either way.
    tracer:
        Optional span tracer, installed as ``schedule.tracer``; each
        applied event is wrapped in a ``session.event`` span and every
        replan segment's map/tick/stall spans nest below.
    """

    def __init__(
        self,
        scenario: Scenario,
        scheduler: Any,
        *,
        pending: Iterable[int] = (),
        persistent: bool = True,
        tracer: Tracer | NullTracer | None = None,
    ) -> None:
        self.scenario = scenario
        self.scheduler = scheduler
        self._is_slrh = isinstance(scheduler, SlrhScheduler)
        self.pending = set(pending)
        for task in self.pending:
            if not 0 <= task < scenario.n_tasks:
                raise IndexError(f"no task {task}")
        if self.pending and not self._is_slrh:
            raise ValueError(
                "held tasks (pending arrivals) require a clock-driven "
                "SLRH-family scheduler; static baselines have no clock"
            )
        self.schedule = Schedule(scenario, tracer=tracer)
        for task in self.pending:
            self.schedule.set_release(task, math.inf)
        self.kernel = (
            scheduler.make_kernel(self.schedule)
            if self._is_slrh and persistent
            else None
        )
        self.cursor = 0
        self.closed = False
        self.records: list[ChurnRecord] = []
        self._trace: "MappingTrace | None" = None
        self._seconds = 0.0
        self._outcome: SessionOutcome | None = None
        self._n_events = 0

    @property
    def outcome(self) -> SessionOutcome:
        if self._outcome is None:
            raise RuntimeError("session is not closed yet")
        return self._outcome

    def apply(self, event: SessionEvent) -> ChurnRecord | None:
        """Apply one event: replan up to its cycle, then mutate the grid.

        Returns the :class:`ChurnRecord` for a
        ``machine_loss`` (rolled-back tasks + sunk energy), ``None`` for
        every other kind.  Raises on out-of-order cycles, unknown ids,
        double losses/rejoins, arrivals of non-held tasks, arrivals under
        a static scheduler, and anything after ``close``.
        """
        if self.closed:
            raise ValueError("session is closed")
        if event.cycle < self.cursor:
            raise ValueError(
                f"{event.kind} at cycle {event.cycle} arrives after "
                f"cycle {self.cursor}"
            )
        tracer = self.schedule.tracer
        span = (
            tracer.span("session.event", kind=event.kind, cycle=event.cycle)
            if tracer.enabled
            else NULL_SPAN
        )
        with span:
            record = self._apply_event(event)
        self._n_events += 1
        self.schedule.perf.inc("session.events")
        if _obs_enabled():
            _LOG.event(
                "session.event",
                kind=event.kind,
                cycle=event.cycle,
                task=event.task,
                machine=event.machine,
                n_mapped=self.schedule.n_mapped,
                rolled_back=len(record.rolled_back) if record else 0,
            )
        return record

    def _apply_event(self, event: SessionEvent) -> ChurnRecord | None:
        kind = event.kind
        if kind == "close":
            self._close()
            return None
        if kind == "task_arrival":
            task = event.task
            if task not in self.pending:
                raise ValueError(
                    f"task {task} is not held for arrival "
                    "(not in the session's pending set)"
                )
            self._advance_to(event.cycle)
            self.pending.discard(task)
            self.schedule.set_release(task, event.cycle * CYCLE_SECONDS)
            if self.kernel is not None:
                self.kernel.note_arrival(task)
            return None
        if kind == "machine_loss":
            machine = event.machine
            if not 0 <= machine < self.scenario.n_machines:
                raise IndexError(f"no machine {machine}")
            if machine in self.schedule.offline:
                raise ValueError(f"machine {machine} is already offline")
            self._advance_to(event.cycle)
            loss_time = event.cycle * CYCLE_SECONDS
            rolled_back, sunk = rollback_machine(self.schedule, machine, loss_time)
            self.schedule.set_offline(machine, True)
            if self.kernel is not None:
                self.kernel.note_disturbance()
            record = ChurnRecord(
                event=event, rolled_back=rolled_back, sunk_energy=sunk
            )
            self.records.append(record)
            if rolled_back:
                self.schedule.perf.inc("session.rolled_back", len(rolled_back))
            return record
        if kind == "machine_rejoin":
            machine = event.machine
            if not 0 <= machine < self.scenario.n_machines:
                raise IndexError(f"no machine {machine}")
            if machine not in self.schedule.offline:
                raise ValueError(f"machine {machine} is already online")
            self._advance_to(event.cycle)
            self.schedule.set_offline(machine, False)
            if self.kernel is not None:
                self.kernel.note_rejoin(machine)
            self.records.append(
                ChurnRecord(event=event, rolled_back=(), sunk_energy=0.0)
            )
            return None
        # kind == "advance" (the event grammar admits nothing else)
        self._advance_to(event.cycle)
        return None

    def _advance_to(self, cycle: int) -> None:
        """Run the heuristic over the segment ``[cursor, cycle)``.

        Static baselines are clockless: the cursor just moves (all their
        planning happens in :meth:`_close`).
        """
        if not self._is_slrh:
            self.cursor = cycle
            return
        result = self.scheduler.map(
            self.scenario,
            schedule=self.schedule,
            start_cycle=self.cursor,
            stop_cycle=cycle,
            kernel=self.kernel,
        )
        self._absorb(result)
        self.cursor = cycle

    def _close(self) -> None:
        """Run the heuristic to completion (or τ) and seal the session."""
        if self._is_slrh:
            result = self.scheduler.map(
                self.scenario,
                schedule=self.schedule,
                start_cycle=self.cursor,
                kernel=self.kernel,
            )
        else:
            # Final-state mapping: the statics see the grid as the events
            # left it (offline machines, sunk-energy debits) and map the
            # whole workload in one shot.
            result = self.scheduler.map(self.scenario, schedule=self.schedule)
        self._absorb(result)
        self.closed = True
        final = MappingResult(
            schedule=self.schedule,
            trace=self._trace,
            heuristic_seconds=self._seconds,
            heuristic=result.heuristic,
            weights=result.weights,
        )
        self._outcome = SessionOutcome(
            final=final,
            records=tuple(self.records),
            n_events=self._n_events + 1,  # +1: the close being applied now
        )
        if _obs_enabled():
            _LOG.event(
                "session.final",
                heuristic=result.heuristic,
                n_events=self._outcome.n_events,
                n_mapped=self.schedule.n_mapped,
                success=final.success,
                rolled_back=self._outcome.total_rolled_back,
            )

    def close(self) -> SessionOutcome:
        """Convenience: apply a ``close`` at the current cursor."""
        if not self.closed:
            self.apply(SessionEvent(kind="close", cycle=self.cursor))
        return self.outcome

    def _absorb(self, result: MappingResult) -> None:
        self._seconds += result.heuristic_seconds
        self._trace = _merge_trace(self._trace, result.trace)


def _merge_trace(
    acc: "MappingTrace | None", trace: "MappingTrace"
) -> "MappingTrace":
    """Fold one segment's trace into the session's running trace."""
    if acc is None:
        return trace
    acc.records.extend(trace.records)
    acc.ticks += trace.ticks
    acc.machine_scans += trace.machine_scans
    acc.empty_pool_ticks += trace.empty_pool_ticks
    # Each segment snapshots the shared schedule's perf registry, which is
    # cumulative over the schedule's lifetime — the latest snapshot is the
    # whole-run total, not an increment.
    acc.perf = trace.perf
    if acc.ledger is not None and trace.ledger is not None:
        # Ledger continuity: each segment's ledger restarts tick numbering
        # at 0, so shift the incoming records onto the accumulated tick
        # count — ``explain --tick K`` then addresses one global timeline
        # across every replan segment of a session.
        base = acc.ledger.tick + 1
        acc.ledger.records.extend(
            replace(rec, tick=rec.tick + base) if rec.tick >= 0 else rec
            for rec in trace.ledger.records
        )
        acc.ledger.tick += trace.ledger.tick + 1
    return acc


def run_with_events(
    scenario: Scenario,
    scheduler: Any,
    events: Sequence[SessionEvent],
    *,
    pending: Iterable[int] | None = None,
    persistent: bool = True,
    tracer: Tracer | NullTracer | None = None,
) -> SessionOutcome:
    """Replay *events* offline through a :class:`SessionEngine`.

    This is the byte-identity oracle for streamed sessions: the HTTP
    surface drives the exact same engine, so a recorded stream replayed
    here must yield the identical final mapping.  It is also the replay
    path for grid churn: a stream of ``machine_loss``/``machine_rejoin``
    events is a loss/rejoin timeline (§I).  Events are applied in
    cycle order (stable for equal cycles); a stream that does not end in
    ``close`` is closed at its last cycle.  ``pending`` defaults to
    exactly the tasks named by the stream's ``task_arrival`` events.
    """
    ordered = validate_events(
        sorted(events, key=lambda e: e.cycle), scenario
    )
    if pending is None:
        pending = {ev.task for ev in ordered if ev.kind == "task_arrival"}
    engine = SessionEngine(
        scenario,
        scheduler,
        pending=pending,
        persistent=persistent,
        tracer=tracer,
    )
    for ev in ordered:
        engine.apply(ev)
        if engine.closed:
            break
    return engine.close()
