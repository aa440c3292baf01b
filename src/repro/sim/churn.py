"""Grid churn: machines leaving *and rejoining* mid-run.

§I of the paper characterises ad hoc grids by assets that "can — and
frequently do — appear and disappear from the grid at unanticipated
times".  :func:`run_with_churn` drives one SLRH scheduler through an
arbitrary timeline of loss/join events over a single mutable schedule:

* the heuristic runs segment-by-segment between events
  (``SlrhScheduler.map(..., start_cycle, stop_cycle)``);
* a **loss** rolls back every assignment on the lost machine plus all
  descendants (the same checkpoint-free rule as
  :func:`repro.sim.engine.run_with_machine_loss`), charges surviving *and*
  lost machines for the work they had physically performed on rolled-back
  assignments (sunk energy), and marks the machine offline;
* a **join** simply marks the machine online again — it returns with
  whatever battery it had left, and the heuristic starts considering it at
  the next tick.

Unlike :func:`run_with_machine_loss` (which rebuilds on a reduced
scenario), churn keeps the original machine indexing throughout, so a
machine can come back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.sim.schedule import Schedule
from repro.workload.scenario import Scenario

if TYPE_CHECKING:  # imported lazily at runtime to avoid a core<->sim cycle
    from repro.core.slrh import MappingResult, SlrhScheduler

_EPS = 1e-9


@dataclass(frozen=True)
class ChurnEvent:
    """One grid membership change."""

    cycle: int
    machine: int
    kind: str  # "loss" or "join"

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ValueError("event cycle must be non-negative")
        if self.kind not in ("loss", "join"):
            raise ValueError(f"unknown churn event kind {self.kind!r}")


@dataclass(frozen=True)
class ChurnRecord:
    """What one event did to the schedule."""

    event: ChurnEvent
    rolled_back: tuple[int, ...]
    sunk_energy: float


@dataclass(frozen=True)
class ChurnOutcome:
    final: "MappingResult"
    records: tuple[ChurnRecord, ...]

    @property
    def total_rolled_back(self) -> int:
        return sum(len(r.rolled_back) for r in self.records)


def _rollback_machine(schedule: Schedule, machine: int, loss_time: float) -> ChurnRecord:
    """Unassign everything on *machine* plus descendants; charge sunk energy."""
    dag = schedule.scenario.dag
    grid = schedule.scenario.grid
    dropped: set[int] = set()
    for task in dag.topological_order:
        a = schedule.assignments.get(task)
        if a is None:
            continue
        if a.machine == machine or any(p in dropped for p in dag.parents[task]):
            dropped.add(task)

    sunk = 0.0
    order = [t for t in dag.topological_order if t in dropped]
    for task in reversed(order):  # children before parents
        a = schedule.unassign(task)
        if a.start < loss_time - _EPS:
            wasted = min(a.finish, loss_time) - a.start
            energy = grid[a.machine].compute_energy(wasted)
            if energy > 0:
                schedule.debit_external(a.machine, energy)
                sunk += energy
        for c in a.comms:
            if c.start < loss_time - _EPS:
                wasted = min(c.finish, loss_time) - c.start
                energy = grid[c.src].transmit_energy(wasted)
                if energy > 0:
                    schedule.debit_external(c.src, energy)
                    sunk += energy
    return ChurnRecord(
        event=ChurnEvent(cycle=0, machine=machine, kind="loss"),  # placeholder
        rolled_back=tuple(order),
        sunk_energy=sunk,
    )


def run_with_churn(
    scenario: Scenario,
    scheduler: "SlrhScheduler",
    events: list[ChurnEvent],
) -> ChurnOutcome:
    """Run *scheduler* on *scenario* through the given churn timeline.

    Events are applied in cycle order; simultaneous events apply in list
    order.  The heuristic's wall-clock cost accumulates across segments via
    the returned final :class:`~repro.core.slrh.MappingResult` of the last
    segment (earlier segments' traces are merged into it).
    """
    from repro.core.slrh import MappingResult  # runtime import: core<->sim cycle

    for ev in events:
        if not 0 <= ev.machine < scenario.n_machines:
            raise IndexError(f"no machine {ev.machine}")
    schedule = Schedule(scenario)
    ordered = sorted(events, key=lambda e: e.cycle)

    # One kernel lives across every segment: each `map` re-bases the
    # columnar candidate pool against whatever the events in between
    # did to the schedule (rollbacks, offline flips, sunk-energy debits).
    kernel = scheduler.make_kernel(schedule)
    records: list[ChurnRecord] = []
    cursor = 0
    total_seconds = 0.0
    merged_trace = None
    result: MappingResult | None = None
    for ev in ordered:
        result = scheduler.map(
            scenario,
            schedule=schedule,
            start_cycle=cursor,
            stop_cycle=ev.cycle,
            kernel=kernel,
        )
        total_seconds += result.heuristic_seconds
        merged_trace = _merge_trace(merged_trace, result.trace)
        loss_time = ev.cycle * scheduler.config.cycle_seconds
        if ev.kind == "loss":
            if ev.machine in schedule.offline:
                raise ValueError(f"machine {ev.machine} is already offline")
            record = _rollback_machine(schedule, ev.machine, loss_time)
            schedule.set_offline(ev.machine, True)
            records.append(
                ChurnRecord(
                    event=ev,
                    rolled_back=record.rolled_back,
                    sunk_energy=record.sunk_energy,
                )
            )
        else:  # join
            if ev.machine not in schedule.offline:
                raise ValueError(f"machine {ev.machine} is already online")
            schedule.set_offline(ev.machine, False)
            records.append(ChurnRecord(event=ev, rolled_back=(), sunk_energy=0.0))
        cursor = ev.cycle

    result = scheduler.map(
        scenario, schedule=schedule, start_cycle=cursor, kernel=kernel
    )
    total_seconds += result.heuristic_seconds
    merged_trace = _merge_trace(merged_trace, result.trace)

    final = MappingResult(
        schedule=schedule,
        trace=merged_trace,
        heuristic_seconds=total_seconds,
        heuristic=result.heuristic,
        weights=result.weights,
    )
    return ChurnOutcome(final=final, records=tuple(records))


def _merge_trace(acc, trace):
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
        # at 0, so rebase the incoming records onto the accumulated tick
        # count — ``explain --tick K`` then addresses one global timeline
        # across every replan segment of a churned/streamed run.
        from dataclasses import replace

        base = acc.ledger.tick + 1
        acc.ledger.records.extend(
            replace(rec, tick=rec.tick + base) if rec.tick >= 0 else rec
            for rec in trace.ledger.records
        )
        acc.ledger.tick += trace.ledger.tick + 1
    return acc
