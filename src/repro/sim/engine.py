"""Event-driven execution of schedules, and the machine-loss rule.

Two capabilities live here:

1. :func:`execute_schedule` replays a committed schedule as a discrete
   event stream (task/comm start/finish), re-checking at event granularity
   that nothing starts before its inputs exist, and producing utilisation
   and energy-over-time statistics.  This is how examples and tests
   demonstrate a mapping actually *runs* under the §III machine model.

2. :func:`rollback_machine` is the one machine-loss rule, for the ad hoc
   scenario that motivates the paper (§I) but was deferred to future
   work: a machine vanishes mid-execution and every assignment whose
   results are unrecoverable is rolled back from the live schedule, in
   place.  Machine indices stay as they are, so the machine can rejoin.
   The session engine applies it at a ``machine_loss`` event and the
   heuristic then replans from the loss cycle on the machines still
   online; :func:`repro.session.run_with_events` replays loss and rejoin
   timelines through that engine.

Loss semantics (checkpoint-free and artifact-free, per the paper's remark
that recovering partial results "may prove too costly"):

* **every** assignment placed on the lost machine is invalidated — even
  completed ones, since re-validating which of their output deliveries are
  still usable amounts to partial-result recovery;
* invalidation propagates to all descendants' assignments (their inputs
  will be re-produced, possibly elsewhere at a different version);
* everything else — including work scheduled in the future on surviving
  machines — survives with its original timing and energy accounting;
* execution and transmission time that surviving machines had already
  spent on invalidated work before the loss is *sunk*: its energy stays
  debited (see :meth:`repro.sim.schedule.Schedule.debit_external`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.constants import EPSILON
from repro.obs.log import enabled as _obs_enabled
from repro.obs.log import get_logger
from repro.sim.events import Event, EventKind, EventQueue
from repro.sim.schedule import Schedule

#: Structured event log (no-op unless :mod:`repro.obs.log` is configured).
_LOG = get_logger("engine")


@dataclass
class ExecutionLog:
    """Event stream plus summary statistics from one schedule execution."""

    events: list[Event] = field(default_factory=list)
    busy_seconds: dict[int, float] = field(default_factory=dict)
    comm_seconds: dict[int, float] = field(default_factory=dict)
    makespan: float = 0.0

    def utilisation(self, machine: int, horizon: float | None = None) -> float:
        """Fraction of [0, horizon] machine *machine* spent computing
        (horizon defaults to the makespan)."""
        horizon = horizon if horizon is not None else self.makespan
        if horizon <= 0:
            return 0.0
        return self.busy_seconds.get(machine, 0.0) / horizon

    def events_of(self, kind: EventKind) -> list[Event]:
        return [e for e in self.events if e.kind is kind]


def execute_schedule(schedule: Schedule) -> ExecutionLog:
    """Replay *schedule* as an event stream (see module docstring).

    Raises
    ------
    RuntimeError
        If replay uncovers an ordering violation (a task starting before a
        parent finished or before an input transfer completed) — this
        would indicate a scheduler bug that interval validation missed.
    """
    queue = EventQueue()
    for a in schedule.assignments.values():
        queue.push(a.start, EventKind.TASK_START, a)
        queue.push(a.finish, EventKind.TASK_FINISH, a)
        for c in a.comms:
            queue.push(c.start, EventKind.COMM_START, c)
            queue.push(c.finish, EventKind.COMM_FINISH, c)

    log = ExecutionLog()
    finished: set[int] = set()
    arrived: set[tuple[int, int]] = set()  # (parent, child) data deliveries
    dag = schedule.scenario.dag
    for event in queue.drain():
        log.events.append(event)
        if event.kind is EventKind.COMM_FINISH:
            c = event.payload
            arrived.add((c.parent, c.child))
            log.comm_seconds[c.src] = log.comm_seconds.get(c.src, 0.0) + c.duration
        elif event.kind is EventKind.TASK_START:
            a = event.payload
            needed = {c.parent for c in a.comms}
            for p in dag.parents[a.task]:
                if p not in finished:
                    raise RuntimeError(
                        f"replay: task {a.task} started at {a.start} before "
                        f"parent {p} finished"
                    )
                if p in needed and (p, a.task) not in arrived:
                    raise RuntimeError(
                        f"replay: task {a.task} started before its input "
                        f"from {p} arrived"
                    )
        elif event.kind is EventKind.TASK_FINISH:
            a = event.payload
            finished.add(a.task)
            log.busy_seconds[a.machine] = log.busy_seconds.get(a.machine, 0.0) + a.duration
            log.makespan = max(log.makespan, a.finish)
    if _obs_enabled():
        _LOG.event(
            "engine.replayed",
            scenario=schedule.scenario.name,
            events=len(log.events),
            tasks=len(finished),
            makespan=log.makespan,
        )
    return log


# -- dynamic machine loss -----------------------------------------------------


def surviving_tasks(
    schedule: Schedule, lost_machine: int
) -> tuple[set[int], set[int]]:
    """Split mapped tasks into (kept, invalidated) under the loss rules.

    A single topological pass suffices: a task falls iff it was placed on
    the lost machine or any parent fell (parents precede children in the
    order, so descendant propagation is complete).
    """
    dag = schedule.scenario.dag
    kept: set[int] = set()
    dropped: set[int] = set()
    for task in dag.topological_order:
        a = schedule.assignments.get(task)
        if a is None:
            continue
        if a.machine == lost_machine or any(p in dropped for p in dag.parents[task]):
            dropped.add(task)
        else:
            kept.add(task)
    return kept, dropped


def rollback_machine(
    schedule: Schedule, machine: int, loss_time: float
) -> tuple[tuple[int, ...], float]:
    """Lose *machine* at *loss_time* on a live *schedule*, in place.

    Unassigns every task :func:`surviving_tasks` invalidates, children
    before parents, and debits as sunk energy the execution and
    transmission time any machine — the lost one included — had already
    spent on that work before the loss.  The machine keeps its index, so
    it can rejoin; marking it offline is the caller's step.  Returns the
    rolled-back task ids in topological order and the sunk energy.
    """
    scenario = schedule.scenario
    grid = scenario.grid
    _, dropped = surviving_tasks(schedule, machine)
    order = [t for t in scenario.dag.topological_order if t in dropped]
    sunk = 0.0
    for task in reversed(order):
        a = schedule.unassign(task)
        if a.start < loss_time - EPSILON:
            wasted = min(a.finish, loss_time) - a.start
            energy = grid[a.machine].compute_energy(wasted)
            if energy > 0:
                schedule.debit_external(a.machine, energy)
                sunk += energy
        for c in a.comms:
            if c.start < loss_time - EPSILON:
                wasted = min(c.finish, loss_time) - c.start
                energy = grid[c.src].transmit_energy(wasted)
                if energy > 0:
                    schedule.debit_external(c.src, energy)
                    sunk += energy
    return tuple(order), sunk
