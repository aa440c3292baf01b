"""Event-driven execution of schedules, with dynamic machine loss.

Two capabilities live here:

1. :func:`execute_schedule` replays a committed schedule as a discrete
   event stream (task/comm start/finish), re-checking at event granularity
   that nothing starts before its inputs exist, and producing utilisation
   and energy-over-time statistics.  This is how examples and tests
   demonstrate a mapping actually *runs* under the §III machine model.

2. :func:`run_with_machine_loss` realises the ad hoc scenario that
   motivates the paper (§I) but was deferred to future work: a machine
   vanishes mid-execution; every assignment whose results are unrecoverable
   is rolled back, and the resource manager re-maps the remainder on the
   surviving grid from the loss instant onward.  :func:`rollback_machine`
   applies the same loss to a live schedule in place, keeping the machine
   indexing so the machine can rejoin (the session engine's
   ``machine_loss``).

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
from typing import TYPE_CHECKING

from repro.core.constants import EPSILON
from repro.obs.log import enabled as _obs_enabled
from repro.obs.log import get_logger
from repro.sim.events import Event, EventKind, EventQueue
from repro.sim.schedule import Assignment, ExecutionPlan, Schedule
from repro.util.units import CYCLE_SECONDS
from repro.workload.scenario import Scenario

if TYPE_CHECKING:  # imported lazily at runtime to avoid a core<->sim cycle
    from repro.core.slrh import MappingResult, SlrhScheduler

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


@dataclass(frozen=True)
class MachineLossOutcome:
    """Result of an ad hoc machine-loss run."""

    #: The heuristic's original mapping on the full grid.
    initial: "MappingResult"
    #: Final mapping on the surviving grid (kept + re-mapped assignments).
    final: "MappingResult"
    #: The reduced scenario the final mapping lives on.
    reduced_scenario: Scenario
    #: Tasks whose assignments survived the loss.
    survivors: tuple[int, ...]
    #: Tasks rolled back and re-mapped (directly hit or descendants).
    invalidated: tuple[int, ...]
    lost_machine: int
    loss_time: float


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


def _replan_assignment(a: Assignment, machine_map: dict[int, int]) -> ExecutionPlan:
    """Rebuild an :class:`ExecutionPlan` for re-committing a surviving
    assignment onto the reduced grid (machine indices remapped)."""
    comms = tuple(
        type(c)(
            parent=c.parent,
            child=c.child,
            src=machine_map[c.src],
            dst=machine_map[c.dst],
            bits=c.bits,
            start=c.start,
            finish=c.finish,
            energy=c.energy,
        )
        for c in a.comms
    )
    return ExecutionPlan(
        task=a.task,
        version=a.version,
        machine=machine_map[a.machine],
        start=a.start,
        finish=a.finish,
        exec_energy=a.energy,
        comms=comms,
        energy_delta=a.energy + sum(c.energy for c in comms),
        data_ready=a.start,
    )


def run_with_machine_loss(
    scenario: Scenario,
    scheduler: "SlrhScheduler",
    lost_machine: int,
    loss_cycle: int,
) -> MachineLossOutcome:
    """Map, lose a machine mid-run, roll back, and re-map (module docstring).

    Parameters
    ----------
    scheduler:
        The SLRH instance used both for the initial mapping and for the
        re-mapping pass (which resumes at *loss_cycle*).  Each pass runs
        on its own :class:`repro.core.kernel.SchedulingKernel` — the
        rebuilt schedule lives on a *reduced* scenario, so the initial
        pass's columnar pool cannot carry over (contrast
        :func:`repro.session.run_with_events`, which keeps machine
        indexing stable and threads one kernel through every segment).
    loss_cycle:
        Clock cycle at which *lost_machine* vanishes.
    """
    if not 0 <= lost_machine < scenario.n_machines:
        raise IndexError(f"no machine {lost_machine}")
    if scenario.n_machines < 2:
        raise ValueError("cannot lose the only machine in the grid")
    loss_time = loss_cycle * CYCLE_SECONDS

    initial = scheduler.map(scenario)
    kept, dropped = surviving_tasks(initial.schedule, lost_machine)

    reduced = scenario.without_machine(lost_machine)
    machine_map = {
        old: new
        for new, old in enumerate(
            k for k in range(scenario.n_machines) if k != lost_machine
        )
    }
    rebuilt = Schedule(reduced)
    for task in scenario.dag.topological_order:
        if task not in kept:
            continue
        a = initial.schedule.assignments[task]
        rebuilt.commit(_replan_assignment(a, machine_map))

    # Energy that surviving machines had already burnt on invalidated work
    # before the loss is gone for good — debit it as sunk cost.
    for task in dropped:
        a = initial.schedule.assignments[task]
        if a.machine != lost_machine and a.start < loss_time:
            wasted = min(a.finish, loss_time) - a.start
            rebuilt.debit_external(
                machine_map[a.machine],
                scenario.grid[a.machine].compute_energy(wasted),
            )
        for c in a.comms:
            if c.src != lost_machine and c.start < loss_time:
                wasted = min(c.finish, loss_time) - c.start
                rebuilt.debit_external(
                    machine_map[c.src],
                    scenario.grid[c.src].transmit_energy(wasted),
                )

    final = scheduler.map(reduced, schedule=rebuilt, start_cycle=loss_cycle)
    return MachineLossOutcome(
        initial=initial,
        final=final,
        reduced_scenario=reduced,
        survivors=tuple(sorted(kept)),
        invalidated=tuple(sorted(dropped)),
        lost_machine=lost_machine,
        loss_time=loss_time,
    )
