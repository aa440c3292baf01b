"""The one machine-loss rule, for the ad hoc scenario of §I.

The paper motivates its heuristics with a grid whose machines vanish
mid-execution but defers that case to future work.
:func:`rollback_machine` is its rule here: every assignment whose results
are unrecoverable is rolled back from the live schedule, in place.
Machine indices stay as they are, so the machine can rejoin.  The session
engine applies it at a ``machine_loss`` event and the heuristic then
replans from the loss cycle on the machines still online;
:func:`repro.session.run_with_events` replays loss and rejoin timelines
through that engine.

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

from repro.core.constants import EPSILON
from repro.sim.schedule import Schedule


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
