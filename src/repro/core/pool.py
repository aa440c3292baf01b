"""Candidate pool U: construction, version selection, ordering (§IV).

For one target machine at one clock tick the SLRH:

1. filters the unmapped subtasks through the
   :class:`~repro.core.feasibility.FeasibilityChecker` (secondary-version
   energy rule) to form the pool U;
2. evaluates the global objective for **both** versions of every pool
   member — this requires a tentative :class:`~repro.sim.schedule.ExecutionPlan`
   per (task, version) so TEC and AET impacts are exact — and keeps only the
   version with the higher objective (ties favour the primary, since equal
   objective at lower resource commitment never loses T100);
3. orders the pool by resulting objective value, maximum first.

The SLRH then walks the ordered pool and maps the first candidate whose
start time falls inside the receding horizon.

Observability (both opt-in, both zero-cost when off): the schedule's span
tracer wraps pool construction (``pool.build``) and per-candidate version
selection (``select``), and a :class:`repro.obs.ledger.DecisionLedger`
passed by the caller records every filtered-out candidate — release-time
misses, rule-(b) energy failures (with the joule shortfall) and losing
versions (with the score margin).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.constants import EPSILON
from repro.core.feasibility import FeasibilityChecker
from repro.core.objective import ObjectiveFunction
from repro.obs.ledger import (
    ENERGY_INFEASIBLE,
    LOST_ON_SCORE,
    NOT_RELEASED,
    DecisionLedger,
)
from repro.obs.spans import NULL_SPAN
from repro.sim.schedule import ExecutionPlan, Schedule
from repro.workload.versions import SECONDARY, Version


@dataclass(frozen=True)
class Candidate:
    """One pool entry: a subtask with its chosen version and tentative plan."""

    task: int
    plan: ExecutionPlan
    score: float

    @property
    def version(self) -> Version:
        return self.plan.version


def evaluate_versions(
    schedule: Schedule,
    objective: ObjectiveFunction,
    task: int,
    machine: int,
    not_before: float,
    insertion: bool = False,
    ledger: DecisionLedger | None = None,
) -> Candidate | None:
    """Plan both versions of *task* on *machine*; return the better one.

    This is the version-selection rule of the from-scratch build below;
    :class:`repro.core.columnar.ColumnarPool` open-codes the same float
    arithmetic in the same order, so a candidate's score and version
    choice are identical on both kernel paths.  Plans that are
    energy-infeasible at commit granularity (e.g. the primary version no
    longer fits the battery, or a parent's machine cannot afford the
    transmit energy) are dropped; returns ``None`` when neither version
    survives.  With *ledger*, the dropped version (infeasible or
    outscored) is recorded with its reason and margin.  Ledgered, traced
    and plain runs take this one loop.
    """
    best: Candidate | None = None
    # With a ledger, every plan that loses the selection is kept (a
    # dethroned best included) and recorded against the *final* winner, so
    # a task with more than two plans leaves a complete rejection trail.
    losers: list[tuple[ExecutionPlan, float]] = []
    tracer = schedule.tracer
    span = tracer.span("select", task=task, machine=machine) if tracer.enabled else NULL_SPAN
    with span:
        for plan in schedule.plan_versions(
            task, machine, not_before=not_before, insertion=insertion
        ):
            if not plan.feasible:
                if ledger is not None:
                    ledger.reject(
                        clock=not_before,
                        task=task,
                        machine=machine,
                        version=plan.version.value,
                        reason=ENERGY_INFEASIBLE,
                        detail=plan.reason,
                    )
                continue
            score = objective.after_plan(schedule, plan)
            # Explicit tie rule: on equal score prefer the version that
            # counts toward T100 (the primary) — equal objective at lower
            # resource commitment never loses T100.  Spelled out (rather
            # than relying on plan_versions yielding the primary first) so
            # a reordering of the loop cannot silently flip version choices.
            if (
                best is None
                or score > best.score
                or (
                    score == best.score
                    and plan.version.counts_toward_t100
                    and not best.version.counts_toward_t100
                )
            ):
                if ledger is not None and best is not None:
                    losers.append((best.plan, best.score))
                best = Candidate(task=task, plan=plan, score=score)
            elif ledger is not None:
                losers.append((plan, score))
    if ledger is not None and best is not None:
        for lost_plan, lost_score in losers:
            ledger.reject(
                clock=not_before,
                task=task,
                machine=machine,
                version=lost_plan.version.value,
                reason=LOST_ON_SCORE,
                margin=best.score - lost_score,
                score=lost_score,
                detail=(
                    f"version {lost_plan.version.value} outscored by "
                    f"{best.version.value} ({lost_score:.6g} vs {best.score:.6g})"
                ),
            )
    return best


def build_candidate_pool(
    schedule: Schedule,
    checker: FeasibilityChecker,
    objective: ObjectiveFunction,
    machine: int,
    not_before: float,
    tasks: Iterable[int] | None = None,
    insertion: bool = False,
    ledger: DecisionLedger | None = None,
) -> list[Candidate]:
    """Build the ordered candidate pool U for *machine* at time *not_before*.

    Parameters
    ----------
    tasks:
        The subtasks to consider; defaults to the schedule's ready set
        (unmapped, all parents mapped).  SLRH-3 passes an explicit set when
        it re-pools after each assignment.
    insertion:
        Passed through to planning (Max-Max hole-filling uses ``True``).
    ledger:
        Optional decision ledger; every candidate filtered out of U is
        recorded with its reason code and margin (see
        :mod:`repro.obs.ledger`).

    Returns the pool ordered by objective value, maximum first; ties broken
    by task id for determinism.
    """
    if tasks is None:
        tasks = schedule.ready_tasks()
    scenario = schedule.scenario
    pool: list[Candidate] = []
    tracer = schedule.tracer
    span = (
        tracer.span("pool.build", machine=machine, clock=not_before)
        if tracer.enabled
        else NULL_SPAN
    )
    with span:
        with schedule.perf.timer("phase.pool_seconds"):
            for task in tasks:
                # A subtask the grid has not yet *seen* (release time in the
                # future) cannot enter the pool — the dynamic heuristic has no
                # advance knowledge of it (§IV).  The schedule's live release
                # list is the source of truth: streamed arrivals move it.
                release = schedule.release(task)
                if release > not_before + EPSILON:
                    if ledger is not None:
                        ledger.reject(
                            clock=not_before,
                            task=task,
                            machine=machine,
                            reason=NOT_RELEASED,
                            margin=release - not_before,
                            detail=f"released at {release:.6g}s",
                        )
                    continue
                if not checker.is_feasible(schedule, task, machine, SECONDARY):
                    # Only a genuine rule-(b) failure is ledger-worthy; a
                    # mapped task or unmapped parents (possible when callers
                    # pass an explicit task set) is not a rejection.
                    if ledger is not None and task not in schedule.assignments and all(
                        p in schedule.assignments
                        for p in scenario.dag.parents[task]
                    ):
                        required = checker.required_energy(task, machine, SECONDARY)
                        available = schedule.available_energy(machine)
                        ledger.reject(
                            clock=not_before,
                            task=task,
                            machine=machine,
                            version=SECONDARY.value,
                            reason=ENERGY_INFEASIBLE,
                            margin=max(0.0, required - available),
                            detail=(
                                f"rule (b): secondary-version reserve "
                                f"{required:.6g} J exceeds available "
                                f"{available:.6g} J"
                            ),
                        )
                    continue
                candidate = evaluate_versions(
                    schedule,
                    objective,
                    task,
                    machine,
                    not_before,
                    insertion=insertion,
                    ledger=ledger,
                )
                if candidate is not None:
                    pool.append(candidate)
            pool.sort(key=lambda c: (-c.score, c.task))
    schedule.perf.inc("pool.builds")
    schedule.perf.inc("pool.members", len(pool))
    return pool
