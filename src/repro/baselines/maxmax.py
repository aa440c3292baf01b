"""The Max-Max static baseline (§V).

Max-Max is the paper's offline comparator, "based on the general Min-Min
approach described in [IbK77]" but maximising the same global objective the
SLRH uses.  Differences from SLRH:

* **static** — it sees the whole problem at once and has no clock, ΔT or
  receding horizon; start times are unconstrained from below;
* **per-version feasibility** — each version's energy requirement (its own
  execution energy plus worst-case outgoing-comm reserve at that version's
  output volume) is assessed independently, so the pool may contain *both*
  versions of one subtask;
* **hole insertion** — a triplet may be scheduled before the target
  machine's availability time if a sufficiently large hole exists in the
  machine calendar that honours precedence.

Each iteration: for every machine, find the feasible (subtask, version)
pair maximising the objective; among those per-machine champions commit the
best (subtask, version, machine) triplet.  Repeat until all subtasks are
mapped or no feasible candidate remains (the run is then incomplete and is
rejected, exactly like an over-τ SLRH run).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.feasibility import FeasibilityChecker
from repro.core.kernel import SchedulingKernel, resolve_kernel_mode
from repro.core.objective import ObjectiveFunction, Weights
from repro.core.slrh import MappingResult
from repro.sim.schedule import ExecutionPlan, Schedule
from repro.sim.trace import MappingTrace
from repro.util.timing import Stopwatch
from repro.workload.scenario import Scenario
from repro.workload.versions import PRIMARY, SECONDARY


@dataclass(frozen=True)
class MaxMaxConfig:
    """Max-Max tuning knobs (the objective weights, chiefly)."""

    weights: Weights
    #: AET-term semantics of the objective (ablation; see ObjectiveFunction).
    aet_mode: str = "tent"
    #: Machine-stage selection rule.  ``"completion"`` (default) assigns
    #: each candidate (subtask, version) its minimum-completion-time
    #: machine, mirroring the [IbK77] Min-Min structure the paper says
    #: Max-Max is based on; the objective then picks among candidates.
    #: ``"objective"`` follows the §V text literally (per-machine best pair
    #: by objective) — with Table 2's constants that reading routes every
    #: primary onto the energy-cheap slow machines and collapses in Case C
    #: (see EXPERIMENTS.md); kept as an ablation.
    machine_stage: str = "completion"


class MaxMaxScheduler:
    """Static Max-Max mapper (see module docstring)."""

    name = "Max-Max"

    def __init__(self, config: MaxMaxConfig) -> None:
        self.config = config

    def map(
        self, scenario: Scenario, schedule: Schedule | None = None
    ) -> MappingResult:
        """Map *scenario* from scratch, or finish a partially-built
        *schedule* (the session engine's final-state mapping)."""
        if schedule is None:
            schedule = Schedule(scenario)
        elif schedule.scenario is not scenario:
            raise ValueError("schedule was built for a different scenario")
        checker = FeasibilityChecker(scenario)
        objective = ObjectiveFunction.for_scenario(
            scenario, self.config.weights, aet_mode=self.config.aet_mode
        )
        trace = MappingTrace()

        completion_stage = self.config.machine_stage == "completion"
        if self.config.machine_stage not in ("completion", "objective"):
            raise ValueError(f"unknown machine_stage {self.config.machine_stage!r}")
        n_machines = scenario.n_machines
        # The kernel's static slot store re-runs only the searches a commit
        # invalidated; under rebuild it plans every lookup afresh.
        kernel = SchedulingKernel(schedule, None, objective, mode=resolve_kernel_mode())
        required = checker.required_energy

        def select() -> tuple[ExecutionPlan | None, int]:
            """One Max-Max round: the best (subtask, version, machine)
            triplet over the ready set, plus the feasible-candidate count."""
            slots = kernel.slots
            budget = slots.budget
            # ObjectiveFunction.after_plan's operands, per version.
            t100, tec, aet = schedule.aggregate_state()
            t100s = (t100 + 1, t100)
            best = -1  # slot index of the best candidate so far
            best_vi = 0
            best_score = -float("inf")
            best_finish = 0.0
            pool_size = 0

            def offer(idx: int, vi: int) -> None:
                nonlocal best, best_vi, best_score, best_finish
                finish = slots.finish[vi][idx]
                score = objective.value(
                    t100s[vi], tec + slots.delta[vi][idx], max(aet, finish)
                )
                # Objective ties break toward the earliest finish (Min-Min
                # heritage, [IbK77]), then the primary version / lowest ids
                # via scan order.
                if score > best_score + 1e-12 or (
                    score > best_score - 1e-12
                    and best >= 0
                    and finish < best_finish - 1e-12
                ):
                    best_score = max(best_score, score)
                    best, best_vi, best_finish = idx, vi, finish

            for task in schedule.ready_sorted():
                trace.machine_scans += 2 * n_machines  # each (version, machine)
                # One slot lookup per (task, machine), on first use.
                looked = [-1] * n_machines
                for vi, version in enumerate((PRIMARY, SECONDARY)):
                    feasible = slots.feasible[vi]
                    finish = slots.finish[vi]
                    # Machine stage: the candidate's plan on each machine;
                    # under "completion" only the minimum-completion-time
                    # machine survives, under "objective" every machine
                    # competes directly.
                    stage = -1
                    for machine in range(n_machines):
                        # Rule (b) at this version (FeasibilityChecker.
                        # is_feasible for a ready task) on the round's budget.
                        if required(task, machine, version) > budget[machine]:
                            continue
                        idx = looked[machine]
                        if idx < 0:
                            idx = looked[machine] = slots.lookup(task, machine)
                        if not feasible[idx]:
                            continue
                        pool_size += 1
                        if not completion_stage:
                            offer(idx, vi)
                        elif stage < 0 or finish[idx] < finish[stage] - 1e-12:
                            stage = idx
                    if stage >= 0:
                        offer(stage, vi)
            if best < 0:
                return None, pool_size
            return slots.plan(best, best_vi), pool_size

        stopwatch = Stopwatch()
        with stopwatch:
            kernel.run_static(select, trace)
        return MappingResult.finish(
            schedule, trace, stopwatch.elapsed, self.name, self.config.weights
        )
