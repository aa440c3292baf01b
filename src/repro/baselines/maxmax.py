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
from repro.sim.schedule import Schedule
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
        # The columnar kernel's static plan memo re-prices a (task, machine)
        # pair only when a commit could have changed it; rebuild re-plans.
        kernel = SchedulingKernel(schedule, None, objective, mode=resolve_kernel_mode())
        plans = kernel.static_plans

        def select() -> tuple:
            """One Max-Max round: the best (subtask, version, machine)
            triplet over the ready set, plus the feasible-candidate count."""
            best_plan = None
            best_score = -float("inf")
            pool_size = 0
            for task in schedule.ready_sorted():
                # One plan pair per (task, machine), fetched on first use.
                pairs: list = [None] * n_machines
                for vi, version in enumerate((PRIMARY, SECONDARY)):
                    # Machine stage: the candidate's plan on each
                    # machine; under "completion" only the
                    # minimum-completion-time machine survives, under
                    # "objective" every machine competes directly.
                    stage_plan = None
                    for machine in range(n_machines):
                        trace.note_machine_scan()
                        if not checker.is_feasible(schedule, task, machine, version):
                            continue
                        pair = pairs[machine]
                        if pair is None:
                            pair = pairs[machine] = plans(task, machine)
                        plan = pair[vi]
                        if not plan.feasible:
                            continue
                        pool_size += 1
                        if completion_stage:
                            if stage_plan is None or plan.finish < stage_plan.finish - 1e-12:
                                stage_plan = plan
                            continue
                        score = objective.after_plan(schedule, plan)
                        # Objective ties break toward the earliest
                        # finish (Min-Min heritage, [IbK77]), then the
                        # primary version / lowest ids via scan order.
                        if score > best_score + 1e-12 or (
                            score > best_score - 1e-12
                            and best_plan is not None
                            and plan.finish < best_plan.finish - 1e-12
                        ):
                            best_score = max(best_score, score)
                            best_plan = plan
                    if completion_stage and stage_plan is not None:
                        score = objective.after_plan(schedule, stage_plan)
                        if score > best_score + 1e-12 or (
                            score > best_score - 1e-12
                            and best_plan is not None
                            and stage_plan.finish < best_plan.finish - 1e-12
                        ):
                            best_score = max(best_score, score)
                            best_plan = stage_plan
            return best_plan, pool_size

        stopwatch = Stopwatch()
        with stopwatch:
            kernel.run_static(select, trace)
        return MappingResult.finish(
            schedule, trace, stopwatch.elapsed, self.name, self.config.weights
        )
