"""Classic Min-Min [IbK77] — an extra reference point beyond the paper.

The paper's Max-Max baseline is "based on the general Min-Min approach";
for context we also provide the original: at each iteration, compute for
every ready subtask its minimum completion time (MCT) over all machines,
then commit the subtask whose MCT is smallest.  Versions are chosen by
affordability (primary when the battery allows, secondary otherwise), since
[IbK77] predates the version concept; energy and channel semantics are
identical to the other mappers.

This module is an **extension**: Figures 4–7 do not include Min-Min, but
the extended benches report it alongside the paper's heuristics.
"""

from __future__ import annotations

from repro.core.kernel import SchedulingKernel, resolve_kernel_mode
from repro.core.objective import ObjectiveFunction
from repro.core.slrh import MappingResult
from repro.sim.schedule import ExecutionPlan, Schedule
from repro.sim.trace import MappingTrace
from repro.util.timing import Stopwatch
from repro.workload.scenario import Scenario

from repro.baselines.greedy import _GREEDY_WEIGHTS


class MinMinScheduler:
    """Classic minimum-completion-time Min-Min static mapper."""

    name = "Min-Min"

    def _best_plan_for_task(
        self, kernel: SchedulingKernel, task: int
    ) -> ExecutionPlan | None:
        """Minimum-completion-time plan for *task* over all machines."""
        best: ExecutionPlan | None = None
        for machine in range(kernel.schedule.scenario.n_machines):
            # (primary, secondary): the primary when affordable, else the
            # secondary.
            for plan in kernel.static_plans(task, machine):
                if not plan.feasible:
                    continue
                if best is None or plan.finish < best.finish - 1e-12:
                    best = plan
                break  # affordable primary: skip secondary
        return best

    def map(
        self, scenario: Scenario, schedule: Schedule | None = None
    ) -> MappingResult:
        """Map *scenario* from scratch, or finish a partially-built
        *schedule* (the session engine's final-state mapping)."""
        if schedule is None:
            schedule = Schedule(scenario)
        elif schedule.scenario is not scenario:
            raise ValueError("schedule was built for a different scenario")
        trace = MappingTrace()
        # The columnar kernel's static plan memo re-prices a (task, machine)
        # pair only when a commit could have changed it; rebuild re-plans.
        # The kernel scores trace records under the weights the result
        # reports.
        objective = ObjectiveFunction.for_scenario(scenario, _GREEDY_WEIGHTS)
        kernel = SchedulingKernel(
            schedule, None, objective, mode=resolve_kernel_mode()
        )

        def select() -> tuple:
            """One Min-Min round: the smallest-MCT ready subtask."""
            best: ExecutionPlan | None = None
            for task in schedule.ready_sorted():
                plan = self._best_plan_for_task(kernel, task)
                if plan is None:
                    continue
                if best is None or plan.finish < best.finish - 1e-12:
                    best = plan
            return best, 0

        stopwatch = Stopwatch()
        with stopwatch:
            kernel.run_static(select, trace)
        return MappingResult.finish(
            schedule, trace, stopwatch.elapsed, self.name, _GREEDY_WEIGHTS
        )
