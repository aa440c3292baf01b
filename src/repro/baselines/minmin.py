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
        # The kernel's static slot store re-runs only the searches a commit
        # invalidated; under rebuild it plans every lookup afresh.  The
        # kernel scores trace records under the weights the result reports.
        objective = ObjectiveFunction.for_scenario(scenario, _GREEDY_WEIGHTS)
        kernel = SchedulingKernel(
            schedule, None, objective, mode=resolve_kernel_mode()
        )
        n_machines = scenario.n_machines

        def select() -> tuple[ExecutionPlan | None, int]:
            """One Min-Min round: the smallest-MCT ready subtask."""
            slots = kernel.slots
            feasible0, feasible1 = slots.feasible
            finish0, finish1 = slots.finish
            best = -1  # slot index of the round's plan
            best_vi = 0
            best_finish = 0.0
            for task in schedule.ready_sorted():
                # The task's minimum-completion-time plan over all
                # machines: the primary when affordable, else the secondary.
                task_best = -1
                task_vi = 0
                task_finish = 0.0
                for machine in range(n_machines):
                    idx = slots.lookup(task, machine, first_feasible=True)
                    if feasible0[idx]:
                        vi, finish = 0, finish0[idx]
                    elif feasible1[idx]:
                        vi, finish = 1, finish1[idx]
                    else:
                        continue
                    if task_best < 0 or finish < task_finish - 1e-12:
                        task_best, task_vi, task_finish = idx, vi, finish
                if task_best < 0:
                    continue
                if best < 0 or task_finish < best_finish - 1e-12:
                    best, best_vi, best_finish = task_best, task_vi, task_finish
            if best < 0:
                return None, 0
            return slots.plan(best, best_vi), 0

        stopwatch = Stopwatch()
        with stopwatch:
            kernel.run_static(select, trace)
        return MappingResult.finish(
            schedule, trace, stopwatch.elapsed, self.name, _GREEDY_WEIGHTS
        )
