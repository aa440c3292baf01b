"""The "simple greedy static heuristic" and τ calibration (§III).

The paper fixed its time constraint at τ = 34 075 s "based on experiments
using a simple greedy static heuristic", choosing a value that forces load
balancing across all available machines.  We reproduce the procedure:

* :class:`GreedyScheduler` walks the DAG in topological order and assigns
  every subtask — primary version when the battery allows, secondary
  otherwise — to the machine giving the earliest completion time (classic
  minimum-completion-time greedy, insertion allowed);
* :func:`calibrate_tau` runs the greedy mapper and returns its makespan
  scaled by a slack factor.  A factor near 1.0 reproduces the paper's
  "tight" constraint that forces balancing; larger factors relax it.

At paper scale (|T| = 1024, Table 2 machines) the calibrated value lands in
the tens of thousands of seconds, consistent with the paper's 34 075 s.
"""

from __future__ import annotations

import math

from repro.core.kernel import SchedulingKernel
from repro.core.objective import ObjectiveFunction, Weights
from repro.core.slrh import MappingResult
from repro.sim.schedule import Schedule
from repro.sim.trace import MappingTrace
from repro.util.timing import Stopwatch
from repro.workload.scenario import Scenario

#: Placeholder weights recorded on greedy results (greedy ignores ObjFn).
_GREEDY_WEIGHTS = Weights(1.0, 0.0, 0.0)


class GreedyScheduler:
    """Minimum-completion-time greedy static mapper (see module docstring)."""

    name = "Greedy"

    def map(
        self, scenario: Scenario, schedule: Schedule | None = None
    ) -> MappingResult:
        """Map *scenario* from scratch, or finish a partially-built
        *schedule* (the session engine's final-state mapping after grid
        events): already-mapped subtasks are skipped, everything else is
        assigned against the schedule's current calendars and budgets."""
        if schedule is None:
            schedule = Schedule(scenario)
        elif schedule.scenario is not scenario:
            raise ValueError("schedule was built for a different scenario")
        trace = MappingTrace()
        topo = iter(
            t
            for t in scenario.dag.topological_order
            if t not in schedule.assignments
        )

        def select() -> tuple:
            """MCT plan for the next subtask in topological order (``None``
            once the walk runs out of energy everywhere)."""
            task = next(topo)
            best_plan = None
            for machine in range(scenario.n_machines):
                # (primary, secondary) from one shared channel-slot search.
                for plan in schedule.plan_versions(
                    task, machine, not_before=0.0, insertion=True
                ):
                    if not plan.feasible:
                        continue
                    if best_plan is None or plan.finish < best_plan.finish - 1e-12:
                        best_plan = plan
                    break  # primary fits: no need to consider secondary
            return best_plan, 0

        # The kernel scores trace records under the weights the result
        # reports.
        objective = ObjectiveFunction.for_scenario(scenario, _GREEDY_WEIGHTS)
        kernel = SchedulingKernel(schedule, None, objective)
        stopwatch = Stopwatch()
        with stopwatch:
            kernel.run_static(select, trace)
        return MappingResult.finish(
            schedule, trace, stopwatch.elapsed, self.name, _GREEDY_WEIGHTS
        )


def calibrate_tau(scenario: Scenario, slack: float = 1.0) -> float:
    """Reproduce the paper's τ-selection procedure for *scenario*'s workload.

    Runs the greedy static mapper (the scenario's own τ is irrelevant to
    greedy) and returns ``slack × makespan``, rounded up to a whole clock
    cycle.  ``slack`` near 1.0 forces load balancing, as in the paper.

    Raises
    ------
    RuntimeError
        If greedy itself cannot map every subtask (the workload is
        energy-infeasible even with secondary versions).
    """
    if slack <= 0:
        raise ValueError("slack must be positive")
    result = GreedyScheduler().map(scenario)
    if not result.complete:
        raise RuntimeError(
            f"greedy mapped only {result.schedule.n_mapped}/"
            f"{scenario.n_tasks} subtasks; workload is energy-infeasible"
        )
    from repro.util.units import CYCLE_SECONDS

    raw = result.aet * slack
    return math.ceil(raw / CYCLE_SECONDS) * CYCLE_SECONDS
