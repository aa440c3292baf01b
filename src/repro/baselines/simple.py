"""Classic single-criterion mappers: OLB and MET.

Two more members of the [IbK77]-era heuristic family, included as extra
reference points beyond the paper's Max-Max baseline (both are standard
comparators in the heterogeneous-computing literature the paper builds on):

* **OLB** (opportunistic load balancing) — assign each ready subtask to the
  machine that becomes *available* earliest, ignoring execution times
  entirely.  Keeps machines busy; often poor makespan.
* **MET** (minimum execution time) — assign each ready subtask to the
  machine with the smallest ETC entry, ignoring availability.  Tends to
  overload the fastest machine.

Version policy mirrors :class:`~repro.baselines.greedy.GreedyScheduler`:
primary when the battery allows, secondary as fallback.  Tasks are taken in
topological order (ties by id), so both run in O(|T|·|M|) plans.
"""

from __future__ import annotations

from repro.baselines.greedy import _GREEDY_WEIGHTS
from repro.core.slrh import MappingResult
from repro.sim.schedule import ExecutionPlan, Schedule
from repro.sim.trace import MappingTrace
from repro.util.timing import Stopwatch
from repro.workload.scenario import Scenario


class _TopologicalMapper:
    """Shared walk: map tasks in topological order by a machine-choice rule."""

    name = "topological"

    def _choose_machine(self, schedule: Schedule, task: int) -> list[int]:
        """Machine indices in preference order for *task*."""
        raise NotImplementedError

    def map(self, scenario: Scenario) -> MappingResult:
        schedule = Schedule(scenario)
        trace = MappingTrace()
        stopwatch = Stopwatch()
        with stopwatch:
            for task in scenario.dag.topological_order:
                plan = self._first_feasible(schedule, task)
                if plan is None:
                    break
                schedule.commit(plan)
        return MappingResult.finish(
            schedule, trace, stopwatch.elapsed, self.name, _GREEDY_WEIGHTS
        )

    def _first_feasible(self, schedule: Schedule, task: int) -> ExecutionPlan | None:
        for machine in self._choose_machine(schedule, task):
            # (primary, secondary) from one shared channel-slot search.
            for plan in schedule.plan_versions(task, machine, insertion=False):
                if plan.feasible:
                    return plan
        return None


class OlbScheduler(_TopologicalMapper):
    """Opportunistic load balancing: earliest-available machine first."""

    name = "OLB"

    def _choose_machine(self, schedule: Schedule, task: int) -> list[int]:
        n = schedule.scenario.n_machines
        return sorted(range(n), key=lambda j: (schedule.exec_timeline[j].tail, j))


class MetScheduler(_TopologicalMapper):
    """Minimum execution time: fastest machine for this task first."""

    name = "MET"

    def _choose_machine(self, schedule: Schedule, task: int) -> list[int]:
        scenario = schedule.scenario
        n = scenario.n_machines
        return sorted(range(n), key=lambda j: (float(scenario.etc[task, j]), j))
