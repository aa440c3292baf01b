"""Static Lagrangian-relaxation mapper (the paper's predecessor approach).

§II traces the SLRH's lineage: Luh & Hoitomt [LuH93] relaxed machine
capacity constraints with Lagrangian multipliers and repaired the (usually
infeasible) relaxed solution with list scheduling; Luh et al. [LuZ00]
adjusted the multipliers iteratively (the "Lagrangian relaxation neural
network", LRNN); and the authors' own unpublished [CaS03] applied exactly
that machinery to this ad hoc grid problem *statically*.  The paper names
two limitations — the repair step, and the inability to react to dynamic
change — that motivate the receding-horizon reformulation.

This module reconstructs that predecessor so the lineage can be measured:

1. **Relaxed problem.**  Dualise each machine's time-capacity constraint
   (Σ assigned time ≤ τ) with a price λⱼ ≥ 0.  The relaxed problem then
   splits per subtask: choose the (machine, version) minimising

   .. math::  -\\alpha\\,[v = primary]/|T| + \\beta\\,E(i,j,v)/TSE
              + \\lambda_j\\,t(i,j,v)/\\tau

   (the γ/AET term has no per-task decomposition and is handled by the
   repair step's schedule construction).

2. **Multiplier adjustment (the "neural network" iteration).**  A
   subgradient ascent on the dual: λⱼ grows where the relaxed assignment
   overloads machine *j* beyond τ and decays (toward 0) where capacity is
   slack, with a diminishing step.

3. **Repair.**  The relaxed assignment ignores precedence and channel
   capacity, so it is "typically infeasible" [LuH93]; the final solution
   list-schedules subtasks in topological order onto their chosen
   (machine, version) through the normal :class:`Schedule` machinery
   (insertion allowed), degrading to the secondary version or another
   machine when energy no longer suffices.

The result is a *static* mapper: like Max-Max it needs the whole problem
up front, and any grid change forces a full re-solve — the limitation (b)
of §II that SLRH exists to remove.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.objective import Weights
from repro.core.slrh import MappingResult
from repro.sim.schedule import Schedule
from repro.sim.trace import MappingTrace
from repro.util.timing import Stopwatch
from repro.workload.scenario import Scenario
from repro.workload.versions import PRIMARY, SECONDARY, Version


@dataclass(frozen=True)
class LrnnConfig:
    """Multiplier-iteration parameters.

    Attributes
    ----------
    weights:
        The (α, β, γ) objective point; γ only shapes the repair step.
    iterations:
        Subgradient iterations (the LRNN's settling sweeps).
    step:
        Initial subgradient step; iteration k uses ``step / k``.
    """

    weights: Weights
    iterations: int = 40
    step: float = 0.5
    #: Fraction of τ the dual treats as each machine's time capacity.
    #: The relaxed problem constrains machine *load*; the repaired schedule
    #: adds precedence and channel idle time on top, so targeting the full
    #: τ "typically represent[s] infeasible schedules" [LuH93] — the very
    #: limitation the paper cites.  A margin below 1 leaves repair room;
    #: 1.0 reproduces the naive behaviour.
    capacity_factor: float = 0.6

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if not 0 < self.capacity_factor <= 1.0:
            raise ValueError("capacity_factor must be in (0, 1]")


class LrnnScheduler:
    """Static Lagrangian-relaxation mapper (see module docstring)."""

    name = "LRNN"

    def __init__(self, config: LrnnConfig) -> None:
        self.config = config

    # -- relaxed subproblem -------------------------------------------------

    def _relaxed_choice(
        self, scenario: Scenario, prices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-task argmin of the relaxed cost; returns (machine, version)
        index arrays (version 0 = primary, 1 = secondary)."""
        w = self.config.weights
        tse = scenario.grid.total_system_energy
        tau = scenario.tau
        rates = np.array([m.compute_rate for m in scenario.grid])
        best_cost = None
        best_machine = None
        best_version = None
        for v_idx, version in enumerate((PRIMARY, SECONDARY)):
            times = scenario.etc * version.scale  # (n, m)
            energy = times * rates[np.newaxis, :]
            gain = w.alpha / scenario.n_tasks if version is PRIMARY else 0.0
            cost = -gain + w.beta * energy / tse + prices[np.newaxis, :] * times / tau
            machine = np.argmin(cost, axis=1)
            rows = np.arange(scenario.n_tasks)
            chosen = cost[rows, machine]
            if best_cost is None:
                best_cost, best_machine = chosen, machine
                best_version = np.full(scenario.n_tasks, v_idx)
            else:
                better = chosen < best_cost
                best_cost = np.where(better, chosen, best_cost)
                best_machine = np.where(better, machine, best_machine)
                best_version = np.where(better, v_idx, best_version)
        return best_machine, best_version

    def _iterate_prices(self, scenario: Scenario) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run the subgradient iteration; returns final (machine, version,
        prices)."""
        n_machines = scenario.n_machines
        rates = np.array([m.compute_rate for m in scenario.grid])
        prices = np.zeros(n_machines)
        machine = version = None
        for k in range(1, self.config.iterations + 1):
            machine, version = self._relaxed_choice(scenario, prices)
            # Subgradient of the dual: per-machine assigned time minus τ.
            load = np.zeros(n_machines)
            scales = np.where(version == 0, 1.0, SECONDARY.scale)
            times = scenario.etc[np.arange(scenario.n_tasks), machine] * scales
            np.add.at(load, machine, times)
            capacity = self.config.capacity_factor * scenario.tau
            violation = (load - capacity) / scenario.tau
            prices = np.maximum(0.0, prices + (self.config.step / k) * violation)
        del rates  # (energy enters through the relaxed cost, not the dual)
        return machine, version, prices

    # -- repair ------------------------------------------------------------------

    def map(self, scenario: Scenario) -> MappingResult:
        schedule = Schedule(scenario)
        trace = MappingTrace()
        stopwatch = Stopwatch()
        with stopwatch:
            machine, version, prices = self._iterate_prices(scenario)
            # List-scheduling repair: follow the relaxed choices in
            # topological order; fall back (secondary, then any machine in
            # ascending relaxed cost) when energy no longer allows them.
            for task in scenario.dag.topological_order:
                trace.note_tick()
                committed = False
                preferred: list[tuple[int, Version]] = [
                    (int(machine[task]), PRIMARY if version[task] == 0 else SECONDARY),
                    (int(machine[task]), SECONDARY),
                ]
                fallback_machines = sorted(
                    range(scenario.n_machines), key=lambda j: prices[j]
                )
                for j in fallback_machines:
                    preferred.append((j, PRIMARY))
                    preferred.append((j, SECONDARY))
                seen = set()
                for j, v in preferred:
                    if (j, v) in seen:
                        continue
                    seen.add((j, v))
                    plan = schedule.plan(task, v, j, insertion=True)
                    if plan.feasible:
                        schedule.commit(plan)
                        committed = True
                        break
                if not committed:
                    break  # resource exhaustion: incomplete static mapping
        return MappingResult.finish(
            schedule, trace, stopwatch.elapsed, self.name, self.config.weights
        )
