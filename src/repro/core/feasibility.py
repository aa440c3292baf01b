"""Candidate feasibility (§IV).

A subtask is *feasible* on a target machine at the current iteration iff

(a) all of its parent subtasks are already mapped, and
(b) enough energy remains on the target machine for the subtask to run at
    the **secondary** version *and* transmit all of its output data items —
    costed at the **worst case**: every child assumed to sit across the
    lowest-bandwidth link in the system.

Rule (b) is deliberately conservative: the children's machines are unknown
at pool-construction time, so the check reserves the maximum the subtask
could possibly need.  (The paper notes communication energy proved
negligible in its runs, so the over-reservation rarely bites; the ablation
bench ``benchmarks/test_ablation_feasibility.py`` measures exactly that.)

The Max-Max baseline uses a variant of rule (b): each version is assessed
independently (its own execution energy + worst-case comm at that version's
output volume), so U may hold *both* versions of one subtask (§V).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.constants import BUDGET_TOLERANCE
from repro.sim.schedule import Schedule
from repro.workload.scenario import Scenario
from repro.workload.versions import SECONDARY, Version


@dataclass(frozen=True)
class FeasibilityChecker:
    """Per-scenario feasibility logic with precomputed worst-case CMT."""

    scenario: Scenario
    #: Include the worst-case outgoing-communication reserve in rule (b).
    #: Disabling this is an ablation, not paper behaviour.
    comm_reserve: bool = True
    #: Memo for :meth:`required_energy` — a pure function of the (static)
    #: scenario, so entries never invalidate.
    _required: dict = field(default_factory=dict, repr=False, compare=False)

    def worst_case_comm_energy(self, task: int, machine: int, version: Version) -> float:
        """Energy to push *task*'s outputs (at *version*) from *machine*
        across the system's lowest-bandwidth link."""
        total_bits = sum(
            self.scenario.data_bits(task, child, version)
            for child in self.scenario.dag.children[task]
        )
        return self.scenario.network.worst_case_transfer_energy(machine, total_bits)

    def required_energy(self, task: int, machine: int, version: Version) -> float:
        """Execution energy at *version* plus (optionally) the comm reserve."""
        key = (task, machine, version)
        cached = self._required.get(key)
        if cached is None:
            cached = self.scenario.compute_energy(task, machine, version)
            if self.comm_reserve:
                cached += self.worst_case_comm_energy(task, machine, version)
            self._required[key] = cached
        return cached

    def is_feasible(
        self,
        schedule: Schedule,
        task: int,
        machine: int,
        version: Version = SECONDARY,
    ) -> bool:
        """SLRH rule: parents mapped and rule (b) at the given version.

        SLRH always checks at the secondary version — the minimum commitment
        that guarantees the subtask can run *somehow* (§IV).  Max-Max passes
        each version explicitly.
        """
        if task in schedule.assignments:
            return False
        if any(p not in schedule.assignments for p in self.scenario.dag.parents[task]):
            return False
        required = self.required_energy(task, machine, version)
        available = schedule.available_energy(machine)
        return required <= available * (1 + BUDGET_TOLERANCE) + BUDGET_TOLERANCE
