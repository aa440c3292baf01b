"""Grid configurations (§III, Table 1).

The study uses three static configurations of the ad hoc grid:

=========  ================  ================
case       # fast machines   # slow machines
=========  ================  ================
Case A     2                 2
Case B     2                 1
Case C     1                 2
=========  ================  ================

Case A is the baseline; B removes one slow machine and C removes one fast
machine.  (Table 1 in the scanned paper is blank — the counts above are
recovered from Table 4's column headings, "2 fast, 2 slow" etc.)

Machines are indexed with the fast machines first, so machine 0 — the upper
bound's reference machine (§VI) — is always fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.grid.machine import FAST_MACHINE, SLOW_MACHINE, MachineClass, MachineSpec


@dataclass(frozen=True)
class GridConfig:
    """An immutable collection of machines forming one grid configuration."""

    machines: tuple[MachineSpec, ...]
    name: str = "grid"

    def __post_init__(self) -> None:
        if not self.machines:
            raise ValueError("a grid needs at least one machine")

    def __len__(self) -> int:
        return len(self.machines)

    def __iter__(self) -> Iterator[MachineSpec]:
        return iter(self.machines)

    def __getitem__(self, j: int) -> MachineSpec:
        return self.machines[j]

    @property
    def n_machines(self) -> int:
        """|M|, the number of machines in the grid."""
        return len(self.machines)

    @property
    def fast_indices(self) -> tuple[int, ...]:
        return tuple(
            j for j, m in enumerate(self.machines) if m.machine_class is MachineClass.FAST
        )

    @property
    def slow_indices(self) -> tuple[int, ...]:
        return tuple(
            j for j, m in enumerate(self.machines) if m.machine_class is MachineClass.SLOW
        )

    @property
    def total_system_energy(self) -> float:
        """TSE = Σ_j B(j) (§IV)."""
        return sum(m.battery for m in self.machines)

    @property
    def min_bandwidth(self) -> float:
        """The lowest bandwidth in the system — the worst-case link used by
        the SLRH feasibility check (§IV)."""
        return min(m.bandwidth for m in self.machines)

    def with_battery_scale(self, factor: float) -> "GridConfig":
        """Scale every machine's battery by *factor* (proportional-shrink
        protocol; see :meth:`MachineSpec.with_battery_scale`)."""
        return GridConfig(
            machines=tuple(m.with_battery_scale(factor) for m in self.machines),
            name=self.name,
        )


def make_case(
    n_fast: int,
    n_slow: int,
    name: str = "",
    fast_spec: MachineSpec = FAST_MACHINE,
    slow_spec: MachineSpec = SLOW_MACHINE,
) -> GridConfig:
    """Build a grid with *n_fast* fast machines followed by *n_slow* slow ones.

    Machine 0 is fast whenever ``n_fast > 0``, matching the paper's choice of
    reference machine for the upper-bound calculation.
    """
    if n_fast < 0 or n_slow < 0:
        raise ValueError("machine counts must be non-negative")
    if n_fast + n_slow == 0:
        raise ValueError("a grid needs at least one machine")
    machines = [fast_spec.renamed(f"fast-{i}") for i in range(n_fast)]
    machines += [slow_spec.renamed(f"slow-{i}") for i in range(n_slow)]
    return GridConfig(machines=tuple(machines), name=name or f"{n_fast}f{n_slow}s")


#: Case A — baseline, all machines present (2 fast, 2 slow).
CASE_A = make_case(2, 2, name="Case A")
#: Case B — one slow machine lost (2 fast, 1 slow).
CASE_B = make_case(2, 1, name="Case B")
#: Case C — one fast machine lost (1 fast, 2 slow).
CASE_C = make_case(1, 2, name="Case C")

#: The three paper configurations, keyed as in Table 1.
PAPER_CASES: dict[str, GridConfig] = {"A": CASE_A, "B": CASE_B, "C": CASE_C}
