"""Per-machine energy bookkeeping (§IV).

:class:`EnergyLedger` tracks the remaining battery ``Bp(j)`` of every machine
while a mapping is built.  Debits happen at *schedule* time — when a subtask
(or a communication) is committed, not when it would execute — matching the
paper's description: "the algorithm updated the energy levels (including
energy used for communications and subtask execution) of all machines".

The ledger also exposes the two aggregates used by the objective function:

* ``TSE`` — total system energy, Σ B(j);
* ``TEC`` — total energy consumed, Σ EC(j).
"""

from __future__ import annotations

import numpy as np

from repro.grid.config import GridConfig


class EnergyLedger:
    """Mutable energy state for one grid configuration."""

    def __init__(self, grid: GridConfig) -> None:
        self.grid = grid
        self._capacity = np.array([m.battery for m in grid], dtype=float)
        self._consumed = np.zeros(len(grid), dtype=float)
        self._tse = float(self._capacity.sum())
        # Memoised TEC (None = dirty): the objective reads TEC once per
        # candidate plan, far more often than debits invalidate it.  The
        # dirty-flag recompute keeps np.sum's exact summation order, so
        # cached and uncached runs see bit-identical aggregates.
        self._tec: float | None = 0.0

    # -- queries ----------------------------------------------------------

    def remaining(self, j: int) -> float:
        """Remaining battery ``Bp(j)`` of machine *j*."""
        return float(self._capacity[j] - self._consumed[j])

    def consumed(self, j: int) -> float:
        """Energy consumed ``EC(j)`` on machine *j* so far."""
        return float(self._consumed[j])

    @property
    def total_system_energy(self) -> float:
        """TSE = Σ_j B(j)."""
        return self._tse

    @property
    def total_energy_consumed(self) -> float:
        """TEC = Σ_j EC(j)."""
        if self._tec is None:
            self._tec = float(self._consumed.sum())
        return self._tec

    def can_afford(self, j: int, energy: float) -> bool:
        """Whether machine *j* has at least *energy* units left.

        A small relative tolerance absorbs float round-off so that a machine
        can always spend exactly its remaining budget.
        """
        return energy <= self.remaining(j) * (1 + 1e-12) + 1e-12

    # -- mutation ----------------------------------------------------------

    def debit(self, j: int, energy: float) -> None:
        """Consume *energy* units on machine *j*.

        Raises
        ------
        ValueError
            If the debit would drive the battery negative (beyond float
            tolerance) — callers must check :meth:`can_afford` first.
        """
        if energy < 0:
            raise ValueError(f"cannot debit negative energy {energy}")
        if not self.can_afford(j, energy):
            raise ValueError(
                f"machine {j} ({self.grid[j].name}) cannot afford {energy:.6g} "
                f"energy units; {self.remaining(j):.6g} remaining"
            )
        self._consumed[j] += energy
        self._tec = None

    def credit(self, j: int, energy: float) -> None:
        """Refund *energy* units on machine *j* (used when an assignment is
        rolled back, e.g. by a machine loss)."""
        if energy < 0:
            raise ValueError(f"cannot credit negative energy {energy}")
        if energy > self._consumed[j] + 1e-9:
            raise ValueError(
                f"refund of {energy:.6g} exceeds consumption "
                f"{self._consumed[j]:.6g} on machine {j}"
            )
        self._consumed[j] = max(0.0, self._consumed[j] - energy)
        self._tec = None

    def snapshot(self) -> np.ndarray:
        """A copy of the per-machine consumption vector."""
        return self._consumed.copy()

    def restore(self, snapshot: np.ndarray) -> None:
        """Restore a consumption vector captured by :meth:`snapshot`."""
        if snapshot.shape != self._consumed.shape:
            raise ValueError("snapshot shape mismatch")
        self._consumed[:] = snapshot
        self._tec = None

    def copy(self) -> "EnergyLedger":
        dup = EnergyLedger(self.grid)
        dup._consumed[:] = self._consumed
        dup._tec = None
        return dup
