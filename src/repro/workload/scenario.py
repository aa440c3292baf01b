"""Scenario bundling (§III).

A *scenario* is everything a resource manager needs: a grid configuration,
an ETC matrix, a task DAG with data item sizes, and the time constraint τ.
The paper crosses **10 ETC matrices × 10 DAGs** into 100 scenarios and runs
the same 100 in all three grid cases.  Crucially, the ETC matrices are
generated once for the full Case A machine set; Cases B and C simply *drop a
machine* — so comparisons across cases see identical workloads.
:class:`ScenarioSuite` reproduces that protocol: master artefacts are
generated against Case A and column-subset per case.

Machine indexing in the master grid: ``[fast-0, fast-1, slow-0, slow-1]``.
Case B removes slow-1; Case C removes fast-1.  Machine 0 (fast-0) is always
present — it is the upper bound's reference machine (§VI).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Iterator

import numpy as np

from repro.grid.config import CASE_A, GridConfig
from repro.grid.network import NetworkModel
from repro.util.seeding import SeedLike, spawn_seeds
from repro.workload.dag import DagSpec, TaskGraph, generate_dag
from repro.workload.data import DataSpec, generate_data_sizes
from repro.workload.etc import EtcSpec, generate_etc
from repro.workload.versions import Version

#: τ used at paper scale (|T| = 1024, Table 2 energies): 34 075 s, chosen in
#: the paper "based on experiments using a simple greedy static heuristic".
PAPER_TAU: float = 34_075.0

#: Master-grid column indices retained by each case (see module docstring).
CASE_COLUMNS: dict[str, tuple[int, ...]] = {
    "A": (0, 1, 2, 3),
    "B": (0, 1, 2),
    "C": (0, 2, 3),
}


@dataclass(frozen=True)
class ScenarioSpec:
    """Generation parameters for one scenario family.

    The defaults reproduce the paper's scale (|T| = 1024, τ = 34 075 s);
    reduced-scale experiments override ``n_tasks`` and ``tau``.
    """

    n_tasks: int = 1024
    tau: float = PAPER_TAU
    etc: EtcSpec = field(default_factory=EtcSpec)
    dag: DagSpec = field(default_factory=lambda: DagSpec())
    data: DataSpec = field(default_factory=DataSpec)

    def __post_init__(self) -> None:
        if self.n_tasks < 1:
            raise ValueError("n_tasks must be >= 1")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.dag.n_tasks != self.n_tasks:
            object.__setattr__(self, "dag", replace(self.dag, n_tasks=self.n_tasks))


@dataclass(frozen=True)
class Scenario:
    """One concrete mapping problem instance.

    Attributes
    ----------
    grid:
        The machines available in this case.
    etc:
        ``(|T|, |M|)`` primary-version execution times, columns aligned with
        ``grid``.
    dag:
        Precedence DAG over the |T| subtasks.
    data_sizes:
        ``g(i, k)`` in bits for every DAG edge (primary-version sizes).
    tau:
        Hard application-execution-time constraint, seconds.
    name:
        Label for reports, e.g. ``"etc0-dag3-caseB"``.
    """

    grid: GridConfig
    etc: np.ndarray
    dag: TaskGraph
    data_sizes: dict[tuple[int, int], float]
    tau: float
    name: str = "scenario"
    #: Per-task arrival (release) times, seconds.  ``None`` reproduces the
    #: paper's simplification ("each subtask was assumed to be available for
    #: mapping as soon as its precedence constraints had been satisfied",
    #: §IV); a tuple makes the workload *truly* dynamic: a subtask may not
    #: be mapped, and may not start, before its release.
    release_times: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.etc.shape != (self.dag.n_tasks, len(self.grid)):
            raise ValueError(
                f"ETC shape {self.etc.shape} does not match "
                f"({self.dag.n_tasks} tasks, {len(self.grid)} machines)"
            )
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        missing = [e for e in self.dag.edges() if e not in self.data_sizes]
        if missing:
            raise ValueError(f"data size missing for edges {missing[:5]}...")
        if self.release_times is not None:
            if len(self.release_times) != self.dag.n_tasks:
                raise ValueError(
                    f"{len(self.release_times)} release times for "
                    f"{self.dag.n_tasks} tasks"
                )
            if any(r < 0 for r in self.release_times):
                raise ValueError("release times must be non-negative")

    def release(self, task: int) -> float:
        """Arrival time of *task* (0.0 under the paper's simplification)."""
        if self.release_times is None:
            return 0.0
        return self.release_times[task]

    def with_release_times(self, release_times: np.ndarray | None) -> "Scenario":
        """A copy of this scenario with per-task arrival times attached."""
        return Scenario(
            grid=self.grid,
            etc=self.etc,
            dag=self.dag,
            data_sizes=self.data_sizes,
            tau=self.tau,
            name=self.name,
            release_times=tuple(release_times),
        )

    @property
    def n_tasks(self) -> int:
        return self.dag.n_tasks

    @property
    def n_machines(self) -> int:
        return len(self.grid)

    @cached_property
    def network(self) -> NetworkModel:
        return NetworkModel(self.grid)

    # -- per-candidate quantities -----------------------------------------

    def exec_time(self, task: int, machine: int, version: Version) -> float:
        """Execution time of *task*'s *version* on *machine*, seconds."""
        return float(self.etc[task, machine]) * version.scale

    def compute_energy(self, task: int, machine: int, version: Version) -> float:
        """Computation energy for the (task, version, machine) triple."""
        return self.grid[machine].compute_energy(self.exec_time(task, machine, version))

    def data_bits(self, parent: int, child: int, parent_version: Version) -> float:
        """Bits that *parent* (run at *parent_version*) sends to *child*."""
        return self.data_sizes[(parent, child)] * parent_version.scale

    def with_tau(self, tau: float) -> "Scenario":
        """A copy of this scenario under a different time constraint."""
        return Scenario(
            grid=self.grid,
            etc=self.etc,
            dag=self.dag,
            data_sizes=self.data_sizes,
            tau=tau,
            name=self.name,
            release_times=self.release_times,
        )


def generate_scenario(
    spec: ScenarioSpec = ScenarioSpec(),
    grid: GridConfig = CASE_A,
    seed: SeedLike = None,
    name: str = "scenario",
) -> Scenario:
    """Generate one self-contained scenario against *grid*."""
    etc_seed, dag_seed, data_seed = spawn_seeds(seed, 3)
    dag = generate_dag(spec.dag, seed=dag_seed)
    return Scenario(
        grid=grid,
        etc=generate_etc(spec.n_tasks, grid, spec.etc, seed=etc_seed),
        dag=dag,
        data_sizes=generate_data_sizes(dag, spec.data, seed=data_seed),
        tau=spec.tau,
        name=name,
    )


class ScenarioSuite:
    """The paper's ETC × DAG cross product, shared across grid cases.

    Master ETC matrices are generated once against the full Case A grid;
    per-case scenarios subset columns via :data:`CASE_COLUMNS`, so losing a
    machine never resamples the workload.
    """

    def __init__(
        self,
        n_etc: int = 10,
        n_dag: int = 10,
        spec: ScenarioSpec = ScenarioSpec(),
        seed: SeedLike = 0,
        master_grid: GridConfig = CASE_A,
    ) -> None:
        if n_etc < 1 or n_dag < 1:
            raise ValueError("need at least one ETC matrix and one DAG")
        if len(master_grid) != 4:
            raise ValueError(
                "the paper's case subsetting assumes the 4-machine Case A master grid"
            )
        self.spec = spec
        self.master_grid = master_grid
        etc_root, dag_root, data_root = spawn_seeds(seed, 3)
        self.etcs: list[np.ndarray] = [
            generate_etc(spec.n_tasks, master_grid, spec.etc, seed=s)
            for s in etc_root.spawn(n_etc)
        ]
        self.dags: list[TaskGraph] = [
            generate_dag(spec.dag, seed=s) for s in dag_root.spawn(n_dag)
        ]
        self.data_maps: list[dict[tuple[int, int], float]] = [
            generate_data_sizes(dag, spec.data, seed=s)
            for dag, s in zip(self.dags, data_root.spawn(n_dag))
        ]
        self._case_grids: dict[str, GridConfig] = {}

    @property
    def n_etc(self) -> int:
        return len(self.etcs)

    @property
    def n_dag(self) -> int:
        return len(self.dags)

    def case_grid(self, case: str) -> GridConfig:
        """The grid configuration for case ``"A"``, ``"B"`` or ``"C"``."""
        if case not in CASE_COLUMNS:
            raise KeyError(f"unknown case {case!r}; expected one of {sorted(CASE_COLUMNS)}")
        if case not in self._case_grids:
            cols = CASE_COLUMNS[case]
            machines = tuple(self.master_grid[j] for j in cols)
            self._case_grids[case] = GridConfig(machines=machines, name=f"Case {case}")
        return self._case_grids[case]

    def scenario(self, etc_idx: int, dag_idx: int, case: str = "A") -> Scenario:
        """Build the (etc_idx, dag_idx) scenario under the given case."""
        cols = CASE_COLUMNS[case] if case in CASE_COLUMNS else None
        if cols is None:
            raise KeyError(f"unknown case {case!r}")
        return Scenario(
            grid=self.case_grid(case),
            etc=self.etcs[etc_idx][:, list(cols)],
            dag=self.dags[dag_idx],
            data_sizes=self.data_maps[dag_idx],
            tau=self.spec.tau,
            name=f"etc{etc_idx}-dag{dag_idx}-case{case}",
        )

    def scenarios(self, case: str = "A") -> Iterator[Scenario]:
        """Iterate all ETC × DAG scenarios for one case."""
        for e in range(self.n_etc):
            for d in range(self.n_dag):
                yield self.scenario(e, d, case)


def generate_scenario_suite(
    n_etc: int = 10,
    n_dag: int = 10,
    spec: ScenarioSpec = ScenarioSpec(),
    seed: SeedLike = 0,
) -> ScenarioSuite:
    """Convenience constructor mirroring the paper's 10 × 10 protocol."""
    return ScenarioSuite(n_etc=n_etc, n_dag=n_dag, spec=spec, seed=seed)


# -- proportional-shrink protocol ---------------------------------------------

#: |T| used by the paper; the anchor of the proportional-shrink protocol.
PAPER_N_TASKS: int = 1024


def paper_scaled_spec(n_tasks: int, **overrides: Any) -> ScenarioSpec:
    """A :class:`ScenarioSpec` that shrinks the paper's study to *n_tasks*.

    Pure-Python mapping at |T| = 1024 costs minutes-to-hours per run (the
    paper's own Figure 6 reports hundreds of seconds per mapping in Python
    2.3), so experiments default to a smaller |T|.  Naively shrinking |T|
    alone breaks the resource *regime*: the α-term per subtask (α/|T|)
    grows while Table 2 batteries and τ = 34 075 s stay fixed, so energy
    and time stop binding and the (α, β) trade-off degenerates.  The
    proportional-shrink protocol scales **τ by n/1024** here and **B(j) by
    n/1024** (via :func:`paper_scaled_grid`), preserving the paper's
    regime at any scale:

    * fast machines are *energy*-bound (battery covers ≈ 17 % of τ),
    * slow machines are *time*-bound,
    * no single machine class can absorb the whole task set → forced load
      balancing, exactly the condition the paper tuned τ for (§III),
    * the Case C upper bound stays *cycles*-limited (Table 4's shape).

    Keyword *overrides* are forwarded to :class:`ScenarioSpec`.
    """
    factor = n_tasks / PAPER_N_TASKS
    overrides.setdefault("tau", PAPER_TAU * factor)
    return ScenarioSpec(n_tasks=n_tasks, **overrides)


def paper_scaled_grid(n_tasks: int, grid: GridConfig = CASE_A) -> GridConfig:
    """Scale *grid* batteries by ``n_tasks / 1024`` (see
    :func:`paper_scaled_spec`)."""
    return grid.with_battery_scale(n_tasks / PAPER_N_TASKS)


def paper_scaled_suite(
    n_tasks: int,
    n_etc: int = 10,
    n_dag: int = 10,
    seed: SeedLike = 0,
    **spec_overrides: Any,
) -> ScenarioSuite:
    """A :class:`ScenarioSuite` under the proportional-shrink protocol."""
    return ScenarioSuite(
        n_etc=n_etc,
        n_dag=n_dag,
        spec=paper_scaled_spec(n_tasks, **spec_overrides),
        seed=seed,
        master_grid=paper_scaled_grid(n_tasks),
    )
