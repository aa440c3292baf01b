"""repro — reproduction of the Simplified Lagrangian Receding Horizon (SLRH)
resource manager for ad hoc grid environments.

Paper: R. H. Castain, W. W. Saylor, H. J. Siegel, "Application of Lagrangian
Receding Horizon Techniques to Resource Management in Ad Hoc Grid
Environments", IPDPS 2004.

Quickstart
----------
>>> from repro import (CASE_A, ScenarioSpec, generate_scenario, Weights,
...                    SlrhConfig, SLRH1, calibrate_tau)
>>> spec = ScenarioSpec(n_tasks=48, tau=1e9)
>>> scenario = generate_scenario(spec, grid=CASE_A, seed=7)
>>> scenario = scenario.with_tau(calibrate_tau(scenario, slack=1.1))
>>> result = SLRH1(SlrhConfig(weights=Weights.from_alpha_beta(0.5, 0.1))).map(scenario)
>>> result.complete
True

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

# repro.core first: its __init__ must be on the import stack (partially
# initialised is enough) before any repro.sim module runs, so that
# ``from repro.core.constants import EPSILON`` inside repro.sim.schedule
# resolves the leaf submodule without re-entering repro.core.__init__.
import repro.core  # noqa: F401  (re-imported with names below)

from repro.analysis import (
    compute_stats,
    critical_chain,
    critical_path_bound,
    efficiency,
    energy_profile,
    render_gantt,
    schedule_slack,
)
from repro.baselines import (
    GreedyScheduler,
    LrnnConfig,
    LrnnScheduler,
    MaxMaxConfig,
    MaxMaxScheduler,
    MetScheduler,
    MinMinScheduler,
    OlbScheduler,
    calibrate_tau,
)
from repro.bounds import UpperBoundResult, upper_bound, upper_bound_strict
from repro.core import (
    SLRH1,
    SLRH2,
    SLRH3,
    AdaptiveWeightController,
    Candidate,
    FeasibilityChecker,
    MappingResult,
    ObjectiveFunction,
    SlrhConfig,
    SlrhScheduler,
    Weights,
    adaptive_slrh,
    build_candidate_pool,
)
from repro.grid import (
    CASE_A,
    CASE_B,
    CASE_C,
    FAST_MACHINE,
    PAPER_CASES,
    SLOW_MACHINE,
    EnergyLedger,
    GridConfig,
    MachineClass,
    MachineSpec,
    NetworkModel,
    make_case,
)
from repro.sim import (
    Assignment,
    ExecutionPlan,
    IntervalTimeline,
    MappingTrace,
    PlannedComm,
    Schedule,
    SimulationClock,
    ValidationError,
    validate_schedule,
)
from repro.workload import (
    PAPER_N_TASKS,
    PRIMARY,
    SECONDARY,
    DagSpec,
    DataSpec,
    EtcSpec,
    Scenario,
    ScenarioSpec,
    TaskGraph,
    Version,
    generate_dag,
    generate_data_sizes,
    generate_etc,
    generate_release_times,
    generate_scenario,
    generate_scenario_suite,
    paper_scaled_grid,
    paper_scaled_spec,
    paper_scaled_suite,
)
from repro.heuristics import (
    HEURISTIC_NAMES,
    WEIGHTED_HEURISTICS,
    make_scheduler,
    run_heuristic,
)
from repro.session import SessionEvent, run_with_events
from repro.workload.scenario import PAPER_TAU, ScenarioSuite

__version__ = "1.0.0"

__all__ = [
    # grid
    "MachineClass", "MachineSpec", "FAST_MACHINE", "SLOW_MACHINE",
    "GridConfig", "make_case", "CASE_A", "CASE_B", "CASE_C", "PAPER_CASES",
    "NetworkModel", "EnergyLedger",
    # workload
    "Version", "PRIMARY", "SECONDARY", "EtcSpec", "generate_etc",
    "DagSpec", "TaskGraph", "generate_dag", "DataSpec", "generate_data_sizes",
    "Scenario", "ScenarioSpec", "ScenarioSuite", "generate_scenario",
    "generate_release_times",
    "generate_scenario_suite", "PAPER_TAU", "PAPER_N_TASKS",
    "paper_scaled_spec", "paper_scaled_grid", "paper_scaled_suite",
    # sim
    "IntervalTimeline", "Schedule", "Assignment", "ExecutionPlan",
    "PlannedComm", "SimulationClock", "MappingTrace",
    "validate_schedule", "ValidationError",
    # core
    "Weights", "ObjectiveFunction", "FeasibilityChecker", "Candidate",
    "build_candidate_pool", "SlrhConfig", "SlrhScheduler",
    "SLRH1", "SLRH2", "SLRH3", "MappingResult",
    "AdaptiveWeightController", "adaptive_slrh",
    # baselines & bounds
    "MaxMaxScheduler", "MaxMaxConfig", "MinMinScheduler", "GreedyScheduler",
    "OlbScheduler", "MetScheduler", "LrnnScheduler", "LrnnConfig",
    "calibrate_tau", "upper_bound", "upper_bound_strict", "UpperBoundResult",
    # dynamics & analysis
    "SessionEvent", "run_with_events",
    "compute_stats", "energy_profile", "render_gantt",
    "critical_path_bound", "efficiency", "schedule_slack", "critical_chain",
    # heuristic registry (shared by CLI + service dispatch)
    "HEURISTIC_NAMES", "WEIGHTED_HEURISTICS", "make_scheduler", "run_heuristic",
    "__version__",
]
