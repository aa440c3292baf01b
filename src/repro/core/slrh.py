"""The Simplified Lagrangian Receding Horizon scheduler family (§IV, §V).

The SLRH is a *dynamic* (online) heuristic executed every ΔT clock cycles.
At each invocation it scans the machines in numerical order; for each
machine that is **available** (no execution committed at or beyond the
current clock) it builds the ordered candidate pool U
(:func:`repro.core.pool.build_candidate_pool`) and maps the highest-scoring
candidate that can *start* within the receding horizon ``[t, t + H]``.
Mapping a candidate schedules all of its incoming communications and debits
all energies immediately.

The three variants differ only in the per-machine inner loop:

* **SLRH-1** — one assignment per machine per tick (the baseline);
* **SLRH-2** — keeps assigning from the *same* pool (original version
  choices and ordering) until the pool is exhausted or nothing more can
  start within the horizon; the pool is **not** re-evaluated between
  assignments, so its scores and start times go progressively stale — the
  paper found this variant rarely maps all 1024 subtasks;
* **SLRH-3** — like SLRH-2 but rebuilds and re-evaluates U after *every*
  assignment (newly-ready children join immediately).

The loop terminates when every subtask is mapped, or the clock passes τ
(the run is then incomplete and will be rejected by the weight search), or
a safety tick cap is hit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from repro.core.constants import EPSILON
from repro.core.feasibility import FeasibilityChecker
from repro.core.kernel import SchedulingKernel, TickPolicy, resolve_kernel_mode
from repro.core.objective import ObjectiveFunction, Weights
from repro.obs.ledger import DEADLINE_INFEASIBLE, DecisionLedger
from repro.obs.spans import NULL_SPAN, NullTracer, Tracer
from repro.sim.clock import SimulationClock
from repro.sim.schedule import Schedule
from repro.sim.trace import MappingTrace
from repro.util.timing import Stopwatch
from repro.util.units import CYCLE_SECONDS
from repro.workload.scenario import Scenario


@dataclass(frozen=True)
class SlrhConfig:
    """SLRH tuning knobs.

    Paper defaults: ΔT = 10 cycles, H = 100 cycles (§VII); a cycle is
    always :data:`~repro.util.units.CYCLE_SECONDS` (0.1 s).
    """

    weights: Weights
    delta_t_cycles: int = 10
    horizon_cycles: int = 100
    #: Disable the worst-case comm-energy reserve (ablation only).
    comm_reserve: bool = True
    #: AET-term semantics of the objective (ablation; see ObjectiveFunction).
    aet_mode: str = "tent"
    #: Order in which the per-tick loop visits machines.  The paper checks
    #: them "in simple numerical order" (``index``); alternatives quantify
    #: that choice: ``battery`` visits the machine with the most available
    #: energy first (spreads energy drain), ``round_robin`` rotates the
    #: starting machine every tick (spreads the first-pick advantage).
    machine_order: str = "index"
    #: Cycles the mapper itself needs to produce a decision.  §IV warns
    #: that "the execution time of the heuristic in a real-time field
    #: application ... could lead to significantly larger minimum ΔT
    #: values"; with a non-zero latency every action decided at tick t is
    #: scheduled no earlier than t + latency, modelling an on-board
    #: controller that cannot act instantaneously.
    decision_latency_cycles: int = 0
    #: Record candidate *rejections* (with reason codes and margins) into
    #: a :class:`repro.obs.ledger.DecisionLedger` on the mapping trace —
    #: the input of ``python -m repro.experiments explain``.  Recording
    #: never changes the mapping; off by default so the hot path pays
    #: nothing.  A ledger forces the ``rebuild`` kernel mode: rejection
    #: records are per-tick history that only exists when pools are
    #: actually rebuilt.
    ledger: bool = False
    #: Candidate-pool maintenance mode: ``"columnar"`` (delta-maintained
    #: flat-array pools — the default) or ``"rebuild"`` (from-scratch every
    #: serve — the differential oracle); ``None`` reads ``$REPRO_KERNEL``.
    #: The mapping is byte-identical in both; see :mod:`repro.core.kernel`.
    kernel: str | None = None


#: Smallest heuristic runtime treated as distinguishable from zero when
#: dividing by it: the perf_counter resolution, floored at one nanosecond.
#: ``perf_counter`` can report 0.0 elapsed for a mapping faster than one
#: timer tick; clamping the denominator keeps ratio metrics finite.
MIN_TIMED_SECONDS: float = max(
    time.get_clock_info("perf_counter").resolution, 1e-9
)


@dataclass(frozen=True)
class MappingResult:
    """Outcome of one heuristic run on one scenario."""

    schedule: Schedule
    trace: MappingTrace
    heuristic_seconds: float
    heuristic: str
    weights: Weights

    @classmethod
    def finish(
        cls,
        schedule: Schedule,
        trace: MappingTrace,
        seconds: float,
        heuristic: str,
        weights: Weights,
    ) -> MappingResult:
        """Close one map run — the end-of-map bookkeeping every mapper
        shares: count the run on the schedule's perf registry
        (``map.runs``, ``map.seconds``, and the trace's tick-level
        starvation as ``tick.count`` / ``pool.empty_ticks``, so it reaches
        the perf JSON and the daemon's ``/metrics``), snapshot the registry
        onto *trace* and build the result."""
        perf = schedule.perf
        perf.inc("map.runs")
        perf.inc("map.seconds", seconds)
        perf.inc("tick.count", trace.ticks)
        perf.inc("pool.empty_ticks", trace.empty_pool_ticks)
        trace.perf = perf.snapshot()
        return cls(
            schedule=schedule,
            trace=trace,
            heuristic_seconds=seconds,
            heuristic=heuristic,
            weights=weights,
        )

    @property
    def complete(self) -> bool:
        return self.schedule.is_complete

    @property
    def within_tau(self) -> bool:
        return self.schedule.makespan <= self.schedule.scenario.tau + EPSILON

    @property
    def success(self) -> bool:
        """The paper's acceptance rule: all subtasks mapped within τ (energy
        holds by construction)."""
        return self.complete and self.within_tau

    @property
    def t100(self) -> int:
        return self.schedule.t100

    @property
    def aet(self) -> float:
        return self.schedule.makespan

    @property
    def tec(self) -> float:
        return self.schedule.total_energy_consumed

    @property
    def perf(self) -> dict:
        """Performance-counter snapshot of the run (see :mod:`repro.perf`)."""
        return self.trace.perf

    def value_per_second(self) -> float:
        """Figure 7's metric: T100 per second of heuristic execution time.

        The denominator is clamped to the wall-clock timer's resolution:
        at reduced scales a mapping can complete in under one timer tick,
        and an ``inf`` here would poison every mean it is averaged into
        (the Figure 7 report).  The clamp makes the metric a finite
        "at least this many per second" in that regime.
        """
        return self.t100 / max(self.heuristic_seconds, MIN_TIMED_SECONDS)

    def summary(self) -> dict:
        s = self.schedule.summary()
        s.update(
            heuristic=self.heuristic,
            heuristic_seconds=self.heuristic_seconds,
            alpha=self.weights.alpha,
            beta=self.weights.beta,
            gamma=self.weights.gamma,
            success=self.success,
        )
        return s


class SlrhScheduler:
    """Base class implementing the clock-driven outer loop (Figure 1).

    The loop itself — clock advance, machine scan, candidate pools, the
    commit walk — lives in :class:`repro.core.kernel.SchedulingKernel`;
    a variant is nothing but a :class:`~repro.core.kernel.TickPolicy`
    answering "how many commits per machine per tick, and what happens to
    the pool between commits".
    """

    #: Variant label used in reports; subclasses override.
    name = "SLRH"
    #: The per-(tick, machine) serve rule; subclasses override.
    policy: TickPolicy = TickPolicy(max_commits=1, refresh="none")

    def __init__(self, config: SlrhConfig) -> None:
        self.config = config

    def make_kernel(self, schedule: Schedule) -> SchedulingKernel:
        """A :class:`~repro.core.kernel.SchedulingKernel` for *schedule*
        under this scheduler's configuration.  :meth:`map` builds one per
        run; the session engine builds one per *schedule* and threads it
        through every segment so the columnar pool survives in between.
        """
        cfg = self.config
        scenario = schedule.scenario
        return SchedulingKernel(
            schedule,
            FeasibilityChecker(scenario, comm_reserve=cfg.comm_reserve),
            ObjectiveFunction.for_scenario(
                scenario, cfg.weights, aet_mode=cfg.aet_mode
            ),
            mode=resolve_kernel_mode(cfg.kernel, ledger=cfg.ledger),
            machine_order=cfg.machine_order,
            decision_latency_seconds=(
                cfg.decision_latency_cycles * CYCLE_SECONDS
            ),
        )

    def map(
        self,
        scenario: Scenario,
        schedule: Schedule | None = None,
        start_cycle: int = 0,
        stop_cycle: int | None = None,
        tracer: Tracer | NullTracer | None = None,
        kernel: SchedulingKernel | None = None,
    ) -> MappingResult:
        """Run the heuristic to completion (or τ) on *scenario*.

        Parameters
        ----------
        schedule:
            Optional partially-built schedule to continue from — the
            session engine passes its live schedule, which after a
            machine loss holds only the kept assignments.  Defaults to an
            empty schedule.
        start_cycle:
            Clock cycle to start at (e.g. the loss cycle when resuming).
        stop_cycle:
            Pause the loop once the clock reaches this cycle (exclusive),
            leaving the schedule partially built — the session engine
            runs the heuristic segment-by-segment between grid events.
        tracer:
            Optional :class:`repro.obs.spans.Tracer`, installed as
            ``schedule.tracer``; records the ``map → kernel.tick/stall →
            pool/commit`` span tree for Chrome-trace export.  ``None``
            (default) keeps the schedule's own (the no-op tracer unless
            the session engine gave it one).
        kernel:
            Optional persistent :class:`~repro.core.kernel.SchedulingKernel`
            to drive instead of building a fresh one — the session engine
            keeps one kernel per schedule across segments.  Must have been
            built (via :meth:`make_kernel`) for this *schedule*, and every
            change made to the schedule since its last run must have been
            reported through its ``note_*`` hooks.  A ledgered
            configuration refuses a columnar kernel.
        """
        cfg = self.config
        if schedule is None:
            schedule = Schedule(scenario)
        elif schedule.scenario is not scenario:
            raise ValueError("schedule was built for a different scenario")
        if kernel is None:
            kernel = self.make_kernel(schedule)
        elif kernel.schedule is not schedule:
            raise ValueError("kernel was built for a different schedule")
        elif cfg.ledger and kernel.mode != "rebuild":
            raise ValueError("a ledgered map needs a rebuild kernel")
        if tracer is not None:
            schedule.tracer = tracer
        tracer = schedule.tracer
        if tracer.enabled and tracer.perf is None:
            tracer.perf = schedule.perf
        clock = SimulationClock(
            delta_t_cycles=cfg.delta_t_cycles,
            horizon_cycles=cfg.horizon_cycles,
            cycle=start_cycle,
        )
        trace = MappingTrace(ledger=DecisionLedger() if cfg.ledger else None)
        # Safety cap on heuristic invocations: every tick to τ, plus two.
        max_ticks = int(math.ceil(scenario.tau / clock.delta_t_seconds)) + 2

        stopwatch = Stopwatch()
        tracing = tracer.enabled
        with stopwatch, (
            tracer.span("map", heuristic=self.name, scenario=scenario.name)
            if tracing
            else NULL_SPAN
        ):
            kernel.run(
                self.policy, clock, trace, max_ticks=max_ticks, stop_cycle=stop_cycle
            )
        if (
            trace.ledger is not None
            and not schedule.is_complete
            and stop_cycle is None
            and clock.exceeded(scenario.tau)
        ):
            # The run is incomplete because the clock passed τ: record the
            # terminal verdict for every task left behind.
            for task in range(scenario.n_tasks):
                if task not in schedule.assignments:
                    trace.ledger.reject(
                        clock=clock.now,
                        task=task,
                        machine=-1,
                        reason=DEADLINE_INFEASIBLE,
                        margin=clock.now - scenario.tau,
                        detail=(
                            f"clock {clock.now:.6g}s passed tau "
                            f"{scenario.tau:.6g}s with the task unmapped"
                        ),
                    )
        return MappingResult.finish(
            schedule, trace, stopwatch.elapsed, self.name, cfg.weights
        )


class SLRH1(SlrhScheduler):
    """Variant 1 — one assignment per available machine per tick (§V)."""

    name = "SLRH-1"
    policy = TickPolicy(max_commits=1, refresh="none")


class SLRH2(SlrhScheduler):
    """Variant 2 — drain one stale pool per machine per tick (§V).

    The pool is built once; assignments continue (re-planning start times,
    but *not* re-evaluating versions or ordering) until the pool is
    exhausted or nothing further can start within the horizon.  The paper
    found this variant rarely maps all 1024 subtasks.
    """

    name = "SLRH-2"
    policy = TickPolicy(max_commits=None, refresh="replan")


class SLRH3(SlrhScheduler):
    """Variant 3 — rebuild and re-evaluate U after every assignment (§V).

    Children of a just-mapped subtask enter the pool immediately, so one
    machine can chew through an entire dependency chain within a single
    tick, provided each link starts within the horizon.
    """

    name = "SLRH-3"
    policy = TickPolicy(max_commits=None, refresh="rebuild")


#: Registry used by experiment drivers and the CLI examples.
SLRH_VARIANTS: dict[str, type[SlrhScheduler]] = {
    "SLRH-1": SLRH1,
    "SLRH-2": SLRH2,
    "SLRH-3": SLRH3,
}
