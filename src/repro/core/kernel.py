"""The scheduling kernel: one event-driven core under every heuristic.

Every mapper in this codebase used to carry its own copy of the outer
loop — the SLRH variants each re-implemented the per-tick machine scan,
and the static baselines their round loop.  :class:`SchedulingKernel`
now owns that spine: the clock advance, the machine scan order, the
per-machine serve loop (:meth:`run`) for the clock-driven SLRH family,
and the clockless round loop (:meth:`run_static`) for the static
baselines.  The SLRH variants collapse into :class:`TickPolicy` values
answering "how many commits per machine per tick, and do we re-score
between commits".

Candidate pools
---------------
The paper's loop (§IV) rebuilds the candidate pool U from scratch for
every (tick, machine).  Profiling shows most ticks are stalls: nothing
became eligible, nothing changed, yet every ready task is re-planned and
re-scored.  The default ``columnar`` mode instead keeps one
delta-maintained pool (:class:`repro.core.columnar.ColumnarPool`) and
re-plans only entries dirtied by an **event**:

* a commit — touches the target machine's execution/in-channel calendars
  and energy, every sending machine's out-channel and energy, and the
  parents' machines' reserves (tracked by per-machine touch counters);
* a parent assignment changing (the schedule's per-task parent epoch);
* the tick moving ``not_before`` — an entry survives the clock advance
  only when its certificates prove a fresh plan would be byte-identical
  (its data-ready floor dominates both clocks and every planned transfer
  starts at/after the new clock);
* churn between runs — the caller reports it: a rejoin through
  :meth:`SchedulingKernel.note_rejoin`, an arrival through
  :meth:`SchedulingKernel.note_arrival`, and a machine loss (offline
  flip, rollbacks, external debits) through
  :meth:`SchedulingKernel.note_disturbance`, which drops every entry
  (:meth:`ColumnarPool.invalidate_all`).  A fresh kernel starts empty.

Clean entries are *reused*: their plans verbatim, their scores too when
the global aggregates (T100, TEC, AET) are unchanged, or re-scored with
the exact arithmetic of a fresh evaluation when a commit moved them
(float ordering is preserved by recomputing, never by adjusting).  The
``pool.reuse_hits`` / ``pool.invalidations`` perf counters expose the
delta rate.

On top of per-entry reuse the kernel sleeps whole machines: when a serve
commits nothing, every pool member was outside the receding horizon, and
absent events (which wake all machines) the pool can only change when the
horizon reaches the earliest data-ready time or an unreleased task
arrives — both computable, so the machine sleeps until that tick and the
stall ticks in between cost an availability check instead of a pool
build.  Data-ready times are nondecreasing in the planning clock (gap
searches are monotone in their lower bound), so a sleep can only ever be
*conservative* — waking early is harmless, and the serve that follows
re-derives eligibility from scratch.  :meth:`SchedulingKernel.run` also
fast-forwards runs of stall ticks (every machine unavailable or asleep)
in one tight loop — traced or not: the schedule's tracer
(:attr:`~repro.sim.schedule.Schedule.tracer`) sees each run as one
``kernel.stall`` span, so a traced run is the production run.

The differential oracle
-----------------------
``REPRO_KERNEL=rebuild`` (or ``SlrhConfig(kernel="rebuild")``) runs the
paper's loop as written: a from-scratch pool per (tick, machine), every
tentative plan computed afresh.  Mappings are byte-identical across the
two modes for every heuristic (pinned by ``tests/test_kernel.py`` and the
``kernel-differential`` CI job).  The decision ledger records per-tick
rejection history that only exists when pools are actually rebuilt, so
ledgered runs always use the rebuild path (``SlrhScheduler.map`` refuses
anything else) — the ledger never changes the mapping, and the hot path
never pays for it.

The static plan memo
--------------------
Max-Max and Min-Min re-price every ready (task, machine) pair in every
round, and a round commits exactly one plan.  In ``columnar`` mode (the
``rebuild`` oracle plans afresh) :meth:`SchedulingKernel.run_static`
therefore keeps one memo of hole-insertion plan pairs, keyed by (task,
machine), for the duration of the call, read through
:meth:`SchedulingKernel.static_plans`.  A static run only ever
*commits* — nothing is released, unassigned, re-timed or taken offline —
so calendars only gain reservations, and a memoised pair whose comm and
exec slots are all still free is exactly what a fresh search returns: a
gap search returns the earliest fit, and added busy time cannot open an
earlier one.  Each lookup also re-checks both versions' energy verdicts
against their stored demands (an infeasible version additionally pins
the budgets its reason text quotes; any change re-plans), and a
committed task's entries are dropped.

Every static mapper ends the same way: :meth:`SchedulingKernel.run_static`
notes one tick per round and one trace record per commit, and
:meth:`MappingResult.finish <repro.core.slrh.MappingResult.finish>` —
shared with the SLRH family and the non-kernel baselines — counts the run
and snapshots the perf registry onto the trace.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Callable

from repro.core.columnar import ColumnarPool
from repro.core.constants import BUDGET_TOLERANCE, EPSILON
from repro.core.feasibility import FeasibilityChecker
from repro.core.objective import ObjectiveFunction
from repro.core.pool import Candidate, build_candidate_pool
from repro.obs.ledger import ENERGY_INFEASIBLE, LOST_ON_SCORE, OUTSIDE_HORIZON
from repro.obs.spans import NULL_SPAN
from repro.sim.clock import SimulationClock
from repro.sim.schedule import ExecutionPlan, Schedule
from repro.sim.trace import MappingTrace

__all__ = [
    "ColumnarPool",
    "KERNEL_MODES",
    "SchedulingKernel",
    "TickPolicy",
    "resolve_kernel_mode",
]

#: The kernel modes: ``columnar`` (delta-maintained flat-array pools, the
#: default) and ``rebuild`` (from-scratch pools — the differential oracle).
KERNEL_MODES = ("columnar", "rebuild")


def resolve_kernel_mode(override: str | None = None, *, ledger: bool = False) -> str:
    """The kernel mode to run: *override* if given, else ``$REPRO_KERNEL``,
    else ``columnar`` (case and surrounding blanks ignored).  A decision
    ledger forces ``rebuild`` — its per-tick rejection records only exist
    when pools are actually rebuilt (recording never changes the mapping
    either way).
    """
    if ledger:
        return "rebuild"
    mode = override if override is not None else os.environ.get("REPRO_KERNEL", "")
    mode = str(mode).strip().lower() or "columnar"
    if mode in KERNEL_MODES:
        return mode
    raise ValueError(
        f"unknown kernel mode {mode!r}; expected one of {', '.join(KERNEL_MODES)}"
    )


@dataclass(frozen=True)
class TickPolicy:
    """What an SLRH variant does within one (tick, machine) serve.

    ``max_commits`` caps assignments per machine per tick (``None`` =
    unlimited); ``refresh`` says what happens to the pool between commits:
    ``"none"`` stops after the cap, ``"replan"`` keeps draining the *same*
    stale pool (start times re-planned, scores and ordering not — SLRH-2),
    ``"rebuild"`` re-derives the pool after every commit (SLRH-3).
    """

    max_commits: int | None
    refresh: str  # "none" | "replan" | "rebuild"

    def __post_init__(self) -> None:
        if self.refresh not in ("none", "replan", "rebuild"):
            raise ValueError(f"unknown refresh policy {self.refresh!r}")
        if self.max_commits is not None and self.max_commits < 1:
            raise ValueError("max_commits must be >= 1 (or None)")


class _MemoEntry:
    """One static-memo slot: a plan pair plus the facts that prove it is
    still what a fresh search would return (see the module docstring)."""

    __slots__ = (
        "pair", "demands", "pins", "exec_version", "in_version", "out_versions",
    )

    def __init__(
        self,
        schedule: Schedule,
        machine: int,
        pair: tuple[ExecutionPlan, ExecutionPlan],
        demands: tuple[dict[int, float] | None, dict[int, float] | None],
    ) -> None:
        self.pair = pair
        d0, d1 = demands
        # Offline plans are dead whatever the budgets: no demands to check.
        self.demands = None if d0 is None or d1 is None else (d0, d1)
        # Per version: None for a feasible plan, else the (machine,
        # available, reserved) budgets an infeasible plan's reason quotes.
        self.pins: list[tuple[tuple[int, float, float], ...] | None] = [
            None
            if plan.feasible or demand is None
            else tuple(
                (j, schedule.available_energy(j), schedule.reserved_energy(j))
                for j in demand
            )
            for plan, demand in zip(pair, demands)
        ]
        self.exec_version = schedule.exec_timeline[machine].version
        self.in_version = schedule.in_channel[machine].version
        self.out_versions = tuple(
            schedule.out_channel[c.src].version for c in pair[0].comms
        )


class SchedulingKernel:
    """The shared scheduling core (see module docstring).

    One kernel serves one :class:`~repro.sim.schedule.Schedule`; the
    session engine keeps a kernel alive across segments and reports every
    change it makes to the schedule in between through the ``note_*``
    hooks.
    """

    def __init__(
        self,
        schedule: Schedule,
        checker: FeasibilityChecker | None,
        objective: ObjectiveFunction | None,
        *,
        mode: str = "columnar",
        machine_order: str = "index",
        decision_latency_seconds: float = 0.0,
    ) -> None:
        if mode not in KERNEL_MODES:
            raise ValueError(f"unknown kernel mode {mode!r}")
        if machine_order not in ("index", "battery", "round_robin"):
            raise ValueError(f"unknown machine_order {machine_order!r}")
        self.schedule = schedule
        self.checker = checker
        self.objective = objective
        self.mode = mode
        self.machine_order = machine_order
        self.latency = decision_latency_seconds
        n_machines = schedule.scenario.n_machines
        # The index-order scan list is immutable and shared across ticks
        # (round-robin rotates it, battery re-sorts it per tick).
        self._order = list(range(n_machines))
        self.pool = (
            ColumnarPool(schedule, checker, objective)
            if checker is not None and objective is not None and mode == "columnar"
            else None
        )
        # The static plan memo (see module docstring): task -> machine ->
        # _MemoEntry, alive only inside run_static.
        self._memo: dict[int, dict[int, _MemoEntry]] | None = None
        # Per-machine sleep state, stored as the *raw* event times the last
        # serve observed (earliest unreleased-task release, earliest pool
        # data-ready) rather than a precomputed wake tick: the asleep test
        # then evaluates the release gate and the horizon rule with exactly
        # the arithmetic the serve itself would use, so a machine can never
        # wake an event early (or late) to float rounding.  -inf = must
        # serve (every event resets both to -inf); +inf = unconstrained.
        self._wake_release = [-math.inf] * n_machines
        self._wake_ready = [-math.inf] * n_machines

    # -- clock-driven mode (the SLRH family) --------------------------------

    def _scan_order(self, tick_index: int) -> list[int]:
        if self.machine_order == "battery":
            schedule = self.schedule
            return sorted(
                self._order, key=lambda j: (-schedule.available_energy(j), j)
            )
        if self.machine_order == "round_robin":
            offset = tick_index % len(self._order)
            return self._order[offset:] + self._order[:offset]
        return self._order

    def _wake_all(self) -> None:
        wake_release = self._wake_release
        wake_ready = self._wake_ready
        for j in range(len(wake_release)):
            wake_release[j] = -math.inf
            wake_ready[j] = -math.inf

    def _asleep(self, j: int, clock: SimulationClock) -> bool:
        """Whether machine *j* provably has nothing startable at *clock*:
        its earliest unreleased task still fails the pool's release gate
        AND its earliest data-ready time is still past the horizon — the
        same comparisons, with the same tolerance, the serve would make."""
        return (
            self._wake_release[j] > (clock.now + self.latency) + EPSILON
            and self._wake_ready[j] > clock.horizon_end + EPSILON
        )

    # -- precise event deltas (streaming sessions) --------------------------
    #
    # A caller that mutates the schedule between runs reports each change
    # through one of these hooks before the next run; the pool keeps every
    # entry the event provably did not touch — mappings stay byte-identical
    # to the rebuild oracle (pinned by tests/test_session.py), only the
    # reuse rate moves.

    def note_arrival(self, task: int) -> None:
        """A streamed task arrival: its release moved, nothing else did.
        Existing entries never read another task's release, so the pool
        keeps them; sleeping machines must re-check their release gates."""
        if self.pool is not None:
            self.pool.note_release(task)
            self._wake_all()

    def note_rejoin(self, machine: int) -> None:
        """A lost machine rejoined: fresh touch epoch for it (see
        ``note_machine_return``), and everyone wakes to reconsider it."""
        if self.pool is not None:
            self.pool.note_machine_return(machine)
            self._wake_all()

    def note_disturbance(self) -> None:
        """An event with no precise delta (machine loss: rollbacks,
        offline flip, external debits) — the big hammer."""
        if self.pool is not None:
            self.pool.invalidate_all()
            self._wake_all()

    def run(
        self,
        policy: TickPolicy,
        clock: SimulationClock,
        trace: MappingTrace,
        *,
        max_ticks: int,
        stop_cycle: int | None = None,
    ) -> None:
        """Drive the clock loop until completion, τ, *stop_cycle* or the
        tick cap — mutating *clock*, the schedule and *trace* in place."""
        schedule = self.schedule
        scenario = schedule.scenario
        tracer = schedule.tracer
        tracing = tracer.enabled
        # Stall ticks (every machine unavailable or asleep) mutate nothing
        # but the clock and three trace counters, so the columnar mode
        # consumes them in a tight arithmetic loop instead of the full
        # scan machinery, traced or not; the loop evaluates the exact same
        # availability/sleep predicates per tick, so counters and mappings
        # are byte-identical.
        fast = self.pool is not None
        tick_index = 0
        while tick_index < max_ticks:
            if stop_cycle is not None and clock.cycle >= stop_cycle:
                break
            if fast:
                if tracing:
                    stall_clock, started = clock.now, time.perf_counter()
                consumed, stop = self._fast_forward(
                    clock, trace, max_ticks - tick_index, stop_cycle, scenario.tau
                )
                if consumed:
                    if tracing:
                        tracer.complete("kernel.stall", started, time.perf_counter(),
                                        ticks=consumed, tick=tick_index, clock=stall_clock)
                    tick_index += consumed
                    if stop:
                        break
                    continue
            trace.note_tick()
            tick_span = (
                tracer.span("kernel.tick", tick=tick_index, clock=clock.now)
                if tracing
                else NULL_SPAN
            )
            with tick_span:
                for j in self._scan_order(tick_index):
                    trace.note_machine_scan()
                    if not schedule.machine_available(j, clock.now):
                        continue
                    if self.pool is not None and self._asleep(j, clock):
                        # Asleep: the last serve proved nothing can start
                        # before the stored event times absent events, and
                        # any event would have reset them.  A from-scratch
                        # serve here would commit nothing — count the stall
                        # exactly as the rebuild path does.
                        trace.note_empty_pool()
                        continue
                    made = self._serve_machine(j, policy, clock, trace)
                    if made == 0:
                        trace.note_empty_pool()
                    if schedule.is_complete:
                        break
            if schedule.is_complete:
                break
            clock.tick()
            tick_index += 1
            if clock.exceeded(scenario.tau):
                break

    def _fast_forward(
        self,
        clock: SimulationClock,
        trace: MappingTrace,
        budget: int,
        stop_cycle: int | None,
        tau: float,
    ) -> tuple[int, bool]:
        """Consume consecutive stall ticks — ticks where every machine is
        either unavailable or asleep — in one tight loop; returns (ticks
        consumed, whether the run must stop).  Mirrors the main loop
        exactly: per consumed tick it advances the clock once and accounts
        one tick, one scan per machine, and one empty-pool stall per
        available (asleep) machine.  Nothing else can change during a
        stall: commits are the only in-run mutations, and a stall tick by
        definition commits nothing.
        """
        schedule = self.schedule
        offline = schedule.offline
        latency = self.latency
        wake_release = self._wake_release
        wake_ready = self._wake_ready
        n_machines = len(wake_release)
        # Hoisted availability facts: a machine is unavailable while its
        # last committed execution ends after the clock (timeline rule);
        # calendars cannot move during a stall.  Offline machines never
        # contribute either way, so the scan list drops them up front.
        mach = [
            (tl.last_busy_end(), wake_release[j], wake_ready[j])
            for j, tl in enumerate(schedule.exec_timeline)
            if j not in offline
        ]
        # Inlined SimulationClock arithmetic — now / horizon_end / tick /
        # exceeded are affine in the cycle counter; evaluating the same
        # expressions on hoisted fields keeps every float identical while
        # dropping five attribute/property calls per stall tick.
        cycle = clock.cycle
        dt = clock.delta_t_cycles
        cs = clock.cycle_seconds
        hc = clock.horizon_cycles
        consumed = 0
        empty_total = 0
        stop = False
        while consumed < budget:
            if stop_cycle is not None and cycle >= stop_cycle:
                break
            now = cycle * cs
            gate = (now + latency) + EPSILON
            horizon = (cycle + hc) * cs + EPSILON
            now_eps = now + EPSILON
            empty = 0
            stalled = True
            for busy_end_j, wr_j, wd_j in mach:
                if busy_end_j > now_eps:
                    continue
                if wr_j > gate and wd_j > horizon:
                    empty += 1
                    continue
                stalled = False
                break
            if not stalled:
                break
            consumed += 1
            empty_total += empty
            cycle += dt
            if cycle * cs > tau + 1e-9:
                stop = True
                break
        clock.cycle = cycle
        if consumed:
            trace.ticks += consumed
            trace.machine_scans += consumed * n_machines
            trace.empty_pool_ticks += empty_total
        return consumed, stop

    def _build_pool(
        self, machine: int, not_before: float, trace: MappingTrace
    ) -> tuple[list[Candidate], float | None]:
        if self.pool is None:
            return (
                build_candidate_pool(
                    self.schedule,
                    self.checker,
                    self.objective,
                    machine,
                    not_before=not_before,
                    ledger=trace.ledger,
                ),
                None,
            )
        return self.pool.pool_for(machine, not_before)

    def _serve_machine(
        self,
        machine: int,
        policy: TickPolicy,
        clock: SimulationClock,
        trace: MappingTrace,
    ) -> int:
        """One (tick, machine) serve under *policy*; returns commits made."""
        schedule = self.schedule
        not_before = clock.now + self.latency
        made = 0
        pool, min_release = self._build_pool(machine, not_before, trace)
        while pool:
            replan = made > 0 and policy.refresh == "replan"
            if not self._commit_first_startable(pool, clock, trace, replan=replan):
                break
            made += 1
            if schedule.is_complete:
                break
            if policy.max_commits is not None and made >= policy.max_commits:
                break
            if policy.refresh == "rebuild":
                pool, min_release = self._build_pool(machine, not_before, trace)
            elif policy.refresh == "none":
                break
        if made == 0 and self.pool is not None:
            # Nothing started: every pool member's data-ready time is past
            # the horizon, and data-ready times only grow with the clock.
            # Absent events the machine cannot commit before the horizon
            # reaches the earliest of them (or an unreleased ready task
            # arrives) — store the raw event times and sleep until either
            # gate opens.  (An earlier version precomputed a wake *tick* by
            # subtracting the latency and the gate epsilon; the extra
            # subtractions could round below the true gate threshold and
            # wake the machine one event early, burning a pool build on a
            # tick where the release gate was still closed — pinned by
            # tests/test_kernel.py::TestSleepGate.)
            self._wake_release[machine] = (
                min_release if min_release is not None else math.inf
            )
            ready = math.inf
            for candidate in pool:
                at = candidate.plan.data_ready
                if at < ready:
                    ready = at
            self._wake_ready[machine] = ready
        return made

    def _commit_first_startable(
        self,
        pool: list[Candidate],
        clock: SimulationClock,
        trace: MappingTrace,
        replan: bool = False,
    ) -> bool:
        """Walk the ordered pool; commit the first candidate whose start
        falls inside the horizon.  With *replan*, each candidate's plan is
        recomputed first (SLRH-2's stale-pool walk).

        When the trace carries a decision ledger, every pool member that
        does *not* win this walk is recorded: horizon misses with their
        overshoot, replan infeasibilities, and — once a winner commits —
        the rest of the pool as ``lost_on_score`` against it (this is the
        per-tick "machine rejected" record the ``explain`` CLI surfaces).
        """
        schedule = self.schedule
        objective = self.objective
        ledger = trace.ledger
        # The columnar pool carries a fused single-version replan that is
        # byte-identical for every committable plan but skips the reason
        # strings of dead ones — usable exactly when no ledger listens.
        fused_replan = (
            self.pool.replan
            if replan and ledger is None and self.pool is not None
            else None
        )
        for index, candidate in enumerate(pool):
            plan = candidate.plan
            if replan:
                if schedule.is_mapped(candidate.task):
                    continue
                if fused_replan is not None:
                    plan = fused_replan(
                        candidate.task,
                        candidate.version,
                        plan.machine,
                        clock.now + self.latency,
                    )
                else:
                    plan = schedule.plan(
                        candidate.task,
                        candidate.version,
                        plan.machine,
                        not_before=clock.now + self.latency,
                    )
                if not plan.feasible:
                    if ledger is not None:
                        ledger.reject(
                            clock=clock.now,
                            task=candidate.task,
                            machine=plan.machine,
                            version=plan.version.value,
                            reason=ENERGY_INFEASIBLE,
                            detail=f"stale-pool replan: {plan.reason}",
                        )
                    continue
            # §IV: horizon eligibility is judged on the "earliest possible
            # starting time ... given precedence and communication
            # requirements" — the machine's own queue does not disqualify a
            # candidate.  (For SLRH-1 the target machine is idle, so the two
            # notions coincide; for SLRH-2/3 this is what lets one machine
            # take several assignments in a single tick.)
            if not clock.within_horizon(plan.data_ready):
                if ledger is not None:
                    ledger.reject(
                        clock=clock.now,
                        task=candidate.task,
                        machine=plan.machine,
                        version=plan.version.value,
                        reason=OUTSIDE_HORIZON,
                        margin=plan.data_ready - clock.horizon_end,
                        score=candidate.score,
                        detail=(
                            f"data ready {plan.data_ready:.6g}s is past the "
                            f"horizon end {clock.horizon_end:.6g}s"
                        ),
                    )
                continue
            tracer = schedule.tracer
            span = (
                tracer.span(
                    "commit",
                    task=plan.task,
                    machine=plan.machine,
                    version=plan.version.value,
                )
                if tracer.enabled
                else NULL_SPAN
            )
            with span:
                schedule.commit(plan)
                trace.record_commit(
                    clock=clock.now,
                    plan=plan,
                    objective=objective.of_schedule(schedule),
                    pool_size=len(pool),
                    t100=schedule.t100,
                    tec=schedule.total_energy_consumed,
                    aet=schedule.makespan,
                )
            if self.pool is not None:
                self.pool.note_commit(plan)
                # A commit moves aggregates, energy and the ready set —
                # every machine must be (re)considered from here on.
                self._wake_all()
            if ledger is not None:
                # Everyone below the winner lost this machine this walk.
                for loser in pool[index + 1:]:
                    if schedule.is_mapped(loser.task):
                        continue
                    ledger.reject(
                        clock=clock.now,
                        task=loser.task,
                        machine=loser.plan.machine,
                        version=loser.version.value,
                        reason=LOST_ON_SCORE,
                        margin=candidate.score - loser.score,
                        score=loser.score,
                        winner=candidate.task,
                        detail=(
                            f"task {candidate.task} won machine "
                            f"{loser.plan.machine} ({candidate.score:.6g} vs "
                            f"{loser.score:.6g})"
                        ),
                    )
            return True
        return False

    # -- clockless mode (the static baselines) ------------------------------

    def static_plans(
        self, task: int, machine: int
    ) -> tuple[ExecutionPlan, ExecutionPlan]:
        """The (primary, secondary) hole-insertion plan pair for *task* on
        *machine* at clock 0 — :meth:`Schedule.plan_versions` semantics,
        served from the static plan memo while a ``columnar``
        :meth:`run_static` runs (see the module docstring) and computed
        afresh otherwise."""
        schedule = self.schedule
        memo = self._memo
        if memo is None:
            return schedule.plan_versions(task, machine, 0.0, True)
        per_task = memo.get(task)
        if per_task is None:
            per_task = memo[task] = {}
        entry = per_task.get(machine)
        if entry is not None and self._memo_valid(entry, machine):
            return entry.pair
        pair, demands = schedule._plan_pair(task, machine, 0.0, True)
        per_task[machine] = _MemoEntry(schedule, machine, pair, demands)
        return pair

    def _memo_valid(self, entry: _MemoEntry, machine: int) -> bool:
        """Whether *entry* is still exactly what a fresh search returns.
        Calendars only gain reservations during a static run, so a slot
        still free is still the earliest fit; timeline versions skip the
        freeness test on calendars nothing touched."""
        schedule = self.schedule
        pair = entry.pair
        exec_tl = schedule.exec_timeline[machine]
        if exec_tl.version != entry.exec_version:
            # Dead plans carry no placement.
            for plan in pair:
                if plan.feasible and not exec_tl.is_free(plan.start, plan.finish):
                    return False
            entry.exec_version = exec_tl.version
        comms = pair[0].comms
        if comms:
            in_tl = schedule.in_channel[machine]
            if in_tl.version != entry.in_version:
                for c in comms:
                    if not in_tl.is_free(c.start, c.finish):
                        return False
                entry.in_version = in_tl.version
            out_channel = schedule.out_channel
            stale = False
            for c, version in zip(comms, entry.out_versions):
                out_tl = out_channel[c.src]
                if out_tl.version != version:
                    if not out_tl.is_free(c.start, c.finish):
                        return False
                    stale = True
            if stale:
                entry.out_versions = tuple(
                    out_channel[c.src].version for c in comms
                )
        demands = entry.demands
        if demands is not None:
            available = schedule.available_energy
            for demand, pins in zip(demands, entry.pins):
                if pins is None:
                    for j, amount in demand.items():
                        budget = available(j)
                        if amount > budget * (1 + BUDGET_TOLERANCE) + BUDGET_TOLERANCE:
                            return False
                else:
                    for j, avail, reserved in pins:
                        if (
                            available(j) != avail
                            or schedule.reserved_energy(j) != reserved
                        ):
                            return False
        return True

    def run_static(
        self,
        select: Callable[[], tuple[ExecutionPlan | None, int]],
        trace: MappingTrace,
    ) -> None:
        """Drive a static (clockless) heuristic's round loop.

        *select* is a zero-argument callable returning ``(plan, pool_size)``
        — the round's winning plan (``None`` stops the loop) and the
        candidate count to stamp on the trace record.  The kernel owns the
        loop, the commit, the trace bookkeeping — every round is a tick,
        an empty round an empty pool, and every commit one trace record
        scored under the kernel's objective — and, in ``columnar`` mode,
        the static plan memo *select* may read through
        :meth:`static_plans`; the heuristic owns only its selection rule.
        """
        schedule = self.schedule
        objective = self.objective
        if objective is None:
            raise ValueError("run_static scores its trace records: pass an objective")
        # Columnar only: the rebuild oracle plans every lookup afresh.
        self._memo = {} if self.mode == "columnar" else None
        memo = self._memo
        try:
            while not schedule.is_complete:
                trace.note_tick()
                plan, pool_size = select()
                if plan is None:
                    trace.note_empty_pool()
                    break
                schedule.commit(plan)
                if memo is not None:
                    memo.pop(plan.task, None)
                trace.record_commit(
                    clock=0.0,
                    plan=plan,
                    objective=objective.of_schedule(schedule),
                    pool_size=pool_size,
                    t100=schedule.t100,
                    tec=schedule.total_energy_consumed,
                    aet=schedule.makespan,
                )
        finally:
            self._memo = None
