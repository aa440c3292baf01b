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

The static slot store
---------------------
Max-Max and Min-Min re-price every ready (task, machine) pair in every
round, and a round commits exactly one plan.
:meth:`SchedulingKernel.run_static` therefore keeps one
:class:`StaticSlots` store for the duration of the call, read through
:attr:`SchedulingKernel.slots`: flat per-(task, machine) columns with the
comm plan and its data-ready time, and per version the energy demand and
the exec start.  A static run only ever *commits* — nothing is released,
unassigned, re-timed or taken offline, and a ready task's parents never
change — so calendars only gain reservations, and a gap search's earliest
fit that is still free is exactly what a fresh search returns (added busy
time cannot open an earlier one).  Each part has its own certificate and a
failed one re-runs only its own search:

* comm slots — a planned transfer's slot no longer free on the sender's
  out-channel or the target's in-channel plans the transfers again
  (``Schedule._plan_comms_floor``, the only event ``plan.pairs`` counts);
* exec slot — a feasible version's slot no longer free runs one gap
  search from the stored data-ready time;
* energy verdict — recomputed at every lookup from the stored demand
  (fixed while the task is ready) against per-machine budgets hoisted
  once per round.

Timeline ``version`` counters skip the freeness tests on calendars
nothing touched.  Only the plan a round commits becomes an
:class:`~repro.sim.schedule.ExecutionPlan`, and a committed task's slots
are dropped.  Under ``rebuild`` every lookup plans the pair afresh
(``Schedule._plan_pair``), so the kernel-mode differential covers both
baselines.

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
from repro.sim.schedule import ExecutionPlan, PlannedComm, Schedule
from repro.sim.trace import MappingTrace
from repro.workload.versions import Version

__all__ = [
    "ColumnarPool",
    "KERNEL_MODES",
    "SchedulingKernel",
    "StaticSlots",
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


class StaticSlots:
    """The static round loop's slot store (see the module docstring).

    One slot per (task, machine), index ``task * n_machines + machine``,
    in flat columns: the comm plan and its data-ready time, and per
    version the energy demand, the TEC delta, the exec start and finish
    and the current energy verdict.  :meth:`lookup` brings a slot
    up to date through three certificates, each re-running only its own
    search; callers then read :attr:`feasible`, :attr:`finish` and
    :attr:`delta` at the returned index, and :meth:`plan` builds the
    :class:`~repro.sim.schedule.ExecutionPlan` of the slot a round
    commits.  With *fresh* (the ``rebuild`` kernel) every lookup plans
    the pair afresh through ``Schedule._plan_pair`` instead.
    """

    def __init__(self, schedule: Schedule, *, fresh: bool) -> None:
        self._schedule = schedule
        self._fresh = fresh
        n_machines = schedule.scenario.n_machines
        self._n_machines = n_machines
        size = schedule.scenario.n_tasks * n_machines
        none: list = [None] * size
        zeros = [0.0] * size
        stamps = [-1] * size
        # Comm plan (None: not planned since the task became ready), its
        # data-ready time and the channel versions its slots were last
        # proved free at (target in-channel; summed sender out-channels —
        # versions only grow, so an equal sum means none moved).
        self._comms: list[tuple[PlannedComm, ...] | None] = list(none)
        self._ready = list(zeros)
        self._in_stamp = list(stamps)
        self._out_stamp = list(stamps)
        # Per version: net per-machine energy demand (None: a machine
        # involved is offline), exec start (None: not searched since the
        # data-ready time last moved) and the exec-calendar version it was
        # last proved free at.
        self._demand: tuple[list[dict[int, float] | None], ...] = (list(none), list(none))
        self._start: tuple[list[float | None], ...] = (list(none), list(none))
        self._exec_stamp = (list(stamps), list(stamps))
        #: Per version, read at a looked-up index: the energy verdict
        #: against this round's budgets, the finish time (meaningful only
        #: where feasible) and the TEC delta (``ExecutionPlan.energy_delta``).
        self.feasible: tuple[list[bool], ...] = ([False] * size, [False] * size)
        self.finish: tuple[list[float], ...] = (list(zeros), list(zeros))
        self.delta: tuple[list[float], ...] = (list(zeros), list(zeros))
        #: Per-machine energy threshold of this round: a demand fits when it
        #: is at most ``available_energy(j) * (1 + BUDGET_TOLERANCE) +
        #: BUDGET_TOLERANCE`` (``Schedule._demand_shortfall``'s arithmetic;
        #: Max-Max's rule (b) compares against it too).
        self.budget: list[float] = [0.0] * n_machines
        self._exec_ver = [0] * n_machines
        self._in_ver = [0] * n_machines
        self._out_ver = [0] * n_machines

    def begin_round(self) -> None:
        """Hoist this round's budgets and calendar versions: nothing
        mutates the schedule between a round's first lookup and its
        commit."""
        schedule = self._schedule
        available = schedule.available_energy
        self.budget = [
            available(j) * (1 + BUDGET_TOLERANCE) + BUDGET_TOLERANCE
            for j in range(self._n_machines)
        ]
        self._exec_ver = [tl.version for tl in schedule.exec_timeline]
        self._in_ver = [tl.version for tl in schedule.in_channel]
        self._out_ver = [tl.version for tl in schedule.out_channel]

    def lookup(self, task: int, machine: int, *, first_feasible: bool = False) -> int:
        """Bring (*task*, *machine*)'s slot up to date and return its
        index.  Every feasible version gets its exec start, or with
        *first_feasible* only the first one (the primary when affordable,
        else the secondary — the one Min-Min reads)."""
        idx = task * self._n_machines + machine
        if self._fresh:
            self._plan_fresh(idx, task, machine)
            return idx
        schedule = self._schedule
        comms = self._comms[idx]
        if comms is None:
            self._plan_comms(idx, task, machine)
        elif comms:
            # Comm slots: every planned transfer still free on both ends.
            in_ver = self._in_ver[machine]
            out_ver = self._out_ver
            out_sum = 0
            for c in comms:
                out_sum += out_ver[c.src]
            if in_ver != self._in_stamp[idx] or out_sum != self._out_stamp[idx]:
                in_tl = schedule.in_channel[machine]
                out_channel = schedule.out_channel
                for c in comms:
                    if not (
                        in_tl.is_free(c.start, c.finish)
                        and out_channel[c.src].is_free(c.start, c.finish)
                    ):
                        self._plan_comms(idx, task, machine)
                        break
                else:
                    self._in_stamp[idx] = in_ver
                    self._out_stamp[idx] = out_sum
        budget = self.budget
        feasible = self.feasible
        for vi in (0, 1):
            # Energy verdict: the stored demand against this round's budgets.
            demand = self._demand[vi][idx]
            ok = False
            if demand is not None:
                ok = True
                for j, amount in demand.items():
                    if amount > budget[j]:
                        ok = False
                        break
            feasible[vi][idx] = ok
        exec_ver = self._exec_ver[machine]
        for vi in (0, 1):
            if not feasible[vi][idx]:
                continue
            # Exec slot: a stored start still free is still the earliest fit.
            starts = self._start[vi]
            stamps = self._exec_stamp[vi]
            start = starts[idx]
            if start is None or (
                stamps[idx] != exec_ver
                and not schedule.exec_timeline[machine].is_free(
                    start, self.finish[vi][idx]
                )
            ):
                duration = schedule.exec_facts(task, machine)[vi][0]
                start = starts[idx] = schedule.exec_timeline[machine].earliest_gap(
                    duration, self._ready[idx]
                )
                self.finish[vi][idx] = start + duration
            stamps[idx] = exec_ver
            if first_feasible:
                break
        return idx

    def _plan_comms(self, idx: int, task: int, machine: int) -> None:
        """Comm-slot miss (or a first lookup): plan the transfers again.
        Exec starts survive when the data-ready time did not move.  The
        demands and TEC deltas need no re-pricing: a re-planned transfer
        keeps its sender, size and so its energy (only its slot moved)."""
        schedule = self._schedule
        schedule.perf.inc("plan.pairs")
        comms, dr_floor = schedule._plan_comms_floor(task, machine, 0.0)
        ready = max(0.0, dr_floor)
        first = self._comms[idx] is None
        if first or ready != self._ready[idx]:
            self._start[0][idx] = self._start[1][idx] = None
        self._comms[idx] = comms
        self._ready[idx] = ready
        self._in_stamp[idx] = self._in_ver[machine]
        out_ver = self._out_ver
        out_sum = 0
        for c in comms:
            out_sum += out_ver[c.src]
        self._out_stamp[idx] = out_sum
        if not first:
            return
        offline = schedule.offline
        dead = machine in offline or any(c.src in offline for c in comms)
        comm_energy = sum(c.energy for c in comms)
        facts = schedule.exec_facts(task, machine)
        for vi, version in enumerate((Version.PRIMARY, Version.SECONDARY)):
            exec_energy = facts[vi][1]
            self._demand[vi][idx] = (
                None
                if dead
                else schedule._net_energy_demand(
                    task, machine, version, exec_energy, comms
                )
            )
            self.delta[vi][idx] = exec_energy + comm_energy

    def _plan_fresh(self, idx: int, task: int, machine: int) -> None:
        """The ``rebuild`` oracle: fill the slot from a fresh plan pair."""
        pair = self._schedule._plan_pair(task, machine, 0.0, True)
        self._comms[idx] = pair[0].comms
        self._ready[idx] = pair[0].data_ready
        for vi, plan in enumerate(pair):
            self.feasible[vi][idx] = plan.feasible
            self._start[vi][idx] = plan.start
            self.finish[vi][idx] = plan.finish
            self.delta[vi][idx] = plan.energy_delta

    def plan(self, idx: int, vi: int) -> ExecutionPlan:
        """The :class:`ExecutionPlan` of version *vi* (0 primary, 1
        secondary) at a looked-up, feasible slot — equal to the one
        ``Schedule._plan_pair`` would return."""
        task, machine = divmod(idx, self._n_machines)
        start = self._start[vi][idx]
        comms = self._comms[idx]
        if start is None or comms is None or not self.feasible[vi][idx]:
            raise ValueError(f"version {vi} of slot {idx} is not a placed, feasible plan")
        exec_energy = self._schedule.exec_facts(task, machine)[vi][1]
        return ExecutionPlan(
            task=task,
            version=Version.PRIMARY if vi == 0 else Version.SECONDARY,
            machine=machine,
            start=start,
            finish=self.finish[vi][idx],
            exec_energy=exec_energy,
            comms=comms,
            energy_delta=self.delta[vi][idx],
            data_ready=self._ready[idx],
        )

    def retire(self, task: int) -> None:
        """Drop a committed task's slot payloads."""
        n_machines = self._n_machines
        comms = self._comms
        demand0, demand1 = self._demand
        for idx in range(task * n_machines, (task + 1) * n_machines):
            comms[idx] = demand0[idx] = demand1[idx] = None


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
        # The static slot store (see module docstring), alive only inside
        # run_static.
        self._slots: StaticSlots | None = None
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

    @property
    def slots(self) -> StaticSlots:
        """The static slot store of the running :meth:`run_static` call —
        what a static selection rule reads its plans from."""
        if self._slots is None:
            raise RuntimeError("the static slot store lives only inside run_static")
        return self._slots

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
        scored under the kernel's objective — and the static slot store
        *select* may read through :attr:`slots` (every lookup plans afresh
        under ``rebuild``); the heuristic owns only its selection rule.
        """
        schedule = self.schedule
        objective = self.objective
        if objective is None:
            raise ValueError("run_static scores its trace records: pass an objective")
        slots = self._slots = StaticSlots(schedule, fresh=self.mode == "rebuild")
        try:
            while not schedule.is_complete:
                trace.note_tick()
                slots.begin_round()
                plan, pool_size = select()
                if plan is None:
                    trace.note_empty_pool()
                    break
                schedule.commit(plan)
                slots.retire(plan.task)
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
            self._slots = None
