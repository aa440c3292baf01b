"""The mutable mapping state shared by every heuristic.

A :class:`Schedule` tracks, for one :class:`~repro.workload.scenario.Scenario`:

* per-machine execution calendars and in/out comm-channel calendars
  (:class:`~repro.sim.timeline.IntervalTimeline`);
* the energy ledger (:class:`~repro.grid.energy.EnergyLedger`) — debited at
  commit time, per §IV;
* committed :class:`Assignment` records and the running aggregates the
  objective function needs (T100, TEC, AET).

Heuristics interact through a two-phase protocol:

1. :meth:`Schedule.plan` computes a tentative :class:`ExecutionPlan` for a
   (subtask, version, machine) triple — earliest start honouring precedence,
   channel capacity and the "never look backward" clock rule — without
   mutating anything;
2. :meth:`Schedule.commit` applies a plan atomically (calendar reservations
   plus energy debits).

:meth:`Schedule.unassign` rolls a committed assignment back (used by the
dynamic machine-loss engine), provided none of its children are mapped.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.constants import BUDGET_TOLERANCE, EPSILON
from repro.grid.energy import EnergyLedger
from repro.obs.spans import NULL_TRACER
from repro.perf import PerfCounters
from repro.sim.timeline import IntervalTimeline, earliest_common_gap
from repro.workload.scenario import Scenario
from repro.workload.versions import Version


@dataclass(frozen=True)
class PlannedComm:
    """One scheduled parent→child data transfer."""

    parent: int
    child: int
    src: int
    dst: int
    bits: float
    start: float
    finish: float
    energy: float  # debited from the *sender* machine `src`

    @property
    def duration(self) -> float:
        return self.finish - self.start


def _new_planned_comm(
    parent: int,
    child: int,
    src: int,
    dst: int,
    bits: float,
    start: float,
    finish: float,
    energy: float,
) -> PlannedComm:
    """:class:`PlannedComm` without the frozen-dataclass ``__init__`` —
    which pays one ``object.__setattr__`` per field.  Filling the instance
    ``__dict__`` directly builds an indistinguishable instance (same
    ``==``, ``repr``, ``replace``) at about a third of the cost; this
    constructor sits under every channel-slot search."""
    c = object.__new__(PlannedComm)
    c.__dict__.update({
        "parent": parent,
        "child": child,
        "src": src,
        "dst": dst,
        "bits": bits,
        "start": start,
        "finish": finish,
        "energy": energy,
    })
    return c


@dataclass(frozen=True)
class Assignment:
    """A committed (subtask, version, machine) execution."""

    task: int
    version: Version
    machine: int
    start: float
    finish: float
    energy: float  # execution energy on `machine`
    comms: tuple[PlannedComm, ...] = ()

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass(frozen=True)
class ExecutionPlan:
    """Tentative assignment produced by :meth:`Schedule.plan`.

    ``energy_delta`` is the *total* system energy this plan would consume
    (execution on the target machine plus transmit energy on every sending
    machine) — the quantity the objective's TEC term moves by.
    """

    task: int
    version: Version
    machine: int
    start: float
    finish: float
    exec_energy: float
    comms: tuple[PlannedComm, ...]
    energy_delta: float
    #: Earliest start given *precedence and communication* requirements only
    #: (clamped to the planning clock) — ignores the machine's own queue.
    #: This is the quantity the SLRH horizon test uses (§IV): a subtask is
    #: horizon-eligible when its inputs arrive within [t, t+H], even if the
    #: target machine's committed work pushes actual execution later.
    data_ready: float = 0.0
    feasible: bool = True
    reason: str = ""

    @property
    def duration(self) -> float:
        return self.finish - self.start


class Schedule:
    """Mutable mapping state for one scenario (see module docstring).

    Communication-energy reserves
    -----------------------------
    The §IV feasibility rule promises that a mapped subtask can "communicate
    all the resulting data items to wherever they might need to go".  A
    check at mapping time alone cannot keep that promise: later assignments
    may drain the machine, wedging the whole mapping (children of a
    zero-battery machine become unschedulable *everywhere*, because their
    input data can no longer be transmitted).  With ``hold_comm_reserves``
    (the default), committing a subtask therefore also *holds* the
    worst-case outgoing-communication energy for each of its (necessarily
    unmapped) children; when a child is later mapped, the per-edge reserve
    is released and the actual transfer energy — never larger, since the
    worst-case link is the slowest — is debited.  Available energy for new
    work is ``remaining − reserved``.  Disabling the flag reproduces the
    naive check-only behaviour (used by the feasibility ablation bench).
    """

    def __init__(
        self,
        scenario: Scenario,
        hold_comm_reserves: bool = True,
        tracer=None,
    ) -> None:
        self.scenario = scenario
        self.hold_comm_reserves = hold_comm_reserves
        #: Performance counter registry (see :mod:`repro.perf`).
        self.perf = PerfCounters()
        #: Span tracer (see :mod:`repro.obs.spans`); the shared null tracer
        #: unless a caller opts into tracing, so span sites cost two no-op
        #: calls on the default path.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Per-task epoch of the *parents'* assignments: bumped for every
        # child when a task commits or unassigns.  Equality proves a pool
        # entry's comm inputs (parent machine/version/finish) are unchanged
        # without rebuilding a signature tuple per lookup.
        self._parent_epoch = [0] * scenario.n_tasks
        # (task, machine, version) -> summed worst-case outgoing transfer
        # energy; a pure function of the static scenario, always memoised.
        self._wc_out: dict[tuple[int, int, Version], float] = {}
        # (task, machine) -> ((dur, energy) per version) — static scenario
        # facts read on every tentative plan, memoised past the ETC-matrix
        # indexing and version scaling.
        self._exec_static: dict[tuple[int, int], tuple[tuple[float, float], ...]] = {}
        n_machines = scenario.n_machines
        self.exec_timeline = [IntervalTimeline() for _ in range(n_machines)]
        self.out_channel = [IntervalTimeline() for _ in range(n_machines)]
        self.in_channel = [IntervalTimeline() for _ in range(n_machines)]
        self.energy = EnergyLedger(scenario.grid)
        self.assignments: dict[int, Assignment] = {}
        self._unmapped_parents = [len(p) for p in scenario.dag.parents]
        self._ready = {t for t, c in enumerate(self._unmapped_parents) if c == 0}
        # Lazily sorted view of _ready (see ready_sorted); cleared by any
        # mutation of the ready set.
        self._ready_sorted: tuple[int, ...] | None = None
        # Maintained complement of `assignments` so unmapped_tasks() never
        # rescans range(n_tasks); commit/unassign keep it in lockstep.
        self._unmapped = set(range(scenario.n_tasks))
        self._t100 = 0
        self._makespan = 0.0
        # Held outgoing-comm reserves: per machine total and per DAG edge.
        self._reserved = [0.0] * n_machines
        self._edge_reserve: dict[tuple[int, int], float] = {}
        # Energy consumed outside any assignment (sunk cost after a machine
        # loss); validation reconciles the ledger against assignments plus
        # these.
        self.external_debits = [0.0] * n_machines
        # Machines currently absent from the ad hoc grid (session churn).
        self.offline: set[int] = set()
        # Live per-task release (arrival) times, initialised from the
        # scenario.  Streaming sessions declare mid-run arrivals through
        # set_release (a held task sits at +inf until its arrival event);
        # every planning/pool path reads this list, never the scenario, so
        # a task arriving between replan segments is gated exactly like a
        # statically-released one.
        self._release_times = [
            scenario.release(t) for t in range(scenario.n_tasks)
        ]

    # -- aggregate metrics --------------------------------------------------

    @property
    def t100(self) -> int:
        """Number of subtasks mapped at their primary version."""
        return self._t100

    @property
    def makespan(self) -> float:
        """AET — finish time of the last mapped subtask (0 when empty)."""
        return self._makespan

    @property
    def total_energy_consumed(self) -> float:
        """TEC over all machines."""
        return self.energy.total_energy_consumed

    @property
    def total_system_energy(self) -> float:
        """TSE over all machines."""
        return self.energy.total_system_energy

    @property
    def n_mapped(self) -> int:
        return len(self.assignments)

    @property
    def is_complete(self) -> bool:
        """Whether every subtask has been mapped."""
        return len(self.assignments) == self.scenario.n_tasks

    def meets_constraints(self) -> bool:
        """Complete mapping within τ (energy holds by construction)."""
        return self.is_complete and self._makespan <= self.scenario.tau + EPSILON

    # -- task-state queries --------------------------------------------------

    def is_mapped(self, task: int) -> bool:
        return task in self.assignments

    def ready_tasks(self) -> frozenset[int]:
        """Unmapped subtasks whose parents are all mapped — the raw pool
        from which the feasibility filter builds U."""
        return frozenset(self._ready)

    def ready_sorted(self) -> tuple[int, ...]:
        """:meth:`ready_tasks` in ascending task order, cached between
        mutations — the iteration order of every pool maintenance path, so
        the per-tick scans share one sort instead of re-sorting a frozenset."""
        cached = self._ready_sorted
        if cached is None:
            cached = self._ready_sorted = tuple(sorted(self._ready))
        return cached

    def parent_epochs(self) -> list[int]:
        """Per-task epoch of the parents' assignments (read-only view).

        Bumped for every child when a task commits or unassigns; pool
        maintainers stamp entries against it to prove a candidate's comm
        inputs are unchanged.  Callers must not mutate the list.
        """
        return self._parent_epoch

    def aggregate_state(self) -> tuple[int, float, float]:
        """The (T100, TEC, AET) triple every candidate score depends on —
        one accessor so pool maintainers snapshot it without three
        attribute walks."""
        return (self._t100, self.energy.total_energy_consumed, self._makespan)

    def unmapped_tasks(self) -> list[int]:
        return sorted(self._unmapped)

    def machine_available(self, j: int, clock: float) -> bool:
        """SLRH availability test (§IV): machine *j* is part of the grid and
        has no execution work committed at or beyond the current *clock*."""
        if j in self.offline:
            return False
        return not self.exec_timeline[j].has_work_at_or_after(clock)

    def set_offline(self, j: int, offline: bool = True) -> None:
        """Mark machine *j* absent from (or returned to) the ad hoc grid.

        Offline machines fail the availability test and every plan
        targeting them; existing assignments are untouched — the caller
        decides what to roll back (:func:`repro.sim.engine.rollback_machine`).
        """
        if not 0 <= j < self.scenario.n_machines:
            raise IndexError(f"no machine {j}")
        if offline:
            self.offline.add(j)
        else:
            self.offline.discard(j)

    def available_energy(self, j: int) -> float:
        """Battery remaining on *j* minus held communication reserves —
        the budget new work may draw on."""
        return self.energy.remaining(j) - self._reserved[j]

    def release(self, task: int) -> float:
        """Effective release (arrival) time of *task* — the scenario's
        static release unless :meth:`set_release` moved it (streamed
        arrivals; ``math.inf`` = not yet arrived)."""
        return self._release_times[task]

    def release_times_view(self) -> list[float]:
        """The live per-task release list (read-only view for pool
        maintainers — index it, never mutate it)."""
        return self._release_times

    def set_release(self, task: int, at: float) -> None:
        """Declare *task*'s effective release time (a streamed arrival).

        Raises for mapped tasks: an assignment's start time was planned
        against the old release and cannot be retroactively legalised —
        sessions hold unarrived tasks at ``math.inf`` from the start, so a
        release only ever moves downward onto an unmapped task.
        """
        if not 0 <= task < self.scenario.n_tasks:
            raise IndexError(f"no task {task}")
        if at < 0.0:
            raise ValueError("release times must be non-negative")
        if task in self.assignments:
            raise ValueError(
                f"task {task} is already mapped; its release cannot move"
            )
        self._release_times[task] = at

    def exec_facts(self, task: int, machine: int) -> tuple[tuple[float, float], ...]:
        """Static ``(duration, energy)`` per version for (*task*, *machine*)
        — pure scenario facts, memoised past the ETC-matrix indexing and
        version scaling; shared by planning and the columnar scorer."""
        facts = self._exec_static.get((task, machine))
        if facts is None:
            scenario = self.scenario
            facts = tuple(
                (
                    scenario.exec_time(task, machine, v),
                    scenario.compute_energy(task, machine, v),
                )
                for v in (Version.PRIMARY, Version.SECONDARY)
            )
            self._exec_static[(task, machine)] = facts
        return facts

    def reserved_energy(self, j: int) -> float:
        """Communication energy currently held in reserve on machine *j*."""
        return self._reserved[j]

    def _worst_case_outgoing(self, task: int, machine: int, version: Version) -> float:
        """Summed worst-case transfer energy for *task*'s outputs from
        *machine* at *version* — static per scenario, hence memoised."""
        key = (task, machine, version)
        cached = self._wc_out.get(key)
        if cached is None:
            scenario = self.scenario
            cached = sum(
                scenario.network.worst_case_transfer_energy(
                    machine, scenario.data_bits(task, child, version)
                )
                for child in scenario.dag.children[task]
            )
            self._wc_out[key] = cached
        return cached

    def _net_energy_demand(
        self,
        task: int,
        machine: int,
        version: Version,
        exec_energy: float,
        comms: tuple[PlannedComm, ...],
    ) -> dict[int, float]:
        """Per-machine net energy demand of committing the described plan:
        execution and transfer debits, plus new outgoing reserves, minus
        incoming-edge reserves released (when reserves are held)."""
        net: dict[int, float] = {machine: exec_energy}
        for c in comms:
            net[c.src] = net.get(c.src, 0.0) + c.energy
        if self.hold_comm_reserves:
            for p in self.scenario.dag.parents[task]:
                src = self.assignments[p].machine
                net[src] = net.get(src, 0.0) - self._edge_reserve.get((p, task), 0.0)
            net[machine] += self._worst_case_outgoing(task, machine, version)
        return net

    def _demand_shortfall(self, demand: dict[int, float]) -> str:
        """Empty string if *demand* fits every machine's available budget,
        else a human-readable reason."""
        for j, amount in demand.items():
            budget = self.available_energy(j)
            if amount > budget * (1 + BUDGET_TOLERANCE) + BUDGET_TOLERANCE:
                return (
                    f"machine {j} needs {amount:.6g} energy units, "
                    f"{budget:.6g} available "
                    f"({self._reserved[j]:.6g} held in comm reserve)"
                )
        return ""

    def _shortfall_of(
        self,
        task: int,
        machine: int,
        version: Version,
        exec_energy: float,
        comms: tuple[PlannedComm, ...],
    ) -> str:
        """Empty string if the described plan's energy demand fits every
        machine's available budget, else a human-readable reason."""
        return self._demand_shortfall(
            self._net_energy_demand(task, machine, version, exec_energy, comms)
        )

    def _energy_shortfall(self, plan: "ExecutionPlan") -> str:
        return self._shortfall_of(
            plan.task, plan.machine, plan.version, plan.exec_energy, plan.comms
        )

    # -- planning -------------------------------------------------------------

    def _plan_comms_floor(
        self, task: int, machine: int, not_before: float
    ) -> tuple[tuple[PlannedComm, ...], float]:
        """Schedule *task*'s incoming transfers onto *machine* (tentative).

        Returns ``(comms, dr_floor)`` where ``dr_floor`` is the data-ready
        time *excluding* the ``not_before`` clamp (release time, local
        parent finishes, transfer finishes) — the caller's effective data
        ready is ``max(not_before, dr_floor)``.  Incoming
        transfer sizes depend on the *parents'* committed versions only, so
        one comm plan serves both candidate versions of the task.

        Channel calendars are copied lazily: a copy is only made once an
        *earlier* transfer in the same plan must be visible to a later
        channel-slot search, so tasks with at most one remote parent (the
        common case in sparse DAGs) plan without copying any timeline.
        """
        scenario = self.scenario
        assignments = self.assignments
        network = scenario.network
        grid = scenario.grid
        comms: list[PlannedComm] = []
        # Execution may not begin before the subtask has *arrived* (release
        # time, possibly moved by a streamed arrival); under the paper's
        # simplification releases are all zero.
        local_floor = self._release_times[task]
        # Deterministic parent order: by completion time, then id.
        parents = scenario.dag.parents[task]
        if len(parents) > 1:
            parents = sorted(
                parents, key=lambda p: (assignments[p].finish, p)
            )
        out_views: dict[int, IntervalTimeline] = {}
        in_view: IntervalTimeline | None = None
        pending: PlannedComm | None = None
        # Hot path (every planning path funnels through here): inline
        # data_bits / transfer_time on their hoisted operands — the same
        # arithmetic on the same values, minus the call layers.
        data_sizes = scenario.data_sizes
        cmt = network.cmt
        out_channel = self.out_channel
        in_channel_m = self.in_channel[machine]
        for p in parents:
            pa = assignments[p]
            bits = data_sizes[(p, task)] * pa.version.scale
            if pa.machine == machine or bits <= 0.0:
                if pa.finish > local_floor:
                    local_floor = pa.finish
                continue
            if pending is not None:
                # A later search must see the previous transfer: materialise
                # copies now and reserve it on them.
                src_view = out_views.get(pending.src)
                if src_view is None:
                    src_view = out_views[pending.src] = out_channel[pending.src].copy()
                if in_view is None:
                    in_view = in_channel_m.copy()
                src_view.reserve(pending.start, pending.finish)
                in_view.reserve(pending.start, pending.finish)
                pending = None
            out_tl = out_views.get(pa.machine)
            if out_tl is None:
                out_tl = out_channel[pa.machine]
            duration = bits * cmt(pa.machine, machine)
            start = earliest_common_gap(
                out_tl,
                in_view if in_view is not None else in_channel_m,
                duration,
                not_before=max(pa.finish, not_before),
            )
            finish = start + duration
            energy = grid[pa.machine].transmit_energy(duration)
            pending = _new_planned_comm(
                p, task, pa.machine, machine, bits, start, finish, energy
            )
            comms.append(pending)
        dr_floor = local_floor
        for c in comms:
            if c.finish > dr_floor:
                dr_floor = c.finish
        return tuple(comms), dr_floor

    def _check_plannable(self, task: int, machine: int) -> None:
        if task in self.assignments:
            raise ValueError(f"task {task} is already mapped")
        if self._unmapped_parents[task] != 0:
            raise ValueError(f"task {task} has unmapped parents")
        if not 0 <= machine < self.scenario.n_machines:
            raise IndexError(f"no machine {machine}")

    def _plan_pair(
        self,
        task: int,
        machine: int,
        not_before: float,
        insertion: bool,
    ) -> tuple[
        tuple[ExecutionPlan, ExecutionPlan],
        tuple[dict[int, float] | None, dict[int, float] | None],
    ]:
        """Compute the (primary, secondary) plan pair for *task* on
        *machine* — see :meth:`plan_versions` — together with each
        version's per-machine net energy demand (``None`` when a machine
        involved is offline: such a plan is dead whatever the budgets)."""
        self._check_plannable(task, machine)
        self.perf.inc("plan.pairs")
        comms, dr_floor = self._plan_comms_floor(task, machine, not_before)
        data_ready = max(not_before, dr_floor)
        offline = machine in self.offline or any(c.src in self.offline for c in comms)
        comm_energy = sum(c.energy for c in comms)
        exec_timeline = self.exec_timeline[machine]
        exec_facts = self.exec_facts(task, machine)
        plans = []
        demands: list[dict[int, float] | None] = []
        for vi, version in enumerate((Version.PRIMARY, Version.SECONDARY)):
            duration, exec_energy = exec_facts[vi]
            demand: dict[int, float] | None = None
            if offline:
                reason = f"machine {machine} (or a required sender) is offline"
            else:
                demand = self._net_energy_demand(
                    task, machine, version, exec_energy, comms
                )
                reason = self._demand_shortfall(demand)
            demands.append(demand)
            if reason:
                # Dead plan: it can never be committed or scored, so the
                # calendar gap search is wasted work — anchor it at its
                # data-ready time.  The verdict and reason (what the ledger
                # records) are computed above, before placement.
                start = data_ready
            else:
                start = exec_timeline.earliest_gap(
                    duration, data_ready, append_only=not insertion
                )
            plans.append(
                ExecutionPlan(
                    task=task,
                    version=version,
                    machine=machine,
                    start=start,
                    finish=start + duration,
                    exec_energy=exec_energy,
                    comms=comms,
                    energy_delta=exec_energy + comm_energy,
                    data_ready=data_ready,
                    feasible=not reason,
                    reason=reason,
                )
            )
        return (plans[0], plans[1]), (demands[0], demands[1])

    def plan(
        self,
        task: int,
        version: Version,
        machine: int,
        not_before: float = 0.0,
        insertion: bool = False,
    ) -> ExecutionPlan:
        """Tentatively place (*task*, *version*) on *machine*.

        Parameters
        ----------
        not_before:
            The current clock; nothing (execution or communication) may be
            scheduled earlier (§IV: the scheduler never looks backward).
        insertion:
            Allow execution to start inside a hole of the machine calendar
            (Max-Max, §V).  SLRH uses ``False``: execution appends after the
            machine's committed work.

        The returned plan may be marked ``feasible=False`` (with a reason)
        when some machine's battery cannot cover the required debits; such a
        plan must not be committed.

        Both versions are planned together (the channel-slot search is
        shared); callers that want both should use :meth:`plan_versions`.

        Raises
        ------
        ValueError
            If *task* is already mapped or has unmapped parents (callers
            draw from :meth:`ready_tasks`, so this indicates a logic error).
        """
        pair = self._plan_pair(task, machine, not_before, insertion)[0]
        if version is Version.PRIMARY:
            return pair[0]
        if version is Version.SECONDARY:
            return pair[1]
        raise ValueError(f"unknown version {version!r}")

    def plan_versions(
        self,
        task: int,
        machine: int,
        not_before: float = 0.0,
        insertion: bool = False,
    ) -> tuple[ExecutionPlan, ExecutionPlan]:
        """Plan both versions of *task* on *machine*, sharing one comm plan.

        Incoming transfers depend only on the parents' committed versions,
        so the (relatively expensive) channel-slot search is identical for
        both candidate versions — this is the hot path of the SLRH pool
        evaluation, which prices every pool member at both versions each
        tick.  Returns (primary_plan, secondary_plan), semantically equal
        to two :meth:`plan` calls.  Every call computes afresh.
        """
        return self._plan_pair(task, machine, not_before, insertion)[0]

    # -- mutation ---------------------------------------------------------------

    def commit(self, plan: ExecutionPlan) -> Assignment:
        """Apply *plan* atomically; returns the resulting :class:`Assignment`.

        Raises
        ------
        ValueError
            If the plan is marked infeasible or the task state changed since
            planning.
        """
        if not plan.feasible:
            raise ValueError(f"cannot commit infeasible plan: {plan.reason}")
        if plan.task in self.assignments:
            raise ValueError(f"task {plan.task} is already mapped")
        if self._unmapped_parents[plan.task] != 0:
            raise ValueError(f"task {plan.task} has unmapped parents")
        shortfall = self._energy_shortfall(plan)
        if shortfall:
            raise ValueError(f"plan no longer affordable: {shortfall}")

        scenario = self.scenario
        self.perf.inc("commit.count")
        # Reserve calendars first (reservation errors leave energy intact).
        self.exec_timeline[plan.machine].reserve(plan.start, plan.finish)
        for c in plan.comms:
            self.out_channel[c.src].reserve(c.start, c.finish)
            self.in_channel[c.dst].reserve(c.start, c.finish)
        if self.hold_comm_reserves:
            # The task's inputs are now routed: release the reserves its
            # parents were holding for these edges...
            for p in scenario.dag.parents[plan.task]:
                held = self._edge_reserve.pop((p, plan.task), 0.0)
                self._reserved[self.assignments[p].machine] -= held
            # ...and hold worst-case reserves for the task's own outputs.
            for child in scenario.dag.children[plan.task]:
                wc = scenario.network.worst_case_transfer_energy(
                    plan.machine, scenario.data_bits(plan.task, child, plan.version)
                )
                self._edge_reserve[(plan.task, child)] = wc
                self._reserved[plan.machine] += wc
        self.energy.debit(plan.machine, plan.exec_energy)
        for c in plan.comms:
            self.energy.debit(c.src, c.energy)

        assignment = Assignment(
            task=plan.task,
            version=plan.version,
            machine=plan.machine,
            start=plan.start,
            finish=plan.finish,
            energy=plan.exec_energy,
            comms=plan.comms,
        )
        self.assignments[plan.task] = assignment
        if plan.version.counts_toward_t100:
            self._t100 += 1
        self._makespan = max(self._makespan, plan.finish)
        self._ready.discard(plan.task)
        self._ready_sorted = None
        self._unmapped.discard(plan.task)
        for child in self.scenario.dag.children[plan.task]:
            self._parent_epoch[child] += 1
            self._unmapped_parents[child] -= 1
            if self._unmapped_parents[child] == 0 and child not in self.assignments:
                self._ready.add(child)
        return assignment

    def unassign(self, task: int) -> Assignment:
        """Roll back a committed assignment (machine-loss rollback).

        The task's children must all be unmapped — their incoming transfers
        reference this assignment's machine and version.
        """
        if task not in self.assignments:
            raise ValueError(f"task {task} is not mapped")
        for child in self.scenario.dag.children[task]:
            if child in self.assignments:
                raise ValueError(
                    f"cannot unassign task {task}: child {child} is still mapped"
                )
        a = self.assignments.pop(task)
        self._unmapped.add(task)
        self.perf.inc("unassign.count")
        self.exec_timeline[a.machine].release(a.start, a.finish)
        self.energy.credit(a.machine, a.energy)
        for c in a.comms:
            self.out_channel[c.src].release(c.start, c.finish)
            self.in_channel[c.dst].release(c.start, c.finish)
            self.energy.credit(c.src, c.energy)
        if self.hold_comm_reserves:
            # Drop the reserves this task held for its (unmapped) children...
            for child in self.scenario.dag.children[task]:
                held = self._edge_reserve.pop((task, child), 0.0)
                self._reserved[a.machine] -= held
            # ...and re-hold its parents' reserves for the now-open edges.
            for p in self.scenario.dag.parents[task]:
                pa = self.assignments[p]
                wc = self.scenario.network.worst_case_transfer_energy(
                    pa.machine, self.scenario.data_bits(p, task, pa.version)
                )
                self._edge_reserve[(p, task)] = wc
                self._reserved[pa.machine] += wc
        if a.version.counts_toward_t100:
            self._t100 -= 1
        self._makespan = max(
            (x.finish for x in self.assignments.values()), default=0.0
        )
        for child in self.scenario.dag.children[task]:
            self._parent_epoch[child] += 1
            self._unmapped_parents[child] += 1
            self._ready.discard(child)
        if self._unmapped_parents[task] == 0:
            self._ready.add(task)
        self._ready_sorted = None
        return a

    def debit_external(self, j: int, energy: float) -> None:
        """Consume energy on machine *j* outside any assignment.

        Used by the dynamic engine to account for work a machine had
        already performed on assignments that a machine loss invalidated —
        that energy is physically gone even though the assignment is no
        longer part of the schedule.
        """
        self.energy.debit(j, energy)
        self.external_debits[j] += energy

    # -- reporting -----------------------------------------------------------

    def machine_load(self, j: int) -> float:
        """Total execution time committed on machine *j*."""
        return self.exec_timeline[j].busy_time()

    def summary(self) -> dict:
        """Compact result record used by the experiment drivers."""
        return {
            "scenario": self.scenario.name,
            "mapped": self.n_mapped,
            "n_tasks": self.scenario.n_tasks,
            "t100": self._t100,
            "aet": self._makespan,
            "tau": self.scenario.tau,
            "tec": self.total_energy_consumed,
            "tse": self.total_system_energy,
            "complete": self.is_complete,
            "within_tau": self._makespan <= self.scenario.tau + EPSILON,
        }
