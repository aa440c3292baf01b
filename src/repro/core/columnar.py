"""Flat-array candidate pools: the kernel's columnar hot path.

:class:`ColumnarPool` maintains one delta-maintained pool slot per
(machine, task), stored in parallel ``array`` columns indexed by integer
ids instead of per-entry Python objects.  A slot is *clean* — reusable
without re-planning — while its cleanliness certificates hold:

* the task's parent epoch is unchanged (its parents' assignments did not
  move);
* the touch counter of every machine its plans read (the target plus the
  parents' machines — exactly the set a commit can move) is unchanged;
* for slots holding plans, a later ``not_before`` provably yields the same
  plans: the data-ready floor dominates both clocks and every planned
  transfer starts at/after the new clock (gap searches are monotone in
  their lower bound).

Churn (offline/online flips, rollbacks, external debits) has no precise
delta and is handled wholesale by :meth:`ColumnarPool.invalidate_all`.
The per-tick scan runs on index arithmetic:

* slot lookup is ``machine * n_tasks + task`` into flat columns (kind,
  generation, parent-epoch, planning clock, data-ready, comm floor,
  score, score token) — no dict probe, no attribute chase;
* touch-stamp certificates live in a CSR block (per-task offsets into a
  dependency-id/stamp column pair), so "nothing my plans read has moved"
  is a short loop over two arrays;
* one scorer reads per-version fact columns (feasibility, energy margin
  — the plan's TEC delta — and finish time) and inlines the objective
  arithmetic of :meth:`ObjectiveFunction.after_plan` verbatim: the same
  float operations in the same order, so scores are bit-identical to
  :func:`repro.core.pool.evaluate_versions`'s.  It runs for every slot
  whose score token is stale — a freshly replanned slot, or a clean one
  after a commit moved the aggregates — and materialises the winning
  version's :class:`~repro.sim.schedule.ExecutionPlan` from the columns
  the first time that version wins;
* candidate ordering is one stable descending sort over the score column.
  Members are gathered in ascending task order and CPython's sort is
  stable under ``reverse=True`` (equal keys keep their original order),
  so the result is exactly :func:`~repro.core.pool.build_candidate_pool`'s
  ``(-score, task)`` order.

The *dirty* path — entries whose certificates fail — is a **fused
replan**: the same decisions as ``Schedule._plan_pair``, open-coded
without the wrapper layers.  It runs the same channel-slot search
(``Schedule._plan_comms_floor``), then finishes the pair in flat
arithmetic against per-build hoists: machine budgets, the rule-(b) gate,
the offline set and the execution calendar tail — nothing mutates during
a build, so per-replan ``available_energy`` / ``earliest_gap`` calls
collapse to float compares (append-only placement at a fixed tail is
``max(data_ready, tail)`` by construction).  It only fills the slot's
columns (per-version feasibility, start, finish and energy; data-ready
time and comm floor) and marks the score token stale; the scorer above
does the rest, so selection and plan construction each exist once.

Pools, plans and scores are pinned identical to
:func:`~repro.core.pool.build_candidate_pool` by the differential fuzz in
``tests/test_kernel.py``, and whole mappings to the ``rebuild`` kernel.
"""

from __future__ import annotations

import math
from array import array

from repro.core.constants import BUDGET_TOLERANCE, EPSILON
from repro.core.feasibility import FeasibilityChecker
from repro.core.objective import ObjectiveFunction
from repro.core.pool import Candidate
from repro.obs.spans import NULL_SPAN
from repro.sim.schedule import ExecutionPlan, Schedule
from repro.workload.versions import Version

__all__ = ["ColumnarPool"]

_PRIMARY = Version.PRIMARY
_SECONDARY = Version.SECONDARY

# Slot kinds: never written, a scored candidate, a task whose tentative
# plans are all energy-infeasible, and a rule-(b) reject (never planned).
_EMPTY, _CANDIDATE, _NO_VERSION, _RULE_B = -1, 0, 1, 2

#: aet_mode -> branch index for the inline scorer (see ObjectiveFunction).
_AET_TENT, _AET_CLAMP, _AET_RAW, _AET_NEGATIVE = 0, 1, 2, 3
_AET_MODES = {
    "tent": _AET_TENT,
    "clamp": _AET_CLAMP,
    "raw": _AET_RAW,
    "negative": _AET_NEGATIVE,
}


class ColumnarPool:
    """Delta-maintained candidate pools, one per machine (see module
    docstring).

    :meth:`pool_for` materialises the ordered pool U plus the earliest
    unreleased-task release time; the owner reports commits via
    :meth:`note_commit` and calls :meth:`invalidate_all` after any other
    mutation.
    """

    def __init__(
        self,
        schedule: Schedule,
        checker: FeasibilityChecker,
        objective: ObjectiveFunction,
    ) -> None:
        self.schedule = schedule
        self.checker = checker
        self.objective = objective
        scenario = schedule.scenario
        n_machines = scenario.n_machines
        n_tasks = scenario.n_tasks
        self._n_machines = n_machines
        self._n_tasks = n_tasks
        size = n_machines * n_tasks
        # Slot columns, indexed machine * n_tasks + task.
        self._kind = array("b", [_EMPTY]) * size
        self._slot_gen = array("q", [0]) * size
        self._epoch = array("q", [0]) * size
        self._nb = array("d", [0.0]) * size
        self._ready_at = array("d", [0.0]) * size  # pair data-ready floor
        self._comm_floor = array("d", [0.0]) * size  # min planned-comm start
        self._score = array("d", [0.0]) * size
        self._token_col = array("q", [0]) * size
        # Per-version score facts: feasibility, energy margin (the plan's
        # TEC delta) and finish time — everything after_plan reads.
        self._feas0 = array("b", [0]) * size
        self._feas1 = array("b", [0]) * size
        self._energy0 = array("d", [0.0]) * size
        self._energy1 = array("d", [0.0]) * size
        self._finish0 = array("d", [0.0]) * size
        self._finish1 = array("d", [0.0]) * size
        self._start0 = array("d", [0.0]) * size
        self._start1 = array("d", [0.0]) * size
        # Touch-stamp certificates in CSR form: task t's dependency ids
        # and stamps live at [dep_off[t], dep_off[t] + |parents(t)| + 1)
        # within each machine's block of _dep_span entries.
        parents = scenario.dag.parents
        offs = array("l", [0]) * n_tasks
        total = 0
        for t in range(n_tasks):
            offs[t] = total
            total += len(parents[t]) + 1
        self._dep_off = offs
        self._dep_span = total
        self._dep_ids = array("i", [0]) * (n_machines * total)
        self._dep_stamps = array("q", [0]) * (n_machines * total)
        self._dep_n = array("i", [0]) * size
        # Per-machine event counters: bumped for every machine a commit
        # touches (calendars, energy, reserves).  Slot stamps against
        # these prove "nothing my plans read has moved".
        self._touch = array("q", [0]) * n_machines
        # Release-time column: the schedule's *live* per-task release list
        # (streamed arrivals move entries in place), aliased rather than
        # copied so the pool never reads a stale release.
        self._release = schedule.release_times_view()
        # Lazily-materialised plan payloads per slot: ``[primary_plan |
        # None, secondary_plan | None, comms]``.  The scorer builds a
        # version's ExecutionPlan from the columns the first time that
        # version wins.
        self._pairs: list[list | None] = [None] * size
        self._cands: list[Candidate | None] = [None] * size
        # Static per-slot facts, filled lazily from the schedule/checker
        # memos they mirror (ETC, versions and data sizes never change for
        # a pool's lifetime): exec (duration, energy) pairs, the rule-(b)
        # secondary required energy, and the per-version worst-case
        # outgoing reserves — probed by index instead of tuple-keyed dicts.
        self._facts: list[tuple | None] = [None] * size
        self._req1: list[float | None] = [None] * size
        self._wc: list[tuple | None] = [None] * size
        # Generation stamp: invalidate_all bumps it instead of clearing
        # every column (slots stamped with an older generation are dead).
        self._gen = 1
        self._agg: tuple[int, float, float] | None = None
        self._token = 0

    def invalidate_all(self) -> None:
        """Drop every slot — the big hammer for events without a precise
        delta (churn offline/online, rollbacks, external debits)."""
        self._gen += 1
        self._agg = None

    def note_commit(self, plan: ExecutionPlan) -> None:
        """Record a commit's footprint: bump the touch counter of every
        machine it mutated and retire the committed task's slots."""
        schedule = self.schedule
        touched = {plan.machine}
        for p in schedule.scenario.dag.parents[plan.task]:
            touched.add(schedule.assignments[p].machine)
        touch = self._touch
        for j in touched:
            touch[j] += 1
        kind = self._kind
        pairs = self._pairs
        cands = self._cands
        task = plan.task
        n_tasks = self._n_tasks
        for m in range(self._n_machines):
            idx = m * n_tasks + task
            kind[idx] = _EMPTY
            pairs[idx] = None
            cands[idx] = None

    def note_release(self, task: int) -> None:
        """A streamed arrival moved *task*'s release time: retire its
        slots.  (A held task is release-gated out of every pool, so they
        should all be empty — clearing is defensive symmetry with
        :meth:`note_commit`.)  Other tasks' slots never read a neighbour's
        release, so they survive — the precise delta that lets a session
        keep its pool across arrivals."""
        kind = self._kind
        pairs = self._pairs
        cands = self._cands
        n_tasks = self._n_tasks
        for m in range(self._n_machines):
            idx = m * n_tasks + task
            kind[idx] = _EMPTY
            pairs[idx] = None
            cands[idx] = None

    def note_machine_return(self, machine: int) -> None:
        """A lost machine rejoined the grid: fresh touch epoch plus a
        clean slot block, so certificates minted while it was offline (or
        before it left) can never validate against its new state.  Other
        machines' slots keep their stamps — *machine*'s bumped counter
        retires exactly the entries that depended on it."""
        self._touch[machine] += 1
        kind = self._kind
        pairs = self._pairs
        cands = self._cands
        base = machine * self._n_tasks
        for idx in range(base, base + self._n_tasks):
            kind[idx] = _EMPTY
            pairs[idx] = None
            cands[idx] = None
        self._agg = None

    def pool_for(
        self, machine: int, not_before: float
    ) -> tuple[list[Candidate], float | None]:
        """The ordered pool U for *machine* at *not_before*, plus the
        earliest release time among ready-but-unreleased tasks (``None``
        when there is none) — the kernel's wake-up hint."""
        schedule = self.schedule
        tracer = schedule.tracer
        perf = schedule.perf
        agg = schedule.aggregate_state()
        if agg != self._agg:
            self._agg = agg
            self._token += 1
        token = self._token
        gen = self._gen
        n_tasks = self._n_tasks
        base = machine * n_tasks
        dep_base = machine * self._dep_span
        kind = self._kind
        slot_gen = self._slot_gen
        epoch_col = self._epoch
        nb_col = self._nb
        ready_col = self._ready_at
        comm_col = self._comm_floor
        score_col = self._score
        token_col = self._token_col
        feas0 = self._feas0
        feas1 = self._feas1
        energy0 = self._energy0
        energy1 = self._energy1
        finish0 = self._finish0
        finish1 = self._finish1
        start0 = self._start0
        start1 = self._start1
        dep_off = self._dep_off
        dep_ids = self._dep_ids
        dep_stamps = self._dep_stamps
        dep_n = self._dep_n
        touch = self._touch
        release = self._release
        pairs = self._pairs
        cands = self._cands
        epochs = schedule.parent_epochs()
        assignments = schedule.assignments
        parents = schedule.scenario.dag.parents
        objective = self.objective
        checker = self.checker
        # Hoisted objective constants for the scorer: the exact operands
        # of ObjectiveFunction.value / after_plan.
        weights = objective.weights
        alpha = weights.alpha
        beta = weights.beta
        gamma = weights.gamma
        obj_n = objective.n_tasks
        tse = objective.total_system_energy
        tau = objective.tau
        aet_mode = _AET_MODES[objective.aet_mode]
        t100_base, tec_base, aet_base = agg
        # The T100 term of each score is a build constant per version —
        # hoisting it drops two multiplies and a divide from every score
        # without changing a single float operation's operands.
        a0 = alpha * ((t100_base + 1) / obj_n)
        a1 = alpha * (t100_base / obj_n)
        gate = not_before + EPSILON
        # Per-build hoists for the fused replan.  Nothing mutates the
        # schedule during a build (commits land between builds), so machine
        # budgets, the offline set, the rule-(b) gate and the execution
        # calendar tail are loop constants — the per-replan
        # available_energy / earliest_gap calls of the generic path
        # collapse to float compares against these.
        exec_tail = schedule.exec_timeline[machine].tail
        offline_set = schedule.offline
        machine_offline = machine in offline_set
        avail = schedule.available_energy
        # Rule (b) reduced for ready tasks: assigned/parents-mapped always
        # hold, so FeasibilityChecker.is_feasible is one memoised-static
        # lookup against this threshold (same arithmetic, same slack).
        # Per-machine verdict thresholds are premultiplied once per build —
        # the _demand_shortfall comparison scale on the same availability.
        rb_gate = avail(machine) * (1 + BUDGET_TOLERANCE) + BUDGET_TOLERANCE
        thresh: list[float | None] = [None] * self._n_machines
        thresh[machine] = rb_gate
        required = checker.required_energy
        required_memo = checker._required
        comms_floor = schedule._plan_comms_floor
        exec_facts_fn = schedule.exec_facts
        exec_static = schedule._exec_static
        wc_outgoing = schedule._worst_case_outgoing
        wc_memo = schedule._wc_out
        edge_reserve = schedule._edge_reserve
        hold_reserves = schedule.hold_comm_reserves
        facts_col = self._facts
        req1_col = self._req1
        wc_col = self._wc
        n_pairs = 0
        members: list[int] = []  # slot indices, gathered in task order
        min_release: float | None = None
        reused = invalidated = 0
        span = (
            tracer.span("pool.columnar", machine=machine, clock=not_before)
            if tracer.enabled
            else NULL_SPAN
        )
        with span, perf.timer("phase.pool_seconds"):
            for task in schedule.ready_sorted():
                r = release[task]
                if r > gate:
                    if min_release is None or r < min_release:
                        min_release = r
                    continue
                idx = base + task
                k = kind[idx]
                clean = (
                    k != _EMPTY
                    and slot_gen[idx] == gen
                    and epoch_col[idx] == epochs[task]
                )
                if clean:
                    db = dep_base + dep_off[task]
                    for d in range(dep_n[idx]):
                        if touch[dep_ids[db + d]] != dep_stamps[db + d]:
                            clean = False
                            break
                    if clean and k == _CANDIDATE and not_before != nb_col[idx]:
                        # Clock rule (see module docstring): stored plans
                        # survive a clock advance only when the data-ready
                        # floor dominates both clocks and every planned
                        # transfer starts at/after the new clock.
                        enb = nb_col[idx]
                        dr = ready_col[idx]
                        if not (
                            not_before > enb
                            and dr > enb
                            and dr >= not_before
                            and comm_col[idx] >= not_before
                        ):
                            clean = False
                if clean:
                    reused += 1
                else:
                    invalidated += 1
                    slot_gen[idx] = gen
                    epoch_col[idx] = epochs[task]
                    req = req1_col[idx]
                    if req is None:
                        req = required_memo.get((task, machine, _SECONDARY))
                        if req is None:
                            req = required(task, machine, _SECONDARY)
                        req1_col[idx] = req
                    if req > rb_gate:
                        kind[idx] = k = _RULE_B
                        pairs[idx] = None
                    else:
                        # -- fused replan: _plan_pair without the wrapper
                        # layers — the same channel-slot search, then flat
                        # arithmetic against the per-build hoists.  It only
                        # fills the slot's column facts; the scorer below
                        # picks and materialises the winner.
                        n_pairs += 1
                        pcomms, dr_floor = comms_floor(task, machine, not_before)
                        min_comm = (
                            min(c.start for c in pcomms) if pcomms else math.inf
                        )
                        # max() (not a bare compare) so signed-zero floors
                        # stay bitwise identical to the generic data_ready.
                        data_ready = max(not_before, dr_floor)
                        offline = machine_offline
                        comm_energy = 0.0
                        for c in pcomms:
                            comm_energy += c.energy
                            if c.src in offline_set:
                                offline = True
                        facts = facts_col[idx]
                        if facts is None:
                            facts = exec_static.get((task, machine))
                            if facts is None:
                                facts = exec_facts_fn(task, machine)
                            facts_col[idx] = facts
                        vf0 = vf1 = False
                        if not offline:
                            # _net_energy_demand for both versions in one
                            # walk: per-dict float operations in exactly the
                            # generic order, the per-version worst-case
                            # outgoing reserve from its memo.
                            d0 = {machine: facts[0][1]}
                            d1 = {machine: facts[1][1]}
                            for c in pcomms:
                                src = c.src
                                ce = c.energy
                                d0[src] = d0.get(src, 0.0) + ce
                                d1[src] = d1.get(src, 0.0) + ce
                            if hold_reserves:
                                for p in parents[task]:
                                    src = assignments[p].machine
                                    rel = edge_reserve.get((p, task), 0.0)
                                    d0[src] = d0.get(src, 0.0) - rel
                                    d1[src] = d1.get(src, 0.0) - rel
                                w01 = wc_col[idx]
                                if w01 is None:
                                    w0 = wc_memo.get((task, machine, _PRIMARY))
                                    if w0 is None:
                                        w0 = wc_outgoing(task, machine, _PRIMARY)
                                    w1 = wc_memo.get((task, machine, _SECONDARY))
                                    if w1 is None:
                                        w1 = wc_outgoing(task, machine, _SECONDARY)
                                    w01 = wc_col[idx] = (w0, w1)
                                d0[machine] += w01[0]
                                d1[machine] += w01[1]
                            # _demand_shortfall's verdict, against the
                            # hoisted budgets (nothing commits mid-build).
                            vf0 = True
                            for j, amount in d0.items():
                                th = thresh[j]
                                if th is None:
                                    th = thresh[j] = (
                                        avail(j) * (1 + BUDGET_TOLERANCE)
                                        + BUDGET_TOLERANCE
                                    )
                                if amount > th:
                                    vf0 = False
                                    break
                            vf1 = True
                            for j, amount in d1.items():
                                th = thresh[j]
                                if th is None:
                                    th = thresh[j] = (
                                        avail(j) * (1 + BUDGET_TOLERANCE)
                                        + BUDGET_TOLERANCE
                                    )
                                if amount > th:
                                    vf1 = False
                                    break
                        if vf0 or vf1:
                            # Append-only earliest_gap on a calendar whose
                            # busy intervals all end at/before its tail is
                            # max(data_ready, tail) by construction; dead
                            # versions carry no placement and are never read.
                            st = max(data_ready, exec_tail)
                            if vf0:
                                start0[idx] = st
                                finish0[idx] = st + facts[0][0]
                                energy0[idx] = facts[0][1] + comm_energy
                            if vf1:
                                start1[idx] = st
                                finish1[idx] = st + facts[1][0]
                                energy1[idx] = facts[1][1] + comm_energy
                            kind[idx] = k = _CANDIDATE
                            pairs[idx] = [None, None, pcomms]
                            token_col[idx] = 0  # stale: tokens start at 1
                        else:
                            kind[idx] = k = _NO_VERSION
                            pairs[idx] = None
                        nb_col[idx] = not_before
                        ready_col[idx] = data_ready
                        comm_col[idx] = min_comm
                        feas0[idx] = 1 if vf0 else 0
                        feas1[idx] = 1 if vf1 else 0
                    cands[idx] = None
                    # Certificate stamps: the target machine plus every
                    # parent's machine — exactly the set a commit can move.
                    # Order is irrelevant: validity is a conjunction.
                    deps = {machine}
                    for p in parents[task]:
                        deps.add(assignments[p].machine)
                    db = dep_base + dep_off[task]
                    d = 0
                    for j in deps:
                        dep_ids[db + d] = j
                        dep_stamps[db + d] = touch[j]
                        d += 1
                    dep_n[idx] = d
                if k != _CANDIDATE:
                    continue
                if token_col[idx] != token:
                    # The one scorer: both versions with after_plan's exact
                    # arithmetic (same ops, same order) from the column
                    # facts, then the selection tie rule.
                    win = -1
                    best = 0.0
                    if feas0[idx]:
                        f = finish0[idx]
                        aet = aet_base if aet_base >= f else f
                        ratio = aet / tau
                        if aet_mode == _AET_TENT:
                            two = 2.0 - ratio
                            term = ratio if ratio <= two else two
                            if term <= 0.0:
                                term = 0.0
                        elif aet_mode == _AET_CLAMP:
                            term = ratio if ratio <= 1.0 else 1.0
                        elif aet_mode == _AET_RAW:
                            term = ratio
                        else:
                            term = -ratio
                        best = (
                            a0
                            - beta * ((tec_base + energy0[idx]) / tse)
                            + gamma * term
                        )
                        win = 0
                    if feas1[idx]:
                        f = finish1[idx]
                        aet = aet_base if aet_base >= f else f
                        ratio = aet / tau
                        if aet_mode == _AET_TENT:
                            two = 2.0 - ratio
                            term = ratio if ratio <= two else two
                            if term <= 0.0:
                                term = 0.0
                        elif aet_mode == _AET_CLAMP:
                            term = ratio if ratio <= 1.0 else 1.0
                        elif aet_mode == _AET_RAW:
                            term = ratio
                        else:
                            term = -ratio
                        score1 = (
                            a1
                            - beta * ((tec_base + energy1[idx]) / tse)
                            + gamma * term
                        )
                        # Tie rule: the secondary never counts toward T100,
                        # so it wins only strictly.
                        if win < 0 or score1 > best:
                            best = score1
                            win = 1
                    score_col[idx] = best
                    token_col[idx] = token
                    pair = pairs[idx]
                    plan = pair[win]
                    if plan is None:
                        # Materialise the winner from the columns the
                        # fused replan stored — bit-identical to the plan
                        # Schedule._plan_pair builds.
                        plan = object.__new__(ExecutionPlan)
                        plan.__dict__.update({
                            "task": task,
                            "version": _PRIMARY if win == 0 else _SECONDARY,
                            "machine": machine,
                            "start": start0[idx] if win == 0 else start1[idx],
                            "finish": finish0[idx] if win == 0 else finish1[idx],
                            "exec_energy": facts_col[idx][win][1],
                            "comms": pair[2],
                            "energy_delta": energy0[idx] if win == 0 else energy1[idx],
                            "data_ready": ready_col[idx],
                            "feasible": True,
                            "reason": "",
                        })
                        pair[win] = plan
                    cand = object.__new__(Candidate)
                    cand.__dict__.update({
                        "task": task,
                        "plan": plan,
                        "score": best,
                    })
                    cands[idx] = cand
                members.append(idx)
            # One argsort over the score column: members were gathered in
            # ascending task order and reverse sorts are stable, so equal
            # scores keep task order — exactly the (-score, task) rule.
            members.sort(key=score_col.__getitem__, reverse=True)
            pool = [cands[i] for i in members]
        perf.inc("pool.builds")
        perf.inc("pool.members", len(pool))
        if reused:
            perf.inc("pool.reuse_hits", reused)
        if invalidated:
            perf.inc("pool.invalidations", invalidated)
        if n_pairs:
            perf.inc("plan.pairs", n_pairs)
        return pool, min_release

    def replan(
        self, task: int, version: Version, machine: int, not_before: float
    ) -> ExecutionPlan:
        """Fused twin of :meth:`Schedule.plan` for the stale-pool walk
        (SLRH-2): the same channel-slot search, demand verdicts and
        placement as the generic path, materialising only the requested
        version's plan.  Every committed plan is byte-identical to the
        generic path's; infeasible plans carry an empty ``reason`` string —
        the kernel reads reasons only into a decision ledger, and ledgered
        runs never take this path (the kernel falls back to
        ``Schedule.plan``)."""
        schedule = self.schedule
        schedule.perf.inc("plan.pairs")
        pcomms, dr_floor = schedule._plan_comms_floor(task, machine, not_before)
        data_ready = max(not_before, dr_floor)
        offline_set = schedule.offline
        offline = machine in offline_set
        comm_energy = 0.0
        for c in pcomms:
            comm_energy += c.energy
            if c.src in offline_set:
                offline = True
        facts = schedule._exec_static.get((task, machine))
        if facts is None:
            facts = schedule.exec_facts(task, machine)
        duration, exec_energy = facts[0 if version is _PRIMARY else 1]
        feasible = False
        if not offline:
            avail = schedule.available_energy
            demand = schedule._net_energy_demand(
                task, machine, version, exec_energy, pcomms
            )
            feasible = True
            for j, amount in demand.items():
                if amount > avail(j) * (1 + BUDGET_TOLERANCE) + BUDGET_TOLERANCE:
                    feasible = False
                    break
        if feasible:
            # Append-only placement at the (post-commit) calendar tail.
            start = max(data_ready, schedule.exec_timeline[machine].tail)
        else:
            # Dead plans anchor at their data-ready time (see _plan_pair).
            start = data_ready
        plan = object.__new__(ExecutionPlan)
        plan.__dict__.update({
            "task": task,
            "version": version,
            "machine": machine,
            "start": start,
            "finish": start + duration,
            "exec_energy": exec_energy,
            "comms": pcomms,
            "energy_delta": exec_energy + comm_energy,
            "data_ready": data_ready,
            "feasible": feasible,
            "reason": "",
        })
        return plan
