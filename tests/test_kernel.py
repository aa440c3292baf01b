"""The scheduling kernel: mode resolution, pool-delta equivalence, the
byte-identity differential between the columnar and rebuild modes, and the
static slot store.

The columnar pool and the static slot store are optimisations with a
proof obligation: for every heuristic, under any event sequence, the
mapping they produce must be byte-identical to the paper's from-scratch
loop (the differential oracle, ``REPRO_KERNEL=rebuild``, which plans every
pair afresh).  These tests pin that four ways — a Hypothesis property test
equating :meth:`ColumnarPool.pool_for` with :func:`build_candidate_pool`
under random commit/advance/churn interleavings, whole-mapping byte
identity for all six registry heuristics, churn replays driven through one
persistent kernel, and a lookup-by-lookup differential of the static
baselines' slot store against fresh planning.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.maxmax import MaxMaxConfig, MaxMaxScheduler
from repro.baselines.minmin import MinMinScheduler
from repro.core.columnar import ColumnarPool
from repro.core.constants import EPSILON
from repro.core.feasibility import FeasibilityChecker
from repro.core.kernel import (
    KERNEL_MODES,
    SchedulingKernel,
    StaticSlots,
    TickPolicy,
    resolve_kernel_mode,
)
from repro.core.objective import ObjectiveFunction, Weights
from repro.core.pool import build_candidate_pool
from repro.core.slrh import SLRH1, SLRH2, SLRH3, SlrhConfig
from repro.heuristics import HEURISTIC_NAMES, run_heuristic
from repro.io.serialization import canonical_mapping_bytes
from repro.session import SessionEngine, SessionEvent, run_with_events
from repro.sim.clock import SimulationClock
from repro.sim.schedule import Schedule
from repro.sim.trace import MappingTrace
from repro.sim.validate import validate_schedule
from repro.workload.scenario import (
    generate_scenario,
    paper_scaled_grid,
    paper_scaled_spec,
    paper_scaled_suite,
)
from repro.workload.versions import PRIMARY

_WEIGHTS = Weights.from_alpha_beta(0.5, 0.2)
_SCENARIOS = {}


def _scenario(n: int, seed: int):
    key = (n, seed)
    if key not in _SCENARIOS:
        _SCENARIOS[key] = generate_scenario(
            paper_scaled_spec(n), grid=paper_scaled_grid(n), seed=seed
        )
    return _SCENARIOS[key]


class TestModeResolution:
    def test_default_is_columnar(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert resolve_kernel_mode() == "columnar"

    def test_env_selects_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "rebuild")
        assert resolve_kernel_mode() == "rebuild"

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "rebuild")
        assert resolve_kernel_mode("columnar") == "columnar"

    @pytest.mark.parametrize(
        "alias,mode",
        [
            ("Rebuild", "rebuild"), (" rebuild ", "rebuild"),
            ("Columnar", "columnar"), (" columnar ", "columnar"),
        ],
    )
    def test_aliases(self, alias, mode):
        assert resolve_kernel_mode(alias) == mode

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="unknown kernel mode"):
            resolve_kernel_mode("bogus")

    @pytest.mark.parametrize(
        "retired",
        ["incremental", "inc", "delta", "1", "on",
         "col", "flat", "full", "oracle", "0", "off"],
    )
    def test_retired_object_pool_mode_raises(self, retired, monkeypatch):
        """The object-pool mode and its aliases are gone, and so are the
        old alias spellings of the two live modes: asking for any of them
        names the two modes that remain."""
        monkeypatch.setenv("REPRO_KERNEL", retired)
        with pytest.raises(ValueError, match="columnar, rebuild"):
            resolve_kernel_mode()

    def test_ledger_forces_rebuild(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "columnar")
        assert resolve_kernel_mode("columnar", ledger=True) == "rebuild"

    def test_scheduler_with_ledger_builds_rebuild_kernel(self, tiny_scenario):
        scheduler = SLRH1(
            SlrhConfig(weights=_WEIGHTS, ledger=True, kernel="columnar")
        )
        kernel = scheduler.make_kernel(Schedule(tiny_scenario))
        assert kernel.mode == "rebuild"
        assert kernel.pool is None


class TestConstruction:
    def test_policy_rejects_unknown_refresh(self):
        with pytest.raises(ValueError, match="refresh"):
            TickPolicy(max_commits=1, refresh="sometimes")

    def test_policy_rejects_nonpositive_commits(self):
        with pytest.raises(ValueError, match="max_commits"):
            TickPolicy(max_commits=0, refresh="none")

    def test_kernel_rejects_unknown_mode(self, tiny_scenario):
        schedule = Schedule(tiny_scenario)
        with pytest.raises(ValueError, match="kernel mode"):
            SchedulingKernel(schedule, None, None, mode="bogus")

    def test_kernel_rejects_unknown_machine_order(self, tiny_scenario):
        schedule = Schedule(tiny_scenario)
        with pytest.raises(ValueError, match="machine_order"):
            SchedulingKernel(schedule, None, None, machine_order="alphabetical")

    def test_modes_constant_covers_all_paths(self):
        assert KERNEL_MODES == ("columnar", "rebuild")

    def test_map_rejects_foreign_kernel(self, tiny_scenario):
        scheduler = SLRH1(SlrhConfig(weights=_WEIGHTS))
        foreign = scheduler.make_kernel(Schedule(tiny_scenario))
        with pytest.raises(ValueError, match="different schedule"):
            scheduler.map(
                tiny_scenario, schedule=Schedule(tiny_scenario), kernel=foreign
            )


def _pool_key(pool):
    """Comparable image of an ordered candidate pool — every field a fresh
    build determines, bit-for-bit."""
    return [
        (
            c.task,
            c.version,
            c.plan.machine,
            c.plan.start,
            c.plan.finish,
            c.plan.data_ready,
            c.plan.energy_delta,
            tuple((x.src, x.dst, x.start, x.finish) for x in c.plan.comms),
            c.score,
        )
        for c in pool
    ]


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=5),
    n=st.sampled_from([8, 12, 16]),
    data=st.data(),
)
def test_columnar_pool_matches_rebuild_under_random_events(seed, n, data):
    """THE kernel property: after any interleaving of commits, clock
    advances, and churn-style invalidations, the columnar pool is
    identical (members, plans, scores, order) to a from-scratch build."""
    scenario = _scenario(n, seed)
    schedule = Schedule(scenario)
    checker = FeasibilityChecker(scenario)
    objective = ObjectiveFunction.for_scenario(scenario, _WEIGHTS)
    cpool = ColumnarPool(schedule, checker, objective)
    n_machines = scenario.n_machines
    offline: set[int] = set()
    nb = 0.0

    def check(machine: int) -> list:
        columnar, _ = cpool.pool_for(machine, nb)
        oracle = build_candidate_pool(
            schedule, checker, objective, machine, not_before=nb
        )
        assert _pool_key(columnar) == _pool_key(oracle)
        return columnar

    actions = data.draw(
        st.lists(
            st.sampled_from(["query", "commit", "advance", "churn"]),
            min_size=4,
            max_size=14,
        )
    )
    for action in actions:
        online = [j for j in range(n_machines) if j not in offline]
        if action in ("query", "commit") and online:
            machine = data.draw(st.sampled_from(online))
            members = check(machine)
            if action == "commit" and members and not schedule.is_complete:
                plan = members[data.draw(
                    st.integers(min_value=0, max_value=len(members) - 1)
                )].plan
                schedule.commit(plan)
                cpool.note_commit(plan)
        elif action == "advance":
            nb += data.draw(st.floats(min_value=0.5, max_value=400.0))
        elif action == "churn":
            machine = data.draw(st.integers(min_value=0, max_value=n_machines - 1))
            if machine in offline:
                offline.discard(machine)
                schedule.set_offline(machine, False)
            else:
                offline.add(machine)
                schedule.set_offline(machine, True)
            cpool.invalidate_all()
    # Final sweep: every online machine agrees with the oracle.
    for machine in range(n_machines):
        if machine not in offline:
            check(machine)


def _map_with_mode(name: str, scenario, mode: str, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", mode)
    if name in ("minmin", "greedy"):
        return run_heuristic(name, scenario)
    return run_heuristic(name, scenario, 0.5, 0.2)


class TestByteIdentity:
    """Mapping bytes must not depend on the kernel mode — for any registry
    heuristic (the static baselines are mode-blind by construction; the
    SLRH family is where the columnar pool earns its keep)."""

    @pytest.mark.parametrize("name", HEURISTIC_NAMES)
    def test_registry_heuristics_identical_across_modes(
        self, name, small_scenario, monkeypatch
    ):
        results = {
            mode: _map_with_mode(name, small_scenario, mode, monkeypatch)
            for mode in KERNEL_MODES
        }
        assert canonical_mapping_bytes(results["columnar"].schedule) == (
            canonical_mapping_bytes(results["rebuild"].schedule)
        )

    @pytest.mark.parametrize("name", ["slrh3", "maxmax"])
    def test_identical_across_seeds_and_cases(self, name, monkeypatch):
        suite = paper_scaled_suite(20, n_etc=2, n_dag=1, seed=99)
        for e in range(suite.n_etc):
            for case in ("A", "C"):
                scenario = suite.scenario(e, 0, case)
                columnar, rebuild = (
                    _map_with_mode(name, scenario, mode, monkeypatch)
                    for mode in ("columnar", "rebuild")
                )
                assert canonical_mapping_bytes(columnar.schedule) == (
                    canonical_mapping_bytes(rebuild.schedule)
                )
                validate_schedule(columnar.schedule)

    @pytest.mark.parametrize("cls", [SLRH1, SLRH2, SLRH3])
    def test_slrh_trace_counters_identical_across_modes(self, cls, small_scenario):
        traces = {}
        for mode in KERNEL_MODES:
            cfg = SlrhConfig(weights=_WEIGHTS, kernel=mode)
            traces[mode] = cls(cfg).map(small_scenario).trace
        reb, got = traces["rebuild"], traces["columnar"]
        assert (got.ticks, got.machine_scans, got.empty_pool_ticks) == (
            reb.ticks, reb.machine_scans, reb.empty_pool_ticks
        )
        assert got.records == reb.records

    @pytest.mark.parametrize("order", ["battery", "round_robin"])
    def test_machine_order_variants_identical_across_modes(
        self, order, small_scenario
    ):
        mappings = {}
        for mode in KERNEL_MODES:
            cfg = SlrhConfig(weights=_WEIGHTS, kernel=mode, machine_order=order)
            mappings[mode] = canonical_mapping_bytes(
                SLRH2(cfg).map(small_scenario).schedule
            )
        assert mappings["columnar"] == mappings["rebuild"]

    def test_columnar_kernel_actually_reuses_entries(self, small_scenario):
        result = SLRH1(SlrhConfig(weights=_WEIGHTS, kernel="columnar")).map(
            small_scenario
        )
        perf = result.trace.perf
        assert perf.get("pool.reuse_hits", 0) > 0
        assert perf.get("pool.invalidations", 0) > 0

    def test_rebuild_plans_every_pair_afresh(self, small_scenario):
        """The oracle is the paper's from-scratch loop: it plans at least
        one pair per pool member, where the columnar pool re-plans only
        dirty slots."""
        perfs = {
            mode: SLRH1(SlrhConfig(weights=_WEIGHTS, kernel=mode))
            .map(small_scenario)
            .trace.perf
            for mode in KERNEL_MODES
        }
        assert perfs["rebuild"]["plan.pairs"] >= perfs["rebuild"]["pool.members"]
        assert perfs["columnar"]["plan.pairs"] < perfs["rebuild"]["plan.pairs"]

    def test_ledger_contents_match_rebuild(self, small_scenario):
        """A ledgered run (forced onto the rebuild path) must report the
        same rejection history as an explicitly rebuild-mode run."""
        via_default = SLRH1(SlrhConfig(weights=_WEIGHTS, ledger=True)).map(
            small_scenario
        )
        via_rebuild = SLRH1(
            SlrhConfig(weights=_WEIGHTS, ledger=True, kernel="rebuild")
        ).map(small_scenario)
        assert via_default.trace.ledger.records == via_rebuild.trace.ledger.records
        assert canonical_mapping_bytes(via_default.schedule) == (
            canonical_mapping_bytes(via_rebuild.schedule)
        )


class TestChurnDifferential:
    """One kernel persisted across loss/rejoin segments, fed by the
    session engine's ``note_*`` deltas: the whole timeline — mappings,
    rollbacks, traces — is byte-identical to the rebuild oracle."""

    _EVENTS = (
        SessionEvent("machine_loss", 2, machine=1),
        SessionEvent("machine_rejoin", 5, machine=1),
        SessionEvent("machine_loss", 7, machine=3),
    )

    @staticmethod
    def _outcomes(cls, scenario, events):
        return {
            mode: run_with_events(
                scenario, cls(SlrhConfig(weights=_WEIGHTS, kernel=mode)), events
            )
            for mode in KERNEL_MODES
        }

    @pytest.mark.parametrize("cls", [SLRH1, SLRH2, SLRH3])
    def test_churn_identical_across_modes(self, cls, small_scenario):
        outcomes = self._outcomes(cls, small_scenario, self._EVENTS)
        reb, got = outcomes["rebuild"], outcomes["columnar"]
        assert canonical_mapping_bytes(got.final.schedule) == (
            canonical_mapping_bytes(reb.final.schedule)
        )
        assert got.records == reb.records
        assert got.final.trace.records == reb.final.trace.records
        assert (
            got.final.trace.ticks,
            got.final.trace.machine_scans,
            got.final.trace.empty_pool_ticks,
        ) == (
            reb.final.trace.ticks,
            reb.final.trace.machine_scans,
            reb.final.trace.empty_pool_ticks,
        )

    @pytest.mark.parametrize("cls", [SLRH1, SLRH3], ids=lambda c: c.name)
    def test_mid_run_loss_and_rejoin_replay(self, cls, small_scenario):
        """Loss and rejoin well into the run roll back committed work:
        timeline releases, offline flips and unassign's parent-epoch bumps
        all land on a warm columnar pool."""
        quarter = int(small_scenario.tau / 4 / 0.1)
        events = (
            SessionEvent("machine_loss", quarter, machine=0),
            SessionEvent("machine_rejoin", 2 * quarter, machine=0),
            SessionEvent("machine_loss", 2 * quarter + 5, machine=1),
        )
        outcomes = self._outcomes(cls, small_scenario, events)
        reb, got = outcomes["rebuild"], outcomes["columnar"]
        assert got.final.schedule.assignments == reb.final.schedule.assignments
        assert got.final.summary() | {"heuristic_seconds": 0} == (
            reb.final.summary() | {"heuristic_seconds": 0}
        )
        assert [r.rolled_back for r in got.records] == [
            r.rolled_back for r in reb.records
        ]
        assert any(r.rolled_back for r in got.records)
        validate_schedule(got.final.schedule)


_STATIC_MAPPERS = [
    pytest.param(lambda: MaxMaxScheduler(MaxMaxConfig(weights=_WEIGHTS)), id="maxmax"),
    pytest.param(
        lambda: MaxMaxScheduler(
            MaxMaxConfig(weights=_WEIGHTS, machine_stage="objective")
        ),
        id="maxmax-objective",
    ),
    pytest.param(MinMinScheduler, id="minmin"),
]


class TestStaticKernelMode:
    """Max-Max and Min-Min obey the kernel mode: under ``rebuild`` the
    static round loop plans every pair afresh (no memo), maps the same
    bytes, and so plans strictly more pairs than under ``columnar``."""

    @pytest.mark.parametrize("build", _STATIC_MAPPERS)
    def test_rebuild_mode_plans_every_pair_afresh(self, build, monkeypatch):
        scenario = paper_scaled_suite(40, n_etc=1, n_dag=1, seed=11).scenario(
            0, 0, "A"
        )
        monkeypatch.setenv("REPRO_KERNEL", "columnar")
        columnar = build().map(scenario)
        monkeypatch.setenv("REPRO_KERNEL", "rebuild")
        rebuild = build().map(scenario)
        assert canonical_mapping_bytes(rebuild.schedule) == (
            canonical_mapping_bytes(columnar.schedule)
        )
        assert rebuild.schedule.perf.get("plan.pairs") > (
            columnar.schedule.perf.get("plan.pairs")
        )


class TestStaticPlanMemo:
    """The static round loop's plan memo — the :class:`StaticSlots` store,
    one certificate per plan part — serves exactly what fresh planning
    would: the mapping bytes of the ``rebuild`` kernel (whose store
    re-plans every lookup), and at every lookup the verdicts and feasible
    plans of a fresh ``Schedule._plan_pair``.  Reason strings are not
    part of the contract: the store keeps none."""

    @pytest.mark.parametrize("build", _STATIC_MAPPERS)
    @pytest.mark.parametrize("case", ["A", "C"])
    def test_memo_matches_fresh_planning(self, build, case, monkeypatch):
        scenario = paper_scaled_suite(40, n_etc=1, n_dag=1, seed=11).scenario(
            0, 0, case
        )
        monkeypatch.setenv("REPRO_KERNEL", "columnar")
        shipped = build().map(scenario)
        monkeypatch.setenv("REPRO_KERNEL", "rebuild")
        fresh = build().map(scenario)
        assert canonical_mapping_bytes(shipped.schedule) == (
            canonical_mapping_bytes(fresh.schedule)
        )
        # The store is live: it saved re-planning.
        assert shipped.schedule.perf.get("plan.pairs") < (
            fresh.schedule.perf.get("plan.pairs")
        )

    @pytest.mark.parametrize("build", _STATIC_MAPPERS)
    @pytest.mark.parametrize("case", ["A", "B", "C"])
    def test_every_lookup_equals_a_fresh_plan(self, build, case, monkeypatch):
        """The store's contract, checked lookup by lookup: both energy
        verdicts equal a fresh search's on the current schedule, and so
        does every version the lookup placed (start, finish, comms,
        data-ready time, energy).  Each round's winner scores exactly
        ``after_plan`` of the plan it commits.  Stronger than the
        mapping-bytes differential, which a stale slot that never wins a
        round cannot fail."""
        monkeypatch.setenv("REPRO_KERNEL", "columnar")
        scenario = paper_scaled_suite(64, n_etc=1, n_dag=1, seed=1).scenario(
            0, 0, case
        )
        served = StaticSlots.lookup
        build_plan = StaticSlots.plan
        lookups = placed_versions = 0

        def checked(slots, task, machine, *, first_feasible=False):
            nonlocal lookups, placed_versions
            lookups += 1
            idx = served(slots, task, machine, first_feasible=first_feasible)
            fresh = slots._schedule._plan_pair(task, machine, 0.0, True)
            placed = False
            for vi, plan in enumerate(fresh):
                assert slots.feasible[vi][idx] == plan.feasible, (task, machine, vi)
                if plan.feasible and not (first_feasible and placed):
                    assert build_plan(slots, idx, vi) == plan, (task, machine, vi)
                    placed = True
                    placed_versions += 1
            return idx

        # Every score a round computes, with its objective; a round that
        # scored (Max-Max) must commit a plan whose after_plan is one of
        # them and within the tie window of the best.
        scores: list[tuple[ObjectiveFunction, float]] = []
        value = ObjectiveFunction.value
        begin_round = StaticSlots.begin_round
        winners = 0

        def scored(objective, t100, tec, aet):
            score = value(objective, t100, tec, aet)
            scores.append((objective, score))
            return score

        def new_round(slots):
            scores.clear()
            begin_round(slots)

        def winner(slots, idx, vi):
            nonlocal winners
            plan = build_plan(slots, idx, vi)
            if scores:
                winners += 1
                offered = [score for _, score in scores]
                score = scores[0][0].after_plan(slots._schedule, plan)
                assert score in offered
                assert max(offered) <= score + 1e-12
            return plan

        monkeypatch.setattr(StaticSlots, "lookup", checked)
        monkeypatch.setattr(StaticSlots, "begin_round", new_round)
        monkeypatch.setattr(StaticSlots, "plan", winner)
        monkeypatch.setattr(ObjectiveFunction, "value", scored)
        result = build().map(scenario)
        assert winners > 0 or isinstance(build(), MinMinScheduler)
        assert lookups > 0 and placed_versions > 0
        assert result.schedule.n_mapped > 0

    @pytest.mark.parametrize("build", _STATIC_MAPPERS)
    def test_session_final_state_map_on_partial_schedule(self, build, monkeypatch):
        """A session's final-state static map runs on a partly mapped
        schedule (an SLRH-1 prefix, rolled back at a machine loss) with
        that machine offline."""
        scenario = _scenario(24, 3)

        def close_session() -> bytes:
            engine = SessionEngine(scenario, build())
            schedule = engine.schedule
            SLRH1(SlrhConfig(weights=_WEIGHTS)).map(
                scenario, schedule=schedule, stop_cycle=40
            )
            engine.apply(SessionEvent("machine_loss", 40, machine=1))
            partial = schedule.n_mapped
            assert 0 < partial < scenario.n_tasks and 1 in schedule.offline
            engine.close()
            assert schedule.n_mapped > partial
            return canonical_mapping_bytes(schedule)

        monkeypatch.setenv("REPRO_KERNEL", "columnar")
        shipped = close_session()
        monkeypatch.setenv("REPRO_KERNEL", "rebuild")
        fresh = close_session()
        assert shipped == fresh

    @pytest.mark.parametrize(
        "change",
        ["in_channel", "out_channel", "exec_slot", "energy", "energy_release"],
    )
    def test_each_check_rejects_the_change_it_guards(self, change, tiny_scenario):
        """White-box, one certificate at a time, on a task with one remote
        parent: a transfer slot taken on either channel re-plans the
        transfers (one ``plan.pairs``); a taken exec slot re-runs only the
        exec gap search; a drained budget turns the verdict infeasible and
        a released reserve turns it feasible again, neither re-planning.
        Commits rarely move one of these alone, so the end-to-end tests
        above cannot single each certificate out."""
        schedule = Schedule(tiny_scenario)
        root = tiny_scenario.dag.roots[0]
        schedule.commit(schedule.plan(root, PRIMARY, 0, insertion=True))
        task, machine = 8, 1  # root's only child on machine 0 -> 1
        slots = StaticSlots(schedule, fresh=False)
        pairs = schedule.perf.get

        def look() -> int:
            slots.begin_round()
            return slots.lookup(task, machine)

        idx = look()
        before = slots.plan(idx, 0)
        (comm,) = before.comms
        assert slots.feasible[0][idx]
        planned = pairs("plan.pairs")
        held = 0.0
        if change == "in_channel":
            schedule.in_channel[machine].reserve(comm.start, comm.finish)
        elif change == "out_channel":
            schedule.out_channel[comm.src].reserve(comm.start, comm.finish)
        elif change == "exec_slot":
            schedule.exec_timeline[machine].reserve(before.start, before.finish)
        elif change == "energy":
            schedule.debit_external(machine, schedule.available_energy(machine))
        else:
            # Hold a reserve that leaves the primary unaffordable ...
            held = schedule.available_energy(machine)
            schedule._reserved[machine] += held
            assert not slots.feasible[0][look()]
            # ... then release it: the verdict flips back.
            schedule._reserved[machine] -= held
        idx = look()
        replans = pairs("plan.pairs") - planned
        fresh = schedule._plan_pair(task, machine, 0.0, True)
        for vi, plan in enumerate(fresh):
            assert slots.feasible[vi][idx] == plan.feasible
            if plan.feasible:
                assert slots.plan(idx, vi) == plan
        if change in ("in_channel", "out_channel"):
            assert replans == 1
            assert slots.plan(idx, 0).comms != before.comms
        else:
            assert replans == 0
        if change == "exec_slot":
            assert slots.plan(idx, 0).start > before.start
            assert slots.plan(idx, 0).comms == before.comms
        if change == "energy":
            assert not slots.feasible[0][idx] and not fresh[0].feasible
        if change == "energy_release":
            assert slots.feasible[0][idx] and slots.plan(idx, 0) == before

    def test_memo_lives_only_inside_run_static(self, small_scenario):
        schedule = Schedule(small_scenario)
        objective = ObjectiveFunction.for_scenario(small_scenario, _WEIGHTS)
        kernel = SchedulingKernel(schedule, None, objective)
        root = small_scenario.dag.roots[0]
        with pytest.raises(RuntimeError, match="only inside run_static"):
            kernel.slots
        seen = []

        def select():
            slots = kernel.slots
            assert isinstance(slots, StaticSlots)
            idx = slots.lookup(root, 0)
            first = schedule.perf.get("plan.pairs")
            assert slots.lookup(root, 0) == idx
            seen.append((slots.plan(idx, 0), first, schedule.perf.get("plan.pairs")))
            return None, 0

        kernel.run_static(select, MappingTrace())
        plan, first, second = seen[0]
        assert first == second == 1  # the second lookup is a hit
        assert plan == schedule.plan_versions(root, 0, insertion=True)[0]
        with pytest.raises(RuntimeError, match="only inside run_static"):
            kernel.slots


class TestSleepGate:
    """Regression pin for the early-wake rounding bug: the legacy sleep
    computation stored ``min_release - latency - 1e-9`` as a wake *time*,
    and the two chained subtractions could round that threshold below the
    release gate's own arithmetic ``release > (now + latency) + EPSILON``.
    A machine then woke one tick early and burned a pool build on a gate
    that was still closed.  The constants below are a concrete float
    counterexample (cycle 22 at 0.1 s/cycle, latency of 3 cycles)."""

    _CS = 0.1
    _CYCLE = 22
    _LAT = 3 * 0.1  # 0.30000000000000004
    _RELEASE = 2.5000000010000005

    def test_counterexample_splits_the_two_formulas(self):
        """At the pinned instant the legacy wake formula says 'serve' while
        the release gate the serve would actually apply is still closed."""
        now = self._CYCLE * self._CS
        legacy_wake = self._RELEASE - self._LAT - 1e-9
        assert now >= legacy_wake  # legacy sleep state: machine wakes
        # ...but the pool's release gate rejects the task at this instant:
        assert self._RELEASE > (now + self._LAT) + EPSILON

    def test_kernel_asleep_uses_gate_arithmetic(self):
        """`_asleep` evaluates the raw release time with the gate's own
        arithmetic: still asleep at the counterexample instant, awake once
        the gate genuinely opens."""
        scenario = _scenario(8, 0)
        schedule = Schedule(scenario)
        checker = FeasibilityChecker(scenario)
        objective = ObjectiveFunction.for_scenario(scenario, _WEIGHTS)
        kernel = SchedulingKernel(
            schedule,
            checker,
            objective,
            mode="columnar",
            decision_latency_seconds=self._LAT,
        )
        kernel._wake_release[0] = self._RELEASE
        kernel._wake_ready[0] = math.inf
        asleep_clock = SimulationClock(
            delta_t_cycles=10, horizon_cycles=100,
            cycle_seconds=self._CS, cycle=self._CYCLE,
        )
        assert kernel._asleep(0, asleep_clock)
        awake_clock = SimulationClock(
            delta_t_cycles=10, horizon_cycles=100,
            cycle_seconds=self._CS, cycle=25,
        )
        assert not kernel._asleep(0, awake_clock)

    def test_wake_all_resets_both_event_times(self):
        scenario = _scenario(8, 0)
        schedule = Schedule(scenario)
        checker = FeasibilityChecker(scenario)
        objective = ObjectiveFunction.for_scenario(scenario, _WEIGHTS)
        kernel = SchedulingKernel(schedule, checker, objective, mode="columnar")
        kernel._wake_release[1] = 99.0
        kernel._wake_ready[1] = 99.0
        kernel._wake_all()
        clock = SimulationClock()
        assert not kernel._asleep(1, clock)
        assert kernel._wake_release[1] == -math.inf
        assert kernel._wake_ready[1] == -math.inf


class TestReleaseTimesDifferential:
    """generate_scenario leaves arrivals at 0.0; attaching staggered release
    times exercises the sleep/wake path (machines provably idle until the
    next arrival) — both kernels must still agree byte for byte,
    including the tick counters the columnar fast-forward bulk-adds."""

    @pytest.mark.parametrize("cls", [SLRH1, SLRH2, SLRH3])
    def test_staggered_releases_identical_across_modes(self, cls, small_scenario):
        n = small_scenario.n_tasks
        releases = [(task % 7) * 1.5 + (task % 3) * 0.1 for task in range(n)]
        scenario = small_scenario.with_release_times(releases)
        results = {}
        for mode in KERNEL_MODES:
            results[mode] = cls(SlrhConfig(weights=_WEIGHTS, kernel=mode)).map(
                scenario
            )
        reb, got = results["rebuild"], results["columnar"]
        assert canonical_mapping_bytes(got.schedule) == (
            canonical_mapping_bytes(reb.schedule)
        )
        assert got.trace.records == reb.trace.records
        assert (got.trace.ticks, got.trace.machine_scans, got.trace.empty_pool_ticks) == (
            reb.trace.ticks, reb.trace.machine_scans, reb.trace.empty_pool_ticks
        )
