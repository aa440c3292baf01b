"""The streaming-session subsystem (:mod:`repro.session`): event grammar,
engine semantics, the byte-identity differential against offline replay
across every heuristic and kernel mode, the rejoin touch-epoch regression,
and the NDJSON delta codec."""

from __future__ import annotations

import json
import math
import random

import pytest

from repro.core.objective import Weights
from repro.heuristics import (
    HEURISTIC_NAMES,
    SLRH_FAMILY,
    make_scheduler,
)
from repro.io.serialization import canonical_json_bytes, mapping_to_dict
from repro.session import (
    DeltaEncoder,
    SessionEngine,
    SessionEvent,
    event_from_dict,
    mapping_from_delta_ndjson,
    run_with_events,
    synthesize_events,
)
from repro.session.events import validate_events

WEIGHTS = Weights.from_alpha_beta(0.5, 0.2)
KERNEL_MODES = ("columnar", "rebuild")


@pytest.fixture(scope="module")
def scenario():
    from repro.heuristics import generate_named_scenario

    return generate_named_scenario(24, 3)


def _mapping_bytes(schedule) -> bytes:
    return canonical_json_bytes(mapping_to_dict(schedule))


def _scheduler(name: str, **config):
    if name in SLRH_FAMILY and config:
        base = make_scheduler(name, WEIGHTS)
        from dataclasses import replace

        return base.__class__(replace(base.config, **config))
    if name in ("maxmax", *SLRH_FAMILY):
        return make_scheduler(name, WEIGHTS)
    return make_scheduler(name)


# ---------------------------------------------------------------------------
# event grammar


class TestEventGrammar:
    def test_kind_field_requirements(self):
        assert SessionEvent("task_arrival", 3, task=1).task == 1
        assert SessionEvent("machine_loss", 3, machine=0).machine == 0
        with pytest.raises(ValueError):
            SessionEvent("task_arrival", 3)  # task required
        with pytest.raises(ValueError):
            SessionEvent("machine_loss", 3)  # machine required
        with pytest.raises(ValueError):
            SessionEvent("advance", 3, task=1)  # no extras
        with pytest.raises(ValueError):
            SessionEvent("close", 3, machine=1)
        with pytest.raises(ValueError):
            SessionEvent("frobnicate", 3)
        with pytest.raises(ValueError):
            SessionEvent("advance", -1)

    def test_wire_round_trip(self):
        for ev in (
            SessionEvent("task_arrival", 5, task=2),
            SessionEvent("machine_rejoin", 9, machine=1),
            SessionEvent("close", 60),
        ):
            assert event_from_dict(ev.to_dict()) == ev

    def test_event_from_dict_rejects_malformed(self):
        good = {"event": "advance", "cycle": 1}
        for bad in (
            [],  # not an object
            {"cycle": 1},  # kind missing
            {"event": "advance"},  # cycle missing
            {"event": "advance", "cycle": True},  # bool is not an int
            {"event": "advance", "cycle": 1.5},
            {"event": "task_arrival", "cycle": 1, "task": "3"},
            {**good, "unexpected": 1},
        ):
            with pytest.raises(ValueError):
                event_from_dict(bad)

    def test_validate_events_checks_ranges_and_order(self, scenario):
        with pytest.raises(IndexError):
            validate_events(
                [SessionEvent("task_arrival", 1, task=scenario.n_tasks)],
                scenario,
            )
        with pytest.raises(IndexError):
            validate_events(
                [SessionEvent("machine_loss", 1, machine=99)], scenario
            )
        with pytest.raises(ValueError):
            validate_events(
                [SessionEvent("advance", 5), SessionEvent("advance", 4)],
                scenario,
            )

    def test_synthesize_is_deterministic_and_legal(self, scenario):
        held_a, events_a = synthesize_events(
            scenario, seed=11, n_events=16, max_cycle=50
        )
        held_b, events_b = synthesize_events(
            scenario, seed=11, n_events=16, max_cycle=50
        )
        assert held_a == held_b and events_a == events_b
        validate_events(events_a, scenario)
        assert events_a[-1].kind == "close"
        arrivals = [e.task for e in events_a if e.kind == "task_arrival"]
        assert sorted(arrivals) == sorted(held_a)
        assert synthesize_events(scenario, seed=12, n_events=16, max_cycle=50)[1] != events_a


# ---------------------------------------------------------------------------
# engine semantics


class TestEngineSemantics:
    def test_rejects_illegal_streams(self, scenario):
        engine = SessionEngine(scenario, _scheduler("slrh1"), pending=(5,))
        engine.apply(SessionEvent("advance", 10))
        with pytest.raises(ValueError):  # time travel
            engine.apply(SessionEvent("advance", 9))
        with pytest.raises(ValueError):  # not held
            engine.apply(SessionEvent("task_arrival", 10, task=0))
        with pytest.raises(IndexError):
            engine.apply(SessionEvent("machine_loss", 10, machine=99))
        engine.apply(SessionEvent("machine_loss", 10, machine=1))
        with pytest.raises(ValueError):  # already offline
            engine.apply(SessionEvent("machine_loss", 11, machine=1))
        with pytest.raises(ValueError):  # machine 0 is online
            engine.apply(SessionEvent("machine_rejoin", 11, machine=0))
        engine.apply(SessionEvent("machine_rejoin", 12, machine=1))
        with pytest.raises(RuntimeError):
            engine.outcome  # not closed yet
        engine.apply(SessionEvent("task_arrival", 13, task=5))
        outcome = engine.close()
        assert engine.closed
        assert outcome.final.schedule.n_mapped == scenario.n_tasks
        with pytest.raises(ValueError):
            engine.apply(SessionEvent("advance", 99))
        assert engine.close() is outcome  # idempotent

    def test_pending_requires_slrh(self, scenario):
        with pytest.raises(ValueError):
            SessionEngine(scenario, _scheduler("greedy"), pending=(1,))
        with pytest.raises(IndexError):
            SessionEngine(scenario, _scheduler("slrh1"), pending=(999,))

    def test_static_scheduler_rejects_arrivals(self, scenario):
        engine = SessionEngine(scenario, _scheduler("greedy"))
        with pytest.raises(ValueError):
            engine.apply(SessionEvent("task_arrival", 1, task=0))

    def test_held_tasks_start_unreleased(self, scenario):
        engine = SessionEngine(scenario, _scheduler("slrh1"), pending=(7,))
        assert engine.schedule.release(7) == math.inf

    def test_loss_records_rollbacks_and_counters(self, scenario):
        scheduler = _scheduler("slrh1")
        engine = SessionEngine(scenario, scheduler)
        engine.apply(SessionEvent("advance", 30))
        assert engine.schedule.n_mapped > 0
        victim = next(iter(engine.schedule.assignments.values())).machine
        record = engine.apply(SessionEvent("machine_loss", 30, machine=victim))
        assert record is not None
        outcome = engine.close()
        assert outcome.total_rolled_back == len(record.rolled_back)
        assert outcome.n_events == 3
        perf = engine.schedule.perf
        assert perf.get("session.events") == 3.0
        assert perf.get("session.rolled_back") == len(record.rolled_back)

    def test_static_final_state_mapping_avoids_offline_machine(self, scenario):
        engine = SessionEngine(scenario, _scheduler("greedy"))
        engine.apply(SessionEvent("machine_loss", 5, machine=1))
        outcome = engine.close()
        used = {a.machine for a in outcome.final.schedule.assignments.values()}
        assert 1 not in used
        assert outcome.final.schedule.n_mapped == scenario.n_tasks


# ---------------------------------------------------------------------------
# the byte-identity differential


class TestStreamingDifferential:
    @pytest.mark.parametrize("mode", KERNEL_MODES)
    @pytest.mark.parametrize("name", HEURISTIC_NAMES)
    def test_streaming_equals_offline_replay(
        self, scenario, name, mode, monkeypatch
    ):
        """The contract of the subsystem: a streamed session, the offline
        replay of the same events and (for SLRH) the non-persistent
        per-segment rebuild all land on byte-identical final mappings, in
        every kernel mode, for every registry heuristic."""
        monkeypatch.setenv("REPRO_KERNEL", mode)
        slrh = name in SLRH_FAMILY
        held, events = synthesize_events(
            scenario,
            seed=5,
            n_events=14,
            max_cycle=50,
            pending=None if slrh else (),
        )
        # Streamed: one engine, events applied one at a time.
        engine = SessionEngine(
            scenario, _scheduler(name), pending=held if slrh else ()
        )
        for ev in events:
            engine.apply(ev)
        streamed = _mapping_bytes(engine.outcome.final.schedule)
        # Offline replay of the recorded stream (the oracle).
        replayed = run_with_events(
            scenario, _scheduler(name), events, pending=held if slrh else ()
        )
        assert _mapping_bytes(replayed.final.schedule) == streamed
        if slrh:
            scratch = run_with_events(
                scenario,
                _scheduler(name),
                events,
                pending=held,
                persistent=False,
            )
            assert _mapping_bytes(scratch.final.schedule) == streamed

    def test_kernel_modes_agree(self, scenario):
        held, events = synthesize_events(
            scenario, seed=9, n_events=16, max_cycle=60
        )
        payloads = {
            mode: _mapping_bytes(
                run_with_events(
                    scenario,
                    _scheduler("slrh1", kernel=mode),
                    events,
                    pending=held,
                ).final.schedule
            )
            for mode in KERNEL_MODES
        }
        assert len(set(payloads.values())) == 1

    def test_rejoin_reenters_candidate_pool_fresh(self, scenario):
        """Satellite regression: after machine_rejoin the machine must be
        usable again with a fresh touch epoch — the persistent columnar
        session must match the rebuild oracle on a stream whose optimum
        needs the rejoined machine."""
        events = [
            SessionEvent("machine_loss", 2, machine=1),
            SessionEvent("machine_rejoin", 6, machine=1),
            SessionEvent("advance", 40),
            SessionEvent("close", 50),
        ]
        warm = run_with_events(
            scenario, _scheduler("slrh1", kernel="columnar"), events
        )
        oracle = run_with_events(
            scenario,
            _scheduler("slrh1", kernel="rebuild"),
            events,
            persistent=False,
        )
        warm_bytes = _mapping_bytes(warm.final.schedule)
        assert warm_bytes == _mapping_bytes(oracle.final.schedule)
        used = {a.machine for a in warm.final.schedule.assignments.values()}
        assert 1 in used  # the rejoined machine is genuinely reconsidered

    def test_columnar_note_machine_return_bumps_touch_epoch(self, scenario):
        from repro.sim.schedule import Schedule

        scheduler = _scheduler("slrh1", kernel="columnar")
        schedule = Schedule(scenario)
        kernel = scheduler.make_kernel(schedule)
        scheduler.map(scenario, schedule=schedule, stop_cycle=10, kernel=kernel)
        pool = kernel.pool
        before = pool._touch[1]
        kernel.note_rejoin(1)
        assert pool._touch[1] == before + 1
        base = 1 * pool._n_tasks
        assert all(
            pool._kind[i] == -1 for i in range(base, base + pool._n_tasks)
        )


# ---------------------------------------------------------------------------
# the delta codec


def _stream_with_encoder(scenario, scheduler, events, pending=()):
    """Drive one engine the way the service does: encoder after every
    event, footer after close.  Returns (lines, final schedule)."""
    engine = SessionEngine(scenario, scheduler, pending=pending)
    encoder = DeltaEncoder(engine.schedule)
    lines: list[bytes] = []
    for ev in events:
        engine.apply(ev)
        lines.extend(encoder.delta_lines(cycle=ev.cycle, event=ev.kind))
        if engine.closed:
            lines.extend(encoder.footer_lines())
    return lines, engine.outcome.final.schedule


class TestDeltaCodec:
    @pytest.fixture(scope="class")
    def stream(self, scenario):
        held, events = synthesize_events(
            scenario, seed=21, n_events=18, max_cycle=60
        )
        # Guarantee at least one loss is present so retractions appear.
        assert any(e.kind == "machine_loss" for e in events)
        return _stream_with_encoder(
            scenario, _scheduler("slrh1"), events, pending=held
        ) + (events,)

    def test_round_trip_is_byte_identical(self, scenario, stream):
        lines, schedule, events = stream
        rebuilt = mapping_from_delta_ndjson(lines, scenario)
        assert _mapping_bytes(rebuilt) == _mapping_bytes(schedule)
        # one block per event, numbered densely
        heads = [
            json.loads(l) for l in lines if b'"record":"delta"' in l
        ]
        assert [h["seq"] for h in heads] == list(range(len(events)))
        assert [h["event"] for h in heads] == [e.kind for e in events]

    def test_quiet_events_emit_empty_delta_blocks(self, scenario):
        events = [
            SessionEvent("advance", 5),
            SessionEvent("advance", 5),  # zero-width segment: no change
            SessionEvent("close", 50),
        ]
        lines, schedule = _stream_with_encoder(
            scenario, _scheduler("slrh1"), events
        )
        heads = [json.loads(l) for l in lines if b'"record":"delta"' in l]
        assert len(heads) == 3
        assert heads[1]["n_new"] == 0 and heads[1]["n_retracted"] == 0
        rebuilt = mapping_from_delta_ndjson(lines, scenario)
        assert _mapping_bytes(rebuilt) == _mapping_bytes(schedule)

    def test_blocks_reorder_tolerant(self, scenario, stream):
        lines, schedule, _ = stream
        blocks: list[list[bytes]] = []
        footer: list[bytes] = []
        for line in lines:
            if b'"record":"delta"' in line:
                blocks.append([line])
            elif b'"record":"footer"' in line:
                footer.append(line)
            else:
                blocks[-1].append(line)
        rng = random.Random(4)
        for _ in range(3):
            rng.shuffle(blocks)
            shuffled = [ln for block in blocks for ln in block] + footer
            rebuilt = mapping_from_delta_ndjson(shuffled, scenario)
            assert _mapping_bytes(rebuilt) == _mapping_bytes(schedule)

    def test_missing_block_is_rejected(self, scenario, stream):
        lines, _, _ = stream
        blocks: list[list[bytes]] = []
        footer: list[bytes] = []
        for line in lines:
            if b'"record":"delta"' in line:
                blocks.append([line])
            elif b'"record":"footer"' in line:
                footer.append(line)
            else:
                blocks[-1].append(line)
        del blocks[2]
        kept = [ln for block in blocks for ln in block] + footer
        with pytest.raises(ValueError, match="missing block"):
            mapping_from_delta_ndjson(kept, scenario)

    def test_count_mismatch_is_rejected(self, scenario, stream):
        lines, _, _ = stream
        tampered = []
        for line in lines:
            if b'"record":"delta"' in line and b'"seq":0' in line:
                head = json.loads(line)
                head["n_new"] += 1
                line = (json.dumps(head, sort_keys=True) + "\n").encode()
            tampered.append(line)
        with pytest.raises(ValueError, match="advertises"):
            mapping_from_delta_ndjson(tampered, scenario)

    def test_orphan_and_duplicate_records_rejected(self, scenario, stream):
        lines, _, _ = stream
        with pytest.raises(ValueError, match="outside any delta block"):
            mapping_from_delta_ndjson(
                [b'{"record":"retract","task":1}\n'], scenario
            )
        with pytest.raises(ValueError, match="duplicate"):
            footer = [l for l in lines if b'"record":"footer"' in l]
            mapping_from_delta_ndjson(list(lines) + footer, scenario)
        with pytest.raises(ValueError, match="empty delta stream"):
            mapping_from_delta_ndjson([], scenario)
        with pytest.raises(ValueError, match="unknown delta-stream record"):
            mapping_from_delta_ndjson([b'{"record":"nope"}\n'], scenario)

    def test_retract_of_unannounced_task_rejected(self, scenario):
        events = [SessionEvent("close", 10)]
        lines, _ = _stream_with_encoder(scenario, _scheduler("slrh1"), events)
        head = json.loads(lines[0])
        head["n_retracted"] = 1
        tampered = [
            (json.dumps(head, sort_keys=True) + "\n").encode(),
            b'{"record":"retract","task":0}\n',
            *lines[1:],
        ]
        with pytest.raises(ValueError, match="never announced"):
            mapping_from_delta_ndjson(tampered, scenario)

    def test_footer_count_mismatch_rejected(self, scenario, stream):
        lines, _, _ = stream
        tampered = []
        for line in lines:
            if b'"record":"footer"' in line:
                foot = json.loads(line)
                foot["n_assignments"] += 1
                line = (json.dumps(foot, sort_keys=True) + "\n").encode()
            tampered.append(line)
        with pytest.raises(ValueError, match="footer advertised"):
            mapping_from_delta_ndjson(tampered, scenario)

    def test_partial_stream_without_footer_applies(self, scenario, stream):
        """A client that disconnects before close still holds a valid
        prefix: blocks up to any point reassemble and validate."""
        lines, _, _ = stream
        prefix: list[bytes] = []
        seen = 0
        for line in lines:
            if b'"record":"delta"' in line:
                seen += 1
                if seen > 4:
                    break
            prefix.append(line)
        rebuilt = mapping_from_delta_ndjson(prefix, scenario)
        assert rebuilt.n_mapped == len(rebuilt.assignments)
