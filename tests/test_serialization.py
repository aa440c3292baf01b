"""JSON round-tripping of scenarios and mappings."""

import json

import numpy as np
import pytest

from repro.core.slrh import SLRH1
from repro.io.serialization import (
    canonical_json_bytes,
    canonical_mapping_bytes,
    load_mapping,
    load_scenario,
    mapping_from_dict,
    mapping_to_dict,
    save_mapping,
    save_scenario,
    scenario_digest,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.session import (
    DeltaEncoder,
    SessionEngine,
    SessionEvent,
    mapping_from_delta_ndjson,
    run_with_events,
)
from repro.sim.validate import ValidationError


def _one_block(schedule) -> list[bytes]:
    """A finished mapping as ``map --ndjson`` streams it: one delta block
    at cycle 0 with event ``close``, then the footer."""
    encoder = DeltaEncoder(schedule)
    return [*encoder.delta_lines(cycle=0, event="close"), *encoder.footer_lines()]


class TestScenarioRoundTrip:
    def test_lossless(self, small_scenario):
        restored = scenario_from_dict(scenario_to_dict(small_scenario))
        assert np.array_equal(restored.etc, small_scenario.etc)
        assert restored.dag.edges() == small_scenario.dag.edges()
        assert restored.data_sizes == small_scenario.data_sizes
        assert restored.tau == small_scenario.tau
        assert restored.name == small_scenario.name
        assert len(restored.grid) == len(small_scenario.grid)
        for a, b in zip(restored.grid, small_scenario.grid):
            assert a == b

    def test_file_roundtrip(self, small_scenario, tmp_path):
        path = tmp_path / "scenario.json"
        save_scenario(small_scenario, path)
        restored = load_scenario(path)
        assert np.array_equal(restored.etc, small_scenario.etc)

    def test_document_is_plain_json(self, small_scenario, tmp_path):
        path = tmp_path / "scenario.json"
        save_scenario(small_scenario, path)
        data = json.loads(path.read_text())
        assert data["kind"] == "scenario"

    def test_wrong_kind_rejected(self, small_scenario):
        doc = scenario_to_dict(small_scenario)
        doc["kind"] = "mapping"
        with pytest.raises(ValueError):
            scenario_from_dict(doc)

    def test_wrong_format_rejected(self, small_scenario):
        doc = scenario_to_dict(small_scenario)
        doc["format"] = 99
        with pytest.raises(ValueError):
            scenario_from_dict(doc)


class TestMappingRoundTrip:
    @pytest.fixture(scope="class")
    def mapped(self, small_scenario, mid_config):
        return SLRH1(mid_config).map(small_scenario)

    def test_lossless_replay(self, mapped, small_scenario):
        restored = mapping_from_dict(mapping_to_dict(mapped.schedule), small_scenario)
        assert restored.n_mapped == mapped.schedule.n_mapped
        assert restored.t100 == mapped.schedule.t100
        assert restored.makespan == pytest.approx(mapped.schedule.makespan)
        assert restored.total_energy_consumed == pytest.approx(
            mapped.schedule.total_energy_consumed
        )
        for t, a in mapped.schedule.assignments.items():
            b = restored.assignments[t]
            assert (b.machine, b.version) == (a.machine, a.version)
            assert b.start == pytest.approx(a.start)
            assert b.finish == pytest.approx(a.finish)

    def test_file_roundtrip(self, mapped, small_scenario, tmp_path):
        path = tmp_path / "mapping.json"
        save_mapping(mapped.schedule, path)
        restored = load_mapping(path, small_scenario)
        assert restored.t100 == mapped.t100

    def test_tampered_duration_rejected(self, mapped, small_scenario):
        doc = mapping_to_dict(mapped.schedule)
        doc["assignments"][0]["finish"] += 1000.0
        with pytest.raises((ValidationError, ValueError)):
            mapping_from_dict(doc, small_scenario)

    def test_tampered_overlap_rejected(self, mapped, small_scenario):
        doc = mapping_to_dict(mapped.schedule)
        recs = doc["assignments"]
        same_machine = [r for r in recs if r["machine"] == recs[0]["machine"]]
        if len(same_machine) < 2:
            pytest.skip("need two assignments on one machine")
        same_machine[1]["start"] = same_machine[0]["start"]
        same_machine[1]["finish"] = same_machine[0]["finish"]
        with pytest.raises((ValidationError, ValueError)):
            mapping_from_dict(doc, small_scenario)

    def test_wrong_kind_rejected(self, mapped, small_scenario):
        doc = mapping_to_dict(mapped.schedule)
        doc["kind"] = "scenario"
        with pytest.raises(ValueError):
            mapping_from_dict(doc, small_scenario)

    def test_external_debits_roundtrip(self, small_scenario, mid_config):
        result = SLRH1(mid_config).map(small_scenario)
        # Debit within whatever the run left on machine 0.
        amount = result.schedule.energy.remaining(0) / 2
        result.schedule.debit_external(0, amount)
        restored = mapping_from_dict(
            mapping_to_dict(result.schedule), small_scenario
        )
        assert restored.external_debits[0] == pytest.approx(amount)


class TestChurnMappingRoundTrip:
    """A mapping produced under churn (loss + rejoin, rolled-back work,
    sunk-energy debits) must survive the serialise → replay cycle with
    identical energy accounting."""

    @pytest.fixture(scope="class")
    def churned(self, small_scenario, mid_config):
        from repro.session import SessionEvent, run_with_events

        quarter = int(small_scenario.tau / 4 / 0.1)
        outcome = run_with_events(
            small_scenario,
            SLRH1(mid_config),
            [
                SessionEvent("machine_loss", quarter, machine=1),
                SessionEvent("machine_rejoin", 2 * quarter, machine=1),
            ],
        )
        assert outcome.total_rolled_back > 0  # the loss actually bit
        return outcome

    def test_replay_accepts_churned_mapping(self, churned, small_scenario):
        schedule = churned.final.schedule
        restored = mapping_from_dict(mapping_to_dict(schedule), small_scenario)
        assert restored.n_mapped == schedule.n_mapped
        assert restored.t100 == schedule.t100
        for t, a in schedule.assignments.items():
            b = restored.assignments[t]
            assert (b.machine, b.version) == (a.machine, a.version)
            assert b.start == pytest.approx(a.start)
            assert b.finish == pytest.approx(a.finish)

    def test_energy_accounting_identical(self, churned, small_scenario):
        schedule = churned.final.schedule
        restored = mapping_from_dict(mapping_to_dict(schedule), small_scenario)
        # Sunk energy from rolled-back work travels via external debits.
        sunk = sum(r.sunk_energy for r in churned.records)
        assert sunk > 0
        assert sum(restored.external_debits) == pytest.approx(
            sum(schedule.external_debits)
        )
        assert restored.total_energy_consumed == pytest.approx(
            schedule.total_energy_consumed
        )
        for j in range(small_scenario.n_machines):
            assert restored.energy.remaining(j) == pytest.approx(
                schedule.energy.remaining(j)
            )

    def test_canonical_bytes_stable_across_replay(self, churned, small_scenario):
        schedule = churned.final.schedule
        payload = canonical_mapping_bytes(schedule)
        restored = mapping_from_dict(json.loads(payload), small_scenario)
        assert canonical_mapping_bytes(restored) == payload


class TestCanonicalEncoding:
    def test_canonical_bytes_key_order_independent(self):
        assert canonical_json_bytes({"b": 1, "a": [1.5, 2]}) == canonical_json_bytes(
            {"a": [1.5, 2], "b": 1}
        )
        assert canonical_json_bytes({"a": 1}).endswith(b"\n")

    def test_scenario_digest_matches_dict_and_object(self, small_scenario):
        doc = scenario_to_dict(small_scenario)
        assert scenario_digest(small_scenario) == scenario_digest(doc)
        assert scenario_digest(doc).startswith("sha256:")

    def test_scenario_digest_sensitive_to_content(self, small_scenario):
        doc = scenario_to_dict(small_scenario)
        other = json.loads(json.dumps(doc))
        other["tau"] += 1.0
        assert scenario_digest(other) != scenario_digest(doc)

    def test_scenario_digest_rejects_non_scenarios(self):
        with pytest.raises(ValueError):
            scenario_digest({"kind": "mapping"})


class TestNdjsonMappingStream:
    """A finished mapping through the one NDJSON encoding, the session
    delta stream, as a single block."""

    @pytest.fixture(scope="class")
    def mapped(self, small_scenario, mid_config):
        return SLRH1(mid_config).map(small_scenario)

    def test_roundtrip(self, mapped, small_scenario):
        lines = _one_block(mapped.schedule)
        head = json.loads(lines[0])
        assert head["record"] == "delta"
        assert head["n_new"] == mapped.schedule.n_mapped
        assert len(lines) == mapped.schedule.n_mapped + 2
        restored = mapping_from_delta_ndjson(lines, small_scenario)
        assert canonical_mapping_bytes(restored) == canonical_mapping_bytes(
            mapped.schedule
        )

    def test_partial_prefix_replays(self, mapped, small_scenario):
        lines = _one_block(mapped.schedule)
        # A prefix of whole blocks replays: here the block without its
        # footer.  A block cut midway is rejected, like a tampered file.
        restored = mapping_from_delta_ndjson(lines[:-1], small_scenario)
        assert restored.n_mapped == mapped.schedule.n_mapped
        with pytest.raises(ValueError, match="advertises"):
            mapping_from_delta_ndjson(lines[:2], small_scenario)

    def test_text_lines_accepted(self, mapped, small_scenario):
        text = [line.decode() for line in _one_block(mapped.schedule)]
        restored = mapping_from_delta_ndjson(text, small_scenario)
        assert restored.n_mapped == mapped.schedule.n_mapped

    def test_malformed_streams_rejected(self, mapped, small_scenario):
        lines = _one_block(mapped.schedule)
        with pytest.raises(ValueError, match="empty"):
            mapping_from_delta_ndjson([], small_scenario)
        with pytest.raises(ValueError, match="outside any delta block"):
            mapping_from_delta_ndjson(lines[1:2], small_scenario)
        with pytest.raises(ValueError, match="outside any delta block"):
            mapping_from_delta_ndjson(lines + lines[1:2], small_scenario)
        with pytest.raises(ValueError, match="advertises"):
            mapping_from_delta_ndjson([lines[0], lines[-1]], small_scenario)
        with pytest.raises(ValueError, match="missing block 1"):
            mapping_from_delta_ndjson(lines[:-1] * 2, small_scenario)
        with pytest.raises(ValueError, match="duplicate"):
            mapping_from_delta_ndjson(lines + lines[-1:], small_scenario)


class TestSessionMappingNdjson:
    """NDJSON round-trips of mappings produced by live sessions —
    interleaved mid-run arrivals and machine losses, sunk-energy debits,
    and out-of-order client reads."""

    @staticmethod
    def _events(scenario):
        quarter = int(scenario.tau / 4 / 0.1)
        held = tuple(scenario.dag.topological_order[-3:])
        return held, [
            SessionEvent("task_arrival", quarter // 2, task=held[0]),
            SessionEvent("machine_loss", quarter, machine=1),
            SessionEvent("task_arrival", quarter + 2, task=held[1]),
            SessionEvent("machine_rejoin", 2 * quarter, machine=1),
            SessionEvent("task_arrival", 2 * quarter + 2, task=held[2]),
            SessionEvent("close", 4 * quarter),
        ]

    @pytest.fixture(scope="class")
    def sessioned(self, small_scenario, mid_config):
        held, events = self._events(small_scenario)
        outcome = run_with_events(
            small_scenario, SLRH1(mid_config), events, pending=held
        )
        assert outcome.total_rolled_back > 0  # the loss actually bit
        return outcome

    @pytest.fixture(scope="class")
    def delta_stream(self, small_scenario, mid_config):
        """The same events through a delta encoder, the way the service
        streams them: one block per event, then the footer."""
        held, events = self._events(small_scenario)
        engine = SessionEngine(small_scenario, SLRH1(mid_config), pending=held)
        encoder = DeltaEncoder(engine.schedule)
        lines: list[bytes] = []
        for ev in events:
            engine.apply(ev)
            lines.extend(encoder.delta_lines(cycle=ev.cycle, event=ev.kind))
        lines.extend(encoder.footer_lines())
        assert any(b'"record":"retract"' in line for line in lines)
        return lines

    def test_full_stream_roundtrip(self, sessioned, small_scenario):
        schedule = sessioned.final.schedule
        restored = mapping_from_delta_ndjson(_one_block(schedule), small_scenario)
        assert canonical_mapping_bytes(restored) == canonical_mapping_bytes(
            schedule
        )
        # Sunk energy survives the trip through the stream's footer.
        assert sum(restored.external_debits) == pytest.approx(
            sum(schedule.external_debits)
        )
        assert sum(schedule.external_debits) > 0

    def test_out_of_order_assignment_lines(self, sessioned, small_scenario):
        import random

        schedule = sessioned.final.schedule
        lines = _one_block(schedule)
        body = lines[1:-1]
        rng = random.Random(13)
        for _ in range(3):
            rng.shuffle(body)
            restored = mapping_from_delta_ndjson(
                [lines[0], *body, lines[-1]], small_scenario
            )
            assert canonical_mapping_bytes(restored) == canonical_mapping_bytes(
                schedule
            )

    def test_partial_prefix_replays(self, delta_stream, small_scenario):
        # A client cut off between blocks still holds a replayable prefix;
        # one cut inside a block that carries assignments is rejected.
        starts = [
            i for i, line in enumerate(delta_stream) if b'"record":"delta"' in line
        ]
        for end in starts[1:]:
            mapping_from_delta_ndjson(delta_stream[:end], small_scenario)
        first_new = next(
            i for i, line in enumerate(delta_stream)
            if b'"record":"assignment"' in line
        )
        with pytest.raises(ValueError, match="advertises"):
            mapping_from_delta_ndjson(delta_stream[:first_new], small_scenario)

    def test_delta_and_full_streams_agree(
        self, sessioned, delta_stream, small_scenario
    ):
        # The per-event stream and the one-block stream of the final
        # mapping land on the same bytes.
        schedule = sessioned.final.schedule
        for lines in (delta_stream, _one_block(schedule)):
            restored = mapping_from_delta_ndjson(lines, small_scenario)
            assert canonical_mapping_bytes(restored) == canonical_mapping_bytes(
                schedule
            )
