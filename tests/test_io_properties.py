"""Property-based round-trips for the JSON persistence layer, and
fuzzing of the one mapping-stream decoder on its two stream shapes."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.objective import Weights
from repro.core.slrh import SLRH1, SlrhConfig
from repro.heuristics import generate_named_scenario
from repro.io.serialization import (
    mapping_from_dict,
    mapping_to_dict,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.session import (
    DeltaEncoder,
    SessionEngine,
    SessionEvent,
    mapping_from_delta_ndjson,
)
from repro.workload.scenario import (
    generate_scenario,
    paper_scaled_grid,
    paper_scaled_spec,
)

_CACHE = {}


def _scenario(seed: int, n: int):
    key = (seed, n)
    if key not in _CACHE:
        _CACHE[key] = generate_scenario(
            paper_scaled_spec(n), grid=paper_scaled_grid(n), seed=seed
        )
    return _CACHE[key]


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=50),
    n=st.integers(min_value=2, max_value=24),
)
def test_scenario_roundtrip_any_instance(seed, n):
    scenario = _scenario(seed, n)
    restored = scenario_from_dict(scenario_to_dict(scenario))
    assert np.array_equal(restored.etc, scenario.etc)
    assert restored.dag.edges() == scenario.dag.edges()
    assert restored.data_sizes == scenario.data_sizes
    assert restored.tau == scenario.tau


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=20),
    alpha10=st.integers(min_value=0, max_value=10),
)
def test_mapping_roundtrip_any_weights(seed, alpha10):
    scenario = _scenario(seed, 14)
    alpha = alpha10 / 10
    beta = (1 - alpha) / 2
    result = SLRH1(
        SlrhConfig(weights=Weights.from_alpha_beta(alpha, beta))
    ).map(scenario)
    restored = mapping_from_dict(mapping_to_dict(result.schedule), scenario)
    assert restored.t100 == result.t100
    assert restored.n_mapped == result.schedule.n_mapped
    assert restored.makespan == result.schedule.makespan
    assert abs(
        restored.total_energy_consumed - result.schedule.total_energy_consumed
    ) < 1e-6


# -- malformed mapping streams ------------------------------------------------
#
# The decoder promises that a malformed or tampered stream is rejected with
# ValueError; any other exception escaping is a bug.  It is fuzzed on both
# shapes it reads: a full mapping as one block (``map --ndjson``) and a
# session's per-event blocks.

_FUZZ_SCENARIO = generate_named_scenario(8, 1)
_FUZZ_SCHEDULER = SLRH1(SlrhConfig(weights=Weights.from_alpha_beta(0.5, 0.2)))


def _full_stream() -> list[bytes]:
    encoder = DeltaEncoder(_FUZZ_SCHEDULER.map(_FUZZ_SCENARIO).schedule)
    lines = [*encoder.delta_lines(cycle=0, event="close"), *encoder.footer_lines()]
    mapping_from_delta_ndjson(lines, _FUZZ_SCENARIO)  # untampered, it decodes
    return lines


def _delta_stream() -> list[bytes]:
    """A session that loses machine 0 mid-run, so the stream carries
    retractions as well as assignments."""
    engine = SessionEngine(_FUZZ_SCENARIO, _FUZZ_SCHEDULER)
    encoder = DeltaEncoder(engine.schedule)
    lines: list[bytes] = []
    cycle = int(_FUZZ_SCENARIO.tau / 4 / 0.1)
    for event in (
        SessionEvent("advance", cycle),
        SessionEvent("machine_loss", cycle, machine=0),
        SessionEvent("close", cycle),
    ):
        engine.apply(event)
        lines.extend(encoder.delta_lines(cycle=event.cycle, event=event.kind))
    lines.extend(encoder.footer_lines())
    assert any(b'"record":"retract"' in line for line in lines)
    mapping_from_delta_ndjson(lines, _FUZZ_SCENARIO)  # untampered, it decodes
    return lines


_STREAMS = {"full": _full_stream(), "delta": _delta_stream()}

_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
# Values a real stream uses, so fuzzed records get past the first checks.
_PLAUSIBLE = st.sampled_from(
    [0, 1, 2, 3, 7, 8, 99, -1, 0.5, 1e9, "mapping", "primary", "secondary",
     "close", _FUZZ_SCENARIO.name, [], [0.0] * _FUZZ_SCENARIO.n_machines]
)
_KEYS = (
    "kind", "format", "scenario", "n_assignments", "external_debits",
    "task", "version", "machine", "start", "finish", "comms",
    "seq", "cycle", "event", "n_new", "n_retracted",
)
_RECORD = st.fixed_dictionaries(
    {"record": st.sampled_from(
        ["header", "assignment", "footer", "delta", "retract"]
    )},
    optional={key: _PLAUSIBLE | _JSON for key in _KEYS},
)


def _reject_only_with_value_error(lines: list[bytes]) -> None:
    try:
        mapping_from_delta_ndjson(lines, _FUZZ_SCENARIO)
    except ValueError:
        pass


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(_JSON | _RECORD, min_size=1, max_size=5))
def test_arbitrary_json_lines_raise_only_value_error(lines):
    _reject_only_with_value_error(
        [json.dumps(doc).encode() + b"\n" for doc in lines]
    )


def _records(doc):
    """Every JSON object in *doc*, itself included (comms are records too)."""
    if isinstance(doc, dict):
        yield doc
        for value in doc.values():
            yield from _records(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _records(value)


@pytest.mark.parametrize("kind", sorted(_STREAMS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_tampered_key_raises_only_value_error(kind, data):
    docs = [json.loads(line) for line in _STREAMS[kind]]
    records = [rec for doc in docs for rec in _records(doc) if rec]
    rec = data.draw(st.sampled_from(records), label="record")
    key = data.draw(st.sampled_from(sorted(rec)), label="key")
    if data.draw(st.booleans(), label="delete"):
        del rec[key]
    else:
        rec[key] = data.draw(_PLAUSIBLE | _JSON, label="value")
    _reject_only_with_value_error(
        [json.dumps(doc).encode() + b"\n" for doc in docs]
    )
