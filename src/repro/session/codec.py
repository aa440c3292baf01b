"""NDJSON mapping deltas: the one streamed encoding of a mapping.

A live session never re-sends the whole mapping.  After each applied
event the service emits one *delta block*:

* a ``delta`` line — ``{"record": "delta", "format": 1, "scenario": ...,
  "seq": k, "cycle": c, "event": kind, "n_new": x, "n_retracted": y}`` —
  numbering the block (``seq`` is dense from 0) and advertising its size;
* ``y`` ``retract`` lines (ascending task id) for assignments that were
  announced earlier but no longer stand (rolled back by a machine loss);
* ``x`` ``assignment`` lines (ascending task id) for new or changed
  assignments: :func:`~repro.io.serialization.assignment_to_dict` through
  :func:`~repro.io.serialization.canonical_json_bytes`, the per-task
  record of the canonical mapping document.

An event that changes nothing (a quiet ``advance``) still emits its
``delta`` line with ``n_new = n_retracted = 0`` — the client can count
blocks against events.  ``close`` is followed by one ``footer`` line
(``external_debits`` + final ``n_assignments``), after which the stream
ends.

A finished mapping streams the same way: ``python -m repro.experiments
map --ndjson`` prints one block at cycle 0 with event ``close``, then the
footer — byte for byte what the daemon streams for a session opened on
the same scenario and closed at cycle 0.

:func:`mapping_from_delta_ndjson` is the one decoder: it reassembles a
stream back into a replayed, validated
:class:`~repro.sim.schedule.Schedule`.  Client reads may arrive out of
order at *block* granularity (lines within a block stay together):
blocks are sorted by ``seq`` before applying, and a gap in the sequence
is rejected rather than silently skipped.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator

from repro.io.serialization import (
    _FORMAT_VERSION,
    _integer,
    _typed,
    assignment_to_dict,
    canonical_json_bytes,
    mapping_from_dict,
)
from repro.sim.schedule import Schedule
from repro.workload.scenario import Scenario

__all__ = ["DeltaEncoder", "mapping_from_delta_ndjson"]


def _ndjson_record(raw: bytes | str, what: str) -> dict | None:
    """One NDJSON line as a JSON object, ``None`` for a blank line."""
    text = (raw.decode("ascii") if isinstance(raw, bytes) else raw).strip()
    if not text:
        return None
    try:
        return _typed(json.loads(text), dict, what)
    except RecursionError as exc:
        raise ValueError(f"{what} nests too deeply") from exc


class DeltaEncoder:
    """Stateful announcer: diffs a live schedule against what the client
    has already been sent and yields one delta block per event.

    One encoder per session; :meth:`delta_lines` after every applied
    event, :meth:`footer_lines` once after ``close``.
    """

    def __init__(self, schedule: Schedule) -> None:
        self.schedule = schedule
        self._scenario_name = schedule.scenario.name
        # task -> (committed plan object, its announced line bytes).  The
        # plan is kept so identity ("is") proves the bytes are current —
        # a task re-mapped after a rollback gets a fresh plan object.
        self._announced: dict[int, tuple[object, bytes]] = {}
        self._seq = 0

    @property
    def seq(self) -> int:
        """The next block's sequence number (== blocks emitted so far)."""
        return self._seq

    def delta_lines(self, *, cycle: int, event: str) -> Iterator[bytes]:
        """One delta block for the schedule's current state (see module
        docstring for the layout).  Always yields at least the ``delta``
        line, even when nothing changed."""
        assignments = self.schedule.assignments
        announced = self._announced
        retracted = sorted(t for t in announced if t not in assignments)
        fresh: list[tuple[int, bytes]] = []
        for task in sorted(assignments):
            plan = assignments[task]
            known = announced.get(task)
            if known is not None and known[0] is plan:
                continue
            line = canonical_json_bytes(
                {"record": "assignment", **assignment_to_dict(plan)}
            )
            fresh.append((task, line))
            announced[task] = (plan, line)
        for task in retracted:
            del announced[task]
        yield canonical_json_bytes(
            {
                "record": "delta",
                "format": _FORMAT_VERSION,
                "scenario": self._scenario_name,
                "seq": self._seq,
                "cycle": cycle,
                "event": event,
                "n_new": len(fresh),
                "n_retracted": len(retracted),
            }
        )
        self._seq += 1
        for task in retracted:
            yield canonical_json_bytes({"record": "retract", "task": task})
        for _, line in fresh:
            yield line

    def footer_lines(self) -> Iterator[bytes]:
        """The stream-terminating ``footer``: the external debits and the
        final assignment count."""
        yield canonical_json_bytes(
            {
                "record": "footer",
                "external_debits": list(self.schedule.external_debits),
                "n_assignments": len(self.schedule.assignments),
            }
        )


def _parse_blocks(
    lines: Iterable[bytes | str],
) -> tuple[list[dict], dict | None]:
    """Group raw lines into delta blocks (header doc + its member lines)
    and the footer, tolerating whole-block reordering."""
    blocks: list[dict] = []
    current: dict | None = None
    footer: dict | None = None
    for raw in lines:
        rec = _ndjson_record(raw, "delta-stream line")
        if rec is None:
            continue
        kind = rec.get("record")
        if kind == "delta":
            if rec.get("format") != _FORMAT_VERSION:
                raise ValueError(
                    f"unsupported delta format {rec.get('format')!r}"
                )
            for key in ("seq", "n_new", "n_retracted"):
                _integer(rec.get(key), key)
            current = {"head": rec, "retracts": [], "assignments": []}
            blocks.append(current)
        elif kind == "retract":
            if current is None:
                raise ValueError("retract line outside any delta block")
            current["retracts"].append(_integer(rec.get("task"), "task"))
        elif kind == "assignment":
            if current is None:
                raise ValueError("assignment line outside any delta block")
            rec.pop("record")
            current["assignments"].append(rec)
        elif kind == "footer":
            if footer is not None:
                raise ValueError("duplicate delta-stream footer")
            _integer(rec.get("n_assignments"), "n_assignments")
            footer = rec
            current = None  # nothing may append to a block past the footer
        else:
            raise ValueError(f"unknown delta-stream record {kind!r}")
    return blocks, footer


def mapping_from_delta_ndjson(
    lines: Iterable[bytes | str], scenario: Scenario
) -> Schedule:
    """Reassemble a delta stream and replay it against *scenario*.

    Blocks apply in ``seq`` order regardless of arrival order; the
    sequence must be dense from 0 (a missing block is an error, not a
    silent gap).  Each block's ``n_new`` / ``n_retracted`` counts must
    match its lines, retracts must name announced tasks, and — when the
    footer is present — the final assignment count must match.  The
    result replays through :func:`repro.io.serialization.mapping_from_dict`,
    so it passes every model invariant a freshly computed mapping does.
    A malformed or tampered stream raises ``ValueError``.
    """
    blocks, footer = _parse_blocks(lines)
    if not blocks:
        raise ValueError("empty delta stream")
    blocks.sort(key=lambda b: b["head"]["seq"])
    scenario_name: str | None = None
    mapping: dict[int, dict] = {}
    for index, block in enumerate(blocks):
        head = block["head"]
        if head["seq"] != index:
            raise ValueError(
                f"delta stream is missing block {index} "
                f"(next seen is seq {head['seq']})"
            )
        if scenario_name is None:
            scenario_name = head.get("scenario")
        elif head.get("scenario") != scenario_name:
            raise ValueError("delta stream mixes scenarios")
        if len(block["retracts"]) != head["n_retracted"]:
            raise ValueError(
                f"delta block {index} advertises {head['n_retracted']} "
                f"retractions, carries {len(block['retracts'])}"
            )
        if len(block["assignments"]) != head["n_new"]:
            raise ValueError(
                f"delta block {index} advertises {head['n_new']} "
                f"assignments, carries {len(block['assignments'])}"
            )
        for task in block["retracts"]:
            if mapping.pop(task, None) is None:
                raise ValueError(
                    f"delta block {index} retracts task {task}, "
                    "which was never announced"
                )
        for rec in block["assignments"]:
            mapping[_integer(rec.get("task"), "task")] = rec
    debits: list = []
    if footer is not None:
        if len(mapping) != footer["n_assignments"]:
            raise ValueError(
                f"delta stream reassembles to {len(mapping)} assignments, "
                f"footer advertised {footer['n_assignments']}"
            )
        debits = footer.get("external_debits", [])
    return mapping_from_dict(
        {
            "format": _FORMAT_VERSION,
            "kind": "mapping",
            "scenario": scenario_name or scenario.name,
            "assignments": [mapping[t] for t in sorted(mapping)],
            "external_debits": debits,
        },
        scenario,
    )
