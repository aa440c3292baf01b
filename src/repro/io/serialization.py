"""JSON serialisation of scenarios and mappings.

Two artefact kinds:

* **scenario** — grid (machine specs), ETC matrix, DAG edges, data sizes,
  τ, name.  `scenario → dict → scenario` is lossless (floats verbatim).
* **mapping** — the committed assignments of a :class:`Schedule`
  (task, version, machine, start, finish, plus each incoming transfer) and
  any external debits.  :func:`mapping_from_dict` *replays* the assignments
  through ``Schedule.commit`` in topological order, so a loaded mapping has
  passed the same invariants as a freshly computed one — a tampered file
  that violates the model is rejected, not silently accepted.

The serving layer adds two requirements on top of the dict forms:

* **canonical bytes** — :func:`canonical_json_bytes` pins one byte
  encoding (sorted keys, minimal separators, trailing newline) so the
  same document has the same bytes on every surface.  Scenario identity in
  the service registry is :func:`scenario_digest` (SHA-256 of the
  canonical scenario bytes), and the differential determinism test
  compares :func:`canonical_mapping_bytes` across the service and the
  batch CLI.
* **streamed/partial encoding** — :func:`iter_mapping_ndjson` emits a
  mapping as NDJSON (one header line, one line per assignment in task
  order, one footer), so a mapping can be written or served
  incrementally without materialising the whole document;
  :func:`mapping_from_ndjson` reassembles and replays it, accepting the
  truncation point of a partial stream only when the footer is absent.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Any, Iterable, Iterator, Union

from repro.grid.config import GridConfig
from repro.grid.machine import MachineClass, MachineSpec
from repro.sim.schedule import ExecutionPlan, PlannedComm, Schedule
from repro.workload.dag import TaskGraph
from repro.workload.scenario import Scenario
from repro.workload.versions import Version

PathLike = Union[str, Path]

_FORMAT_VERSION = 1


# -- scenarios ------------------------------------------------------------------


def _machine_to_dict(m: MachineSpec) -> dict:
    return {
        "battery": m.battery,
        "compute_rate": m.compute_rate,
        "transmit_rate": m.transmit_rate,
        "bandwidth": m.bandwidth,
        "machine_class": m.machine_class.value,
        "name": m.name,
    }


def _machine_from_dict(d: dict) -> MachineSpec:
    return MachineSpec(
        battery=float(d["battery"]),
        compute_rate=float(d["compute_rate"]),
        transmit_rate=float(d["transmit_rate"]),
        bandwidth=float(d["bandwidth"]),
        machine_class=MachineClass(d["machine_class"]),
        name=str(d.get("name", "")),
    )


def scenario_to_dict(scenario: Scenario) -> dict:
    """Lossless plain-dict form of *scenario*."""
    return {
        "format": _FORMAT_VERSION,
        "kind": "scenario",
        "name": scenario.name,
        "tau": scenario.tau,
        "grid": {
            "name": scenario.grid.name,
            "machines": [_machine_to_dict(m) for m in scenario.grid],
        },
        "etc": [list(map(float, row)) for row in scenario.etc],
        "dag": {
            "n_tasks": scenario.dag.n_tasks,
            "edges": [[u, v] for (u, v) in scenario.dag.edges()],
        },
        "data_sizes": [
            [u, v, float(bits)] for (u, v), bits in sorted(scenario.data_sizes.items())
        ],
    }


def scenario_from_dict(data: dict) -> Scenario:
    """Inverse of :func:`scenario_to_dict` (validates structure)."""
    import numpy as np

    if data.get("kind") != "scenario":
        raise ValueError(f"not a scenario document (kind={data.get('kind')!r})")
    if data.get("format") != _FORMAT_VERSION:
        raise ValueError(f"unsupported scenario format {data.get('format')!r}")
    grid = GridConfig(
        machines=tuple(_machine_from_dict(m) for m in data["grid"]["machines"]),
        name=data["grid"].get("name", "grid"),
    )
    dag = TaskGraph(
        int(data["dag"]["n_tasks"]),
        [(int(u), int(v)) for u, v in data["dag"]["edges"]],
    )
    return Scenario(
        grid=grid,
        etc=np.array(data["etc"], dtype=float),
        dag=dag,
        data_sizes={(int(u), int(v)): float(b) for u, v, b in data["data_sizes"]},
        tau=float(data["tau"]),
        name=str(data.get("name", "scenario")),
    )


def save_scenario(scenario: Scenario, path: PathLike) -> None:
    """Write *scenario* as JSON to *path*."""
    Path(path).write_text(json.dumps(scenario_to_dict(scenario)))


def load_scenario(path: PathLike) -> Scenario:
    """Read a scenario JSON document from *path*."""
    return scenario_from_dict(json.loads(Path(path).read_text()))


# -- mappings ---------------------------------------------------------------------


def _integer(value: object, what: str, bound: float = math.inf) -> int:
    """*value* if it is an integer in ``[0, bound)``; ``ValueError`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < bound:
        raise ValueError(f"{what} must be an integer in [0, {bound}), got {value!r:.40}")
    return value


def _number(value: object, what: str) -> float:
    """*value* as a finite float; ``ValueError`` otherwise."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if abs(value) <= sys.float_info.max:  # False for inf, NaN and huge ints
            return float(value)
    raise ValueError(f"{what} must be a finite number, got {value!r:.40}")


def _typed(value: object, kind: type, what: str) -> Any:
    """*value* if it is a JSON object (*kind* ``dict``) or array (``list``)."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a {kind.__name__}, got {value!r:.40}")
    return value


def _ndjson_record(raw: bytes | str, what: str) -> dict | None:
    """One NDJSON line as a JSON object, ``None`` for a blank line."""
    text = (raw.decode("ascii") if isinstance(raw, bytes) else raw).strip()
    if not text:
        return None
    try:
        return _typed(json.loads(text), dict, what)
    except RecursionError as exc:
        raise ValueError(f"{what} nests too deeply") from exc


def assignment_to_dict(a: ExecutionPlan) -> dict:
    """Plain-dict form of one committed assignment — the per-task record
    of :func:`mapping_to_dict`, and the exact ``assignment``-line document
    of the NDJSON encodings (full streams *and* session deltas share it,
    so a delta consumer reassembles byte-identical lines)."""
    return {
        "task": a.task,
        "version": a.version.value,
        "machine": a.machine,
        "start": a.start,
        "finish": a.finish,
        "comms": [
            {
                "parent": c.parent,
                "src": c.src,
                "dst": c.dst,
                "bits": c.bits,
                "start": c.start,
                "finish": c.finish,
            }
            for c in a.comms
        ],
    }


def mapping_to_dict(schedule: Schedule) -> dict:
    """Plain-dict form of a schedule's committed assignments."""
    assignments = [
        assignment_to_dict(schedule.assignments[task])
        for task in sorted(schedule.assignments)
    ]
    return {
        "format": _FORMAT_VERSION,
        "kind": "mapping",
        "scenario": schedule.scenario.name,
        "assignments": assignments,
        "external_debits": list(schedule.external_debits),
    }


def mapping_from_dict(data: dict, scenario: Scenario) -> Schedule:
    """Reconstruct a :class:`Schedule` by replaying *data* onto *scenario*.

    Every assignment passes through :meth:`Schedule.commit`, so all model
    invariants (precedence, channel capacity, energy) are re-verified;
    energies and durations are re-derived from the scenario.  A stale or
    tampered file — a malformed record, an index out of range, a task
    assigned twice, a broken invariant — raises ``ValueError``.

    The replay does *not* hold communication reserves: reserve
    availability is a transient planning guard whose value depends on
    commit order, and for a mapping produced under churn (rollbacks
    released and re-held edge reserves along the live timeline) no static
    replay order is guaranteed to satisfy it — while the energy *ledger*
    is order-independent, so the real feasibility invariants still hold
    step by step and are reconciled by ``validate_schedule`` at the end.
    """
    data = _typed(data, dict, "mapping document")
    if data.get("kind") != "mapping":
        raise ValueError(f"not a mapping document (kind={data.get('kind')!r})")
    if data.get("format") != _FORMAT_VERSION:
        raise ValueError(f"unsupported mapping format {data.get('format')!r}")
    n_tasks, n_machines = scenario.n_tasks, scenario.n_machines
    by_task: dict[int, dict] = {}
    for rec in _typed(data.get("assignments"), list, "assignments"):
        task = _integer(_typed(rec, dict, "assignment").get("task"), "task", n_tasks)
        if task in by_task:
            raise ValueError(f"task {task} is assigned twice")
        by_task[task] = rec
    schedule = Schedule(scenario, hold_comm_reserves=False)
    for task in scenario.dag.topological_order:
        rec = by_task.get(task)
        if rec is None:
            continue
        version = Version(rec.get("version"))
        machine = _integer(rec.get("machine"), "machine", n_machines)
        comms = []
        for c in _typed(rec.get("comms"), list, "comms"):
            c = _typed(c, dict, "transfer")
            src = _integer(c.get("src"), "src", n_machines)
            start, finish = (_number(c.get(key), key) for key in ("start", "finish"))
            comms.append(PlannedComm(
                parent=_integer(c.get("parent"), "parent", n_tasks),
                child=task,
                src=src,
                dst=_integer(c.get("dst"), "dst", n_machines),
                bits=_number(c.get("bits"), "bits"),
                start=start,
                finish=finish,
                energy=scenario.grid[src].transmit_energy(finish - start),
            ))
        start = _number(rec.get("start"), "start")
        exec_energy = scenario.compute_energy(task, machine, version)
        plan = ExecutionPlan(
            task=task,
            version=version,
            machine=machine,
            start=start,
            finish=_number(rec.get("finish"), "finish"),
            exec_energy=exec_energy,
            comms=tuple(comms),
            energy_delta=exec_energy + sum(c.energy for c in comms),
            data_ready=start,
        )
        schedule.commit(plan)
    debits = _typed(data.get("external_debits", []), list, "external_debits")
    if len(debits) > n_machines:
        raise ValueError(f"{len(debits)} external debits for {n_machines} machines")
    for j, debit in enumerate(debits):
        amount = _number(debit, "external debit")
        if amount:
            schedule.debit_external(j, amount)
    # Full independent re-check (durations vs ETC, transfer times vs
    # bandwidth, channel capacity...) — a corrupted document fails here.
    from repro.sim.validate import ValidationError, validate_schedule

    try:
        validate_schedule(schedule)
    except ValidationError as exc:
        raise ValueError(f"mapping breaks the model: {exc}") from exc
    return schedule


def save_mapping(schedule: Schedule, path: PathLike) -> None:
    """Write the schedule's assignments as JSON to *path*."""
    Path(path).write_text(json.dumps(mapping_to_dict(schedule)))


def load_mapping(path: PathLike, scenario: Scenario) -> Schedule:
    """Read and replay a mapping JSON document against *scenario*."""
    return mapping_from_dict(json.loads(Path(path).read_text()), scenario)


# -- canonical bytes & content addressing -----------------------------------------


def canonical_json_bytes(doc: dict) -> bytes:
    """The pinned byte encoding of *doc*: sorted keys, minimal separators,
    ASCII-only, one trailing newline.  Equal documents → equal bytes, on
    every platform and surface."""
    return (
        json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
        + "\n"
    ).encode("ascii")


def scenario_digest(data: "Scenario | dict") -> str:
    """Content address of a scenario: ``sha256:<hex>`` over the canonical
    bytes of its dict form.  Accepts a :class:`Scenario` or an already
    serialised scenario document."""
    doc = scenario_to_dict(data) if isinstance(data, Scenario) else data
    if doc.get("kind") != "scenario":
        raise ValueError(f"not a scenario document (kind={doc.get('kind')!r})")
    return "sha256:" + hashlib.sha256(canonical_json_bytes(doc)).hexdigest()


def canonical_mapping_bytes(schedule: Schedule) -> bytes:
    """Canonical byte encoding of the schedule's mapping document — the
    payload the service returns and the batch CLI writes, compared
    byte-for-byte by the differential determinism test."""
    return canonical_json_bytes(mapping_to_dict(schedule))


# -- streamed / partial mapping encoding ------------------------------------------


def iter_mapping_ndjson(schedule: Schedule) -> Iterator[bytes]:
    """Encode the schedule's mapping as NDJSON lines (bytes).

    Layout: a ``header`` line carrying format/scenario/assignment count,
    one ``assignment`` line per committed task (ascending task id), and a
    ``footer`` line with the external debits.  Each line is independently
    canonical (:func:`canonical_json_bytes`), so a consumer can process —
    or a producer can stop emitting — after any whole line.
    """
    doc = mapping_to_dict(schedule)
    yield canonical_json_bytes(
        {
            "record": "header",
            "format": _FORMAT_VERSION,
            "kind": "mapping",
            "scenario": doc["scenario"],
            "n_assignments": len(doc["assignments"]),
        }
    )
    for rec in doc["assignments"]:
        yield canonical_json_bytes({"record": "assignment", **rec})
    yield canonical_json_bytes(
        {"record": "footer", "external_debits": doc["external_debits"]}
    )


def mapping_from_ndjson(
    lines: Iterable[bytes | str], scenario: Scenario
) -> Schedule:
    """Reassemble an :func:`iter_mapping_ndjson` stream and replay it.

    A complete stream (footer present) must carry exactly the advertised
    assignment count.  A *partial* stream — header plus a prefix of the
    assignment lines, no footer — replays the prefix, supporting
    resumable transfer of large mappings; a stream cut mid-document is
    rejected (``ValueError``) exactly like a tampered file.
    """
    header: dict | None = None
    assignments: list[dict] = []
    debits: list = []
    saw_footer = False
    for raw in lines:
        rec = _ndjson_record(raw, "NDJSON mapping line")
        if rec is None:
            continue
        if saw_footer:
            raise ValueError("NDJSON mapping stream continues past its footer")
        kind = rec.get("record")
        if kind == "header":
            if header is not None:
                raise ValueError("duplicate NDJSON mapping header")
            if rec.get("kind") != "mapping" or rec.get("format") != _FORMAT_VERSION:
                raise ValueError("not a supported NDJSON mapping header")
            _integer(rec.get("n_assignments"), "n_assignments")
            header = rec
        elif kind == "assignment":
            if header is None:
                raise ValueError("NDJSON mapping stream must start with a header")
            rec.pop("record")
            assignments.append(rec)
        elif kind == "footer":
            if header is None:
                raise ValueError("NDJSON mapping stream must start with a header")
            debits = rec.get("external_debits", [])
            saw_footer = True
        else:
            raise ValueError(f"unknown NDJSON mapping record {kind!r}")
    if header is None:
        raise ValueError("empty NDJSON mapping stream")
    if saw_footer and len(assignments) != header["n_assignments"]:
        raise ValueError(
            f"NDJSON mapping stream carries {len(assignments)} assignments, "
            f"header advertised {header['n_assignments']}"
        )
    return mapping_from_dict(
        {
            "format": _FORMAT_VERSION,
            "kind": "mapping",
            "scenario": header.get("scenario", scenario.name),
            "assignments": assignments,
            "external_debits": debits,
        },
        scenario,
    )
