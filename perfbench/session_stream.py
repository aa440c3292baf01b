"""session-stream: live streaming sessions against the daemon.

Two closed-loop clients run sessions back to back on |T| = 1024
scenarios, every scenario and heuristic in a fixed share of the
sessions; their opens take turns, so each client's sessions stay on one
shard (see :class:`Turns`).  Each session opens with an SLRH-family
heuristic (weighted to SLRH-1) with held tasks pending, streams a
``synthesize_events`` mix of arrivals, losses, rejoins and advances in
small NDJSON batches, and fetches its result.  ``max_cycle`` is the scenario's SLRH-1 makespan, so
the replanning work spreads over the batches instead of piling onto the
close.  This runs the kernel incrementally (short segment replans on a
persistent pool fed precise deltas, rollbacks on machine loss) behind
the session proxy, the session RPC and the delta codec.  One op is one
event batch, timed until its last delta line is read.  Every session's
stream is distinct, so no op input repeats.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import random
import sys
import threading
import time

from common import CASES, MIN_OPS, exact_draw, paper_scenarios
from daemon_run import run as run_daemon
from layers import engine_metrics, merge, ratio, residual_pct

NAME = "session-stream"
IMPORTS = (
    "repro.heuristics",
    "repro.workload.scenario",
    "repro.io.serialization",
    "repro.session",
    "repro.core.kernel",
)
N_TASKS = 1024
#: Session scenarios, the grid cases in turn; a shard's 8-entry scenario
#: LRU holds 8 of them, so open-time decode misses are few (service-map
#: has the many).
N_SCENARIOS = 9
N_EVENTS = 24
BATCH = 2
#: Event batches per second of ``--seconds`` on the reference host; the
#: session count is fixed per run so the daemon retains the same
#: closed sessions every run.
NOMINAL_OPS_PER_S = 40
HEURISTIC_MIX = {"slrh1": 0.6, "slrh2": 0.2, "slrh3": 0.2}
#: Sessions whose result is replayed offline (a seeded sample; replaying
#: every |T| = 1024 session would double the run).
VERIFY_SAMPLE = 3
_WARMUP_TASKS = 32


def batches_per_session() -> int:
    return math.ceil(N_EVENTS / BATCH)


def n_ops_for(seconds: float) -> int:
    sessions = max(
        math.ceil(MIN_OPS / batches_per_session()),
        round(seconds * NOMINAL_OPS_PER_S / batches_per_session()),
    )
    return sessions * batches_per_session()


def max_sessions(n_ops: int) -> int:
    # Closed sessions keep their slot until idle eviction (900 s), so the
    # bound covers every session of the run plus the warm-up ones.
    return n_ops // batches_per_session() + 16


def generate(n_tasks: int, seed: int) -> list:
    """The session scenarios, then a small one used only by warm-up.

    Each session scenario has its own ETC matrix and DAG: session cost
    depends on the DAG most, so the more DAGs a run draws, the less runs
    on different seeds differ.
    """
    from repro.workload.scenario import paper_scaled_suite

    suite = paper_scaled_suite(n_tasks, n_etc=N_SCENARIOS, n_dag=N_SCENARIOS, seed=seed)
    scenarios = [suite.scenario(i, i, CASES[i % len(CASES)]) for i in range(N_SCENARIOS)]
    return scenarios + paper_scenarios(_WARMUP_TASKS, 1, seed)[:1]


def _events_payload(events) -> bytes:
    return b"".join(json.dumps(ev.to_dict()).encode("ascii") + b"\n" for ev in events)


def makespan_cycles(scenario) -> int:
    """The scenario's SLRH-1 makespan in clock cycles."""
    from repro.heuristics import run_heuristic
    from repro.util.units import CYCLE_SECONDS

    makespan = run_heuristic("slrh1", scenario).schedule.makespan
    return max(2, math.ceil(makespan / CYCLE_SECONDS))


def _session_spec(
    scenario, scenario_id: str, heuristic: str, seed: int, max_cycle: int
) -> dict:
    from repro.session import synthesize_events

    held, events = synthesize_events(
        scenario, seed=seed, n_events=N_EVENTS, max_cycle=max_cycle
    )
    return {
        "open": {"scenario": scenario_id, "heuristic": heuristic, "pending": list(held)},
        "held": held,
        "events": events,
        "batches": [
            _events_payload(events[i:i + BATCH]) for i in range(0, len(events), BATCH)
        ],
    }


def warm_up(client, ids: list[str], scenarios: list) -> None:
    """Two tiny sessions on the small warm-up scenario (one per shard)."""
    from repro.session import SessionEvent

    close = _events_payload([SessionEvent(kind="advance", cycle=5), SessionEvent(kind="close", cycle=10)])
    for _ in range(2):
        status, _, body = client.post_json(
            "/v1/session", {"scenario": ids[-1], "heuristic": "slrh1"}
        )
        if status != 201:
            raise RuntimeError(f"warm-up session failed ({status}): {body[:200]!r}")
        url = json.loads(body)["events_url"]
        status, _, body = client.request("POST", url, close, "application/x-ndjson")
        if status != 200 or b'"record":"footer"' not in body:
            raise RuntimeError(f"warm-up stream failed ({status})")


def plan(opts, n_ops: int, ids: list[str], scenarios: list) -> list[list]:
    """Seeded session specs, dealt round-robin to the clients.  Each
    session's events fall in cycles up to its scenario's SLRH-1 makespan,
    mapped here, so the replanning spreads over the batches."""
    sessions = scenarios[:-1]  # the last one is warm-up only
    cycles = [makespan_cycles(scenario) for scenario in sessions]
    rng = random.Random(opts.seed)
    n_sessions = n_ops // batches_per_session()
    turns = Turns()
    cells = zip(
        exact_draw(rng, list(range(len(sessions))), [1.0] * len(sessions), n_sessions),
        exact_draw(rng, list(HEURISTIC_MIX), list(HEURISTIC_MIX.values()), n_sessions),
    )
    specs = []
    for number, (index, heuristic) in enumerate(cells):
        spec = _session_spec(
            sessions[index],
            ids[index],
            heuristic,
            opts.seed * 100_000 + number,
            cycles[index],
        )
        spec["index"] = index
        spec["number"] = number
        spec["turns"] = turns
        specs.append(spec)
    return [specs[0::2], specs[1::2]]


class Turns:
    """Session opens in plan order across the clients.

    The daemon routes sessions round-robin by id, so with opens taking
    turns every session of client *k* lands on the same shard.  Left to
    timing, two concurrent sessions share a shard whenever one client
    opens twice in a row, and how long they do so differs from run to run.
    """

    TIMEOUT_S = 60.0

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._next = 0  # guarded-by: _cond

    def wait(self, number: int) -> None:
        with self._cond:
            if not self._cond.wait_for(lambda: self._next == number, self.TIMEOUT_S):
                raise RuntimeError(f"session {number} never got its turn to open")

    def done(self, number: int) -> None:
        with self._cond:
            self._next = number + 1
            self._cond.notify_all()


def _batch_op(start: float, latency: float, ok: bool, spec: dict) -> dict:
    # No part of a batch waits on a timer: the reply streams its delta
    # lines as the shard computes them, on a fresh connection each time.
    return {
        "ok": ok, "start": start, "latency": latency, "wait": 0.0,
        "session": spec["number"],
    }


def drive(client, specs: list[dict]) -> list[dict]:
    out = []
    for spec in specs:
        ops = []
        spec["turns"].wait(spec["number"])
        try:
            status, _, body = client.post_json("/v1/session", spec["open"])
        except (OSError, http.client.HTTPException):
            status = 0
        finally:
            spec["turns"].done(spec["number"])
        if status != 201:
            out += [_batch_op(0.0, 0.0, False, spec) for _ in spec["batches"]]
            continue
        opened = json.loads(body)
        for number, payload in enumerate(spec["batches"]):
            last = number == len(spec["batches"]) - 1
            started = time.perf_counter()
            try:
                status, _, body = client.request(
                    "POST", opened["events_url"], payload, "application/x-ndjson"
                )
            except (OSError, http.client.HTTPException):
                status, body = 0, b""
            latency = time.perf_counter() - started
            ok = (
                status == 200
                and b'"record":"error"' not in body
                and (not last or b'"record":"footer"' in body)
            )
            ops.append(_batch_op(started, latency, ok, spec))
            if not ok:
                ops += [
                    _batch_op(0.0, 0.0, False, spec) for _ in spec["batches"][number + 1:]
                ]
                break
        result = b""
        if ops[-1]["ok"]:
            try:
                status, _, result = client.request("GET", opened["result_url"])
            except (OSError, http.client.HTTPException):
                status = 0
            if status != 200:
                ops[-1]["ok"] = False
        ops[-1]["result"] = hashlib.sha256(result).hexdigest()
        ops[-1]["spec"] = spec
        out += ops
    return out


def verify(ops: list[dict], scenarios: list, docs: list[dict]) -> None:
    """A seeded sample of closed sessions must equal the offline
    ``run_with_events`` replay of the same events, byte for byte; a
    mismatch fails the session's closing batch."""
    from repro.heuristics import make_scheduler
    from repro.io.serialization import (
        canonical_json_bytes,
        mapping_to_dict,
        scenario_from_dict,
    )
    from repro.session import run_with_events

    closing = sorted(
        (op for op in ops if op["ok"] and "spec" in op), key=lambda op: op["session"]
    )
    sample = random.Random(len(closing)).sample(
        closing, min(VERIFY_SAMPLE, len(closing))
    )
    for op in sample:
        spec = op["spec"]
        outcome = run_with_events(
            scenario_from_dict(docs[spec["index"]]),
            make_scheduler(spec["open"]["heuristic"]),
            spec["events"],
            pending=spec["held"],
        )
        expected = canonical_json_bytes(mapping_to_dict(outcome.final.schedule))
        if hashlib.sha256(expected).hexdigest() != op["result"]:
            op["ok"] = False


def repeat_share(ops: list[dict]) -> float:
    return 0.0  # every session streams its own seeded events


def layer_values(passed: dict, records: list[list]) -> dict[str, float]:
    """Split each batch: client latency = http (client minus handler) +
    handler self + pipe RPC (call minus child work) + child-side layers."""
    ops = [op for op in passed["ops"] if op["ok"]]
    n = len(ops)
    handlers = [
        r for r in records
        if r[2] == "service.handler" and r[3].get("path", "").endswith("/events")
    ]
    applies = [r for r in records if r[2] == "worker.session_apply"]
    opens = [r for r in records if r[2] == "session.open"]
    child_tree, counts = merge(applies)
    handler_tree, _ = merge(handlers)
    open_tree, _ = merge(opens)
    values = engine_metrics(child_tree, counts, n)
    values["io.encode_ms"] += handler_tree.get("io.encode", [0, 0.0, 0.0])[2] * 1e3 / n
    latency = sum(op["latency"] for op in ops)
    handler_total = sum(r[1] - r[0] for r in handlers)
    child_total = sum(r[1] - r[0] for r in applies)
    rpc = handler_tree.get("service.rpc", [0, 0.0, 0.0])[1] - child_total
    http = latency - handler_total
    decode_calls = open_tree.get("io.decode", [0, 0.0, 0.0])[0]
    counters = passed["counters"]
    values.update(
        {
            "io.decode_calls": decode_calls,
            "service.http_ms": http * 1e3 / n,
            "service.handler_ms": handler_tree.get("service.handler", [0, 0.0, 0.0])[2] * 1e3 / n,
            "service.rpc_ms": rpc * 1e3 / n,
            "service.worker_ms": child_tree.get("worker.session_apply", [0, 0.0, 0.0])[2] * 1e3 / n,
            "service.cache_hit_ratio": 1.0 - ratio(decode_calls, len(opens)),
            "service.rejected": counters.get("session.rejected", 0),
            "service.failed": counters.get("session.event_errors", 0),
            "session.open_ms": ratio(
                sum(r[1] - r[0] for r in opens) * 1e3, len(opens)
            ),
            "session.rolled_back": ratio(
                counters.get("session.rolled_back", 0), counters.get("session.closed", 0)
            ),
        }
    )
    values["trace.residual_pct"] = residual_pct(values, latency * 1e3 / n)
    return values


def run(opts, import_s: float, env: dict):
    return run_daemon(sys.modules[__name__], opts, import_s, env)
