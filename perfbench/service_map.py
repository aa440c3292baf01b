"""service-map: keep-alive ``POST /v1/map`` requests against the daemon.

Two closed-loop clients, each on one persistent HTTP/1.1 connection,
send synchronous map requests over 24 registered |T| = 64 scenarios with
skewed (Zipf) popularity and a heuristic mix weighted to SLRH-1.  At this
size the service layers take most of each request: HTTP, admission,
shard queue, pipe RPC, scenario decode and encode.  About 12 scenarios
land on each shard, more than the default 8-entry shard LRU holds, so
decode misses recur.  Inputs repeat here and nowhere else, which is the
property a result cache would exploit (``repeat_share`` in the report).
One op is one request, timed until its body is read.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import random
import sys
import time
from types import SimpleNamespace

from common import MIN_OPS, exact_draw, paper_scenarios
from daemon_run import run as run_daemon
from layers import engine_metrics, merge, ratio, residual_pct

NAME = "service-map"
IMPORTS = (
    "repro.heuristics",
    "repro.workload.scenario",
    "repro.io.serialization",
    "repro.core.kernel",
)
N_TASKS = 64
N_PAIRS = 8  # x 3 grid cases = 24 scenarios
#: Requests per second of ``--seconds`` on the reference host; the op
#: count is fixed per run so the daemon retains the same jobs every run.
NOMINAL_OPS_PER_S = 20
HEURISTIC_MIX = {
    "slrh1": 0.40,
    "slrh2": 0.12,
    "slrh3": 0.12,
    "maxmax": 0.12,
    "minmin": 0.12,
    "greedy": 0.12,
}


def n_ops_for(seconds: float) -> int:
    return max(MIN_OPS, round(seconds * NOMINAL_OPS_PER_S))


def max_sessions(n_ops: int) -> None:
    return None


def generate(n_tasks: int, seed: int) -> list:
    return paper_scenarios(n_tasks, N_PAIRS, seed)


def _shard_of(scenario_id: str) -> int:
    """The shard the daemon routes *scenario_id* to: the router's own
    affine routing, which reads nothing of the router but its shard count."""
    from daemon import SHARDS
    from repro.service.jobs import ShardRouter

    return ShardRouter.shard_of(SimpleNamespace(n_shards=SHARDS), scenario_id)


def warm_up(client, ids: list[str], scenarios: list) -> None:
    """One SLRH-1 request on a scenario of each shard."""
    firsts = {}
    for scenario_id in ids:
        firsts.setdefault(_shard_of(scenario_id), scenario_id)
    for scenario_id in firsts.values():
        status, _, body = client.post_json(
            "/v1/map", {"scenario": scenario_id, "heuristic": "slrh1"}
        )
        if status != 200:
            raise RuntimeError(f"warm-up map failed ({status}): {body[:200]!r}")


def plan(opts, n_ops: int, ids: list[str], scenarios: list) -> list[list]:
    """The seeded request sequence, dealt round-robin to the clients.

    Popularity ranks alternate between the shards the scenarios hash
    to, so every seed loads the shards alike; otherwise the seed would
    decide whether the most popular scenarios share one shard, and that
    alone moves p90 by a fifth between seeds.
    """
    from daemon import SHARDS

    rng = random.Random(opts.seed)
    groups = [[i for i in range(len(ids)) if _shard_of(ids[i]) == k] for k in range(SHARDS)]
    for group in groups:
        rng.shuffle(group)
    ranked = [i for tier in itertools.zip_longest(*groups) for i in tier if i is not None]
    popularity = [0.0] * len(ids)
    for rank, index in enumerate(ranked):
        popularity[index] = 1.0 / (1 + rank)
    ops = [
        (index, ids[index], heuristic)
        for index, heuristic in zip(
            exact_draw(rng, list(range(len(ids))), popularity, n_ops),
            exact_draw(rng, list(HEURISTIC_MIX), list(HEURISTIC_MIX.values()), n_ops),
        )
    ]
    return [ops[0::2], ops[1::2]]


def drive(client, ops: list) -> list[dict]:
    """One client's requests.  An op's ``wait`` is the time from its
    reply's headers to its body: the server sends them apart, and the
    body waits for the client's delayed ACK, a kernel timer."""
    out = []
    for index, scenario_id, heuristic in ops:
        started = time.perf_counter()
        try:
            status, headers, body = client.post_json(
                "/v1/map", {"scenario": scenario_id, "heuristic": heuristic}
            )
        except (OSError, http.client.HTTPException):
            status, headers, body = 0, {}, b""
        ended = time.perf_counter()
        wait = ended - client.headers_at if status else 0.0
        out.append(
            {
                "key": (index, heuristic),
                "ok": status == 200,
                "start": started,
                "latency": ended - started,
                "wait": wait,
                "digest": hashlib.sha256(body).hexdigest(),
                "job": headers.get("X-Job-Id"),
                "map_s": float(headers.get("X-Heuristic-Seconds", 0.0)),
            }
        )
    return out


def verify(ops: list[dict], scenarios: list, docs: list[dict]) -> None:
    """Each reply must equal in-process ``run_heuristic`` ->
    ``canonical_json_bytes(mapping_to_dict(...))`` for its cell."""
    from repro.heuristics import run_heuristic
    from repro.io.serialization import (
        canonical_json_bytes,
        mapping_to_dict,
        scenario_from_dict,
    )

    expected: dict = {}
    for op in ops:
        key = op["key"]
        if key not in expected:
            index, heuristic = key
            schedule = run_heuristic(heuristic, scenario_from_dict(docs[index])).schedule
            expected[key] = hashlib.sha256(
                canonical_json_bytes(mapping_to_dict(schedule))
            ).hexdigest()
        if op["digest"] != expected[key]:
            op["ok"] = False


def repeat_share(ops: list[dict]) -> float:
    seen: set = set()
    repeats = 0
    for op in ops:
        repeats += op["key"] in seen
        seen.add(op["key"])
    return ratio(repeats, len(ops))


def layer_values(passed: dict, records: list[list]) -> dict[str, float]:
    """Split each request: client latency = http (client minus handler,
    joined on ``X-Job-Id``) + handler self (minus its wait on the job) +
    queue wait + pipe RPC (call minus child work) + child-side layers."""
    handlers = {
        r[3]["job"]: r for r in records if r[2] == "service.handler" and "job" in r[3]
    }
    ops = [op for op in passed["ops"] if op["ok"] and op["job"] in handlers]
    n = len(ops)
    joined = [handlers[op["job"]] for op in ops]
    children = [r for r in records if r[2] == "worker.job"]
    rpc_calls = [r for r in records if r[2] == "service.rpc"]
    child_tree, counts = merge(children)
    handler_tree, _ = merge(joined)
    values = engine_metrics(child_tree, counts, n)
    daemon_encode = handler_tree.get("io.encode", [0, 0.0, 0.0])[2]
    values["io.encode_ms"] += daemon_encode * 1e3 / n
    http = sum(op["latency"] - h[1] + h[0] for op, h in zip(ops, joined))
    handler = sum(
        h[4]["service.handler"][2] - h[3]["total_s"] for h in joined
    )
    wait = sum(h[3]["wait_s"] for h in joined)
    child_total = sum(r[1] - r[0] for r in children)
    rpc = sum(r[1] - r[0] for r in rpc_calls) - child_total
    latency = sum(op["latency"] for op in ops)
    decode_calls = child_tree.get("io.decode", [0])[0]
    counters = passed["counters"]
    values.update(
        {
            "service.http_ms": http * 1e3 / n,
            "service.handler_ms": handler * 1e3 / n,
            "service.queue_wait_ms": wait * 1e3 / n,
            "service.map_ms": sum(op["map_s"] for op in ops) * 1e3 / n,
            "service.rpc_ms": rpc * 1e3 / n,
            "service.worker_ms": child_tree.get("worker.job", [0, 0.0, 0.0])[2] * 1e3 / n,
            "service.cache_hit_ratio": 1.0 - ratio(decode_calls, len(children)),
            "service.rejected": counters.get("service.rejected", 0),
            "service.failed": counters.get("service.failed", 0),
        }
    )
    values["trace.residual_pct"] = residual_pct(values, latency * 1e3 / n)
    return values


def run(opts, import_s: float, env: dict):
    return run_daemon(sys.modules[__name__], opts, import_s, env)
