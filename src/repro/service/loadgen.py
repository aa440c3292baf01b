"""Load generator for the scheduling service → ``benchmarks/BENCH_service.json``.

Drives N concurrent synchronous ``/v1/map`` clients against a running
service (or a self-hosted in-process one), one level per requested
concurrency, and records throughput plus exact p50/p95/p99 request
latency per level.  The artefact layout::

    {
      "schema": "repro.bench.service/1",
      "scenario": {"id": ..., "n_tasks": ..., "seed": ...},
      "heuristic": "slrh1",
      "levels": [
        {"clients": 1, "requests": ..., "errors": 0,
         "retries_429": ..., "gave_up": ..., "repeats": 0,
         "wall_seconds": ..., "throughput_rps": ...,
         "latency_seconds": {"count": ..., "mean": ..., "p50": ...,
                             "p95": ..., "p99": ...}},
        ...
      ],
      "metrics_after": {... selected /metrics fields ...}
    }

Every map request of a weighted heuristic asks for its own α
(:func:`run_level`), so each one runs a map rather than a repeat the
daemon answers from its request index; ``repeats`` counts the requests
the index answered anyway.

Backpressure handling is **bounded**: a 429 response is retried after the
server's ``Retry-After`` hint, but only up to ``--max-retries`` times per
request — a persistently saturated queue shows up as ``gave_up`` counts in
the report instead of hanging the benchmark forever.

Usage::

    python -m repro.service.loadgen [--url http://host:port | --shards N]
                                    [--clients 1,4,16] [--requests 8]
                                    [--n-tasks 24] [--seed 7]
                                    [--heuristic slrh1]
                                    [--out benchmarks/BENCH_service.json]

Without ``--url`` a service is booted in-process on an ephemeral port
(with ``--shards`` worker processes) and torn down afterwards, so the
benchmark is one self-contained command.

``--shard-sweep 1,2,4`` (self-host only) runs the whole level set once
per shard count against a fresh daemon each time and emits the
``repro.bench.service/2`` artefact: per-shard-count ``shard_sweep``
entries plus a ``shard_speedup`` summary comparing the highest client
level's throughput at the largest shard count against one shard.  Every
count serves the same traffic, spread over one scenario per shard of
the largest count (:func:`spread_seeds`): affine routing sends all the
requests for one scenario to one shard.  The
host's ``cpu_count`` is recorded alongside — a sweep on a single core
cannot show a parallel speedup and must say so honestly
(``benchmarks/check_regression.py`` only enforces the 2.5x floor on
artefacts measured with >= 4 cores).

``--mode session`` switches to streaming-session clients: each client
opens a ``/v1/session``, streams a deterministic synthesized grid-event
mix (arrivals, losses, rejoins — :func:`repro.session.synthesize_events`,
seeded per client) in NDJSON batches, and reads the mapping-delta blocks
back; latency is per event batch and the artefact carries ``"mode":
"session"`` plus events-per-second throughput.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Sequence

from repro.perf import Histogram
from repro.workload.scenario import Scenario

_SCHEMA = "repro.bench.service/1"
_SWEEP_SCHEMA = "repro.bench.service/2"
_HTTP_TIMEOUT = 600.0

#: Default per-request budget of 429 retries before a client gives up.
DEFAULT_MAX_RETRIES = 8

#: How far each map request's α sits below the previous one's
#: (:func:`run_level`): distinct keys, the same work.
ALPHA_STEP = 1e-12


def _post_json(base_url: str, path: str, doc: dict) -> tuple[int, bytes]:
    req = urllib.request.Request(
        base_url + path,
        data=json.dumps(doc).encode("ascii"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=_HTTP_TIMEOUT) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _post_ndjson(base_url: str, path: str, lines: bytes) -> tuple[int, bytes]:
    req = urllib.request.Request(
        base_url + path,
        data=lines,
        headers={"Content-Type": "application/x-ndjson"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=_HTTP_TIMEOUT) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _get_json(base_url: str, path: str) -> dict:
    with urllib.request.urlopen(base_url + path, timeout=_HTTP_TIMEOUT) as resp:
        return json.loads(resp.read())


def spread_seeds(n_shards: int, n_tasks: int, seed: int) -> list[int]:
    """Generator seeds, searched upward from *seed*, whose ``(n_tasks,
    seed)`` scenarios land one on each shard of an *n_shards* daemon
    under affine routing (:meth:`ShardRouter.shard_of
    <repro.service.jobs.ShardRouter.shard_of>`); index *k* is shard *k*'s.

    One scenario routes every request to one shard at any shard count,
    so traffic meant to load *n_shards* shards needs one per shard.
    """
    from types import SimpleNamespace

    from repro.heuristics import generate_named_scenario
    from repro.io.serialization import scenario_digest, scenario_to_dict
    from repro.service.jobs import ShardRouter

    router = SimpleNamespace(n_shards=n_shards)
    by_shard: dict[int, int] = {}
    candidate = seed
    while len(by_shard) < n_shards:
        doc = scenario_to_dict(generate_named_scenario(n_tasks, candidate))
        by_shard.setdefault(
            ShardRouter.shard_of(router, scenario_digest(doc)), candidate
        )
        candidate += 1
    return [by_shard[k] for k in range(n_shards)]


def register_scenario(base_url: str, n_tasks: int, seed: int) -> str:
    """Register the generated ``(n_tasks, seed)`` scenario; returns its id."""
    status, body = _post_json(
        base_url,
        "/v1/scenarios",
        {"generate": {"n_tasks": n_tasks, "seed": seed}},
    )
    if status not in (200, 201):
        raise RuntimeError(f"scenario registration failed ({status}): {body!r}")
    return json.loads(body)["id"]


def _index_answers(base_url: str) -> float | None:
    """Requests the daemon's request index has answered so far; None when
    the server has no readable ``/metrics``."""
    try:
        counters = _get_json(base_url, "/metrics").get("counters", {})
    except (OSError, ValueError):
        return None
    return counters.get("service.repeats", 0.0) + counters.get(
        "service.attached", 0.0
    )


def run_level(
    base_url: str,
    scenario_ids: Sequence[str],
    heuristic: str,
    clients: int,
    requests_per_client: int,
    max_retries: int = DEFAULT_MAX_RETRIES,
    first_request: int = 0,
) -> dict:
    """One concurrency level: *clients* threads × *requests_per_client*
    sequential synchronous map requests each.  Client *i* maps scenario
    ``scenario_ids[i % len(scenario_ids)]``, so the clients split evenly
    over the scenarios.

    Every request of a weighted heuristic asks for its own α, so the
    daemon maps each one instead of answering it from its request index:
    request *n* (numbered from ``first_request + 1``, client by client)
    asks for α = ``DEFAULT_ALPHA − n · ALPHA_STEP`` at the default β.
    A step of 10⁻¹² leaves the work unchanged: every scenario this module
    sends maps to its default-weight bytes for n up to 4096 (tested),
    more requests than any of its runs sends.  A weight-free heuristic
    takes no weights, so its requests repeat; ``repeats`` (the change in
    ``service.repeats + service.attached`` on ``/metrics``, None without
    a readable ``/metrics``) shows it.

    Each request retries on 429 backpressure at most *max_retries* times
    (honouring the server's ``Retry-After``); exhausting the budget counts
    the request as ``gave_up`` rather than retrying forever.
    """
    from repro.heuristics import (
        DEFAULT_ALPHA,
        WEIGHTED_HEURISTICS,
        normalize_heuristic,
    )

    weighted = normalize_heuristic(heuristic) in WEIGHTED_HEURISTICS
    latencies = Histogram()
    lock = threading.Lock()
    errors = [0]
    retries_429 = [0]
    gave_up = [0]

    def client(index: int) -> None:
        payload: dict = {
            "scenario": scenario_ids[index % len(scenario_ids)],
            "heuristic": heuristic,
            "wait": True,
        }
        for k in range(requests_per_client):
            if weighted:
                n = first_request + index * requests_per_client + k + 1
                payload["alpha"] = DEFAULT_ALPHA - n * ALPHA_STEP
            attempts = 0
            while True:
                started = time.perf_counter()
                try:
                    status, body = _post_json(base_url, "/v1/map", payload)
                except (OSError, http.client.HTTPException):
                    # A hammered accept backlog resets connections before
                    # HTTP even starts; that is congestion, not a request
                    # failure — back off briefly within the same bounded
                    # retry budget as a 429.
                    attempts += 1
                    if attempts > max_retries:
                        with lock:
                            errors[0] += 1
                        break
                    time.sleep(0.05 * attempts)
                    continue
                elapsed = time.perf_counter() - started
                if status == 429:
                    # Backpressure is not an error, but the retry budget is
                    # bounded: a saturated queue must not hang the benchmark.
                    with lock:
                        retries_429[0] += 1
                    attempts += 1
                    if attempts > max_retries:
                        with lock:
                            gave_up[0] += 1
                        break
                    retry = 1.0
                    try:
                        retry = float(json.loads(body).get("retry_after", 1))
                    except (ValueError, AttributeError):
                        pass
                    time.sleep(min(retry, 5.0))
                    continue
                with lock:
                    if status == 200:
                        latencies.observe(elapsed)
                    else:
                        errors[0] += 1
                break

    threads = [
        threading.Thread(target=client, args=(i,), name=f"loadgen-{i}")
        for i in range(clients)
    ]
    answered_before = _index_answers(base_url)
    wall_started = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - wall_started
    completed = latencies.count
    answered_after = _index_answers(base_url)
    return {
        "clients": clients,
        "requests": completed,
        "errors": errors[0],
        "retries_429": retries_429[0],
        "gave_up": gave_up[0],
        "repeats": (
            None
            if answered_before is None or answered_after is None
            else int(answered_after - answered_before)
        ),
        "wall_seconds": wall,
        "throughput_rps": completed / wall if wall > 0 else 0.0,
        "latency_seconds": latencies.summary(),
    }


def run_session_level(
    base_url: str,
    scenario: Scenario,
    scenario_id: str,
    heuristic: str,
    clients: int,
    n_events: int,
    batch: int,
    max_cycle: int,
    seed: int,
) -> dict:
    """One session-mode level: *clients* concurrent streaming sessions.

    Each client opens its own session, synthesizes a deterministic mixed
    event stream (seeded per client, so every run replays the same
    sessions), posts it in NDJSON batches of *batch* events and reads the
    delta blocks back; the last batch carries the ``close`` and must end
    in a ``footer``.  Latency is per event batch.
    """
    from repro.session import synthesize_events

    latencies = Histogram()
    lock = threading.Lock()
    errors = [0]
    delta_lines = [0]

    def client(index: int) -> None:
        held, events = synthesize_events(
            scenario,
            seed=seed * 1000 + index,
            n_events=n_events,
            max_cycle=max_cycle,
        )
        status, body = _post_json(
            base_url,
            "/v1/session",
            {
                "scenario": scenario_id,
                "heuristic": heuristic,
                "pending": list(held),
            },
        )
        if status != 201:
            with lock:
                errors[0] += 1
            return
        events_url = json.loads(body)["events_url"]
        footer_seen = False
        for start in range(0, len(events), batch):
            chunk = events[start:start + batch]
            payload = b"".join(
                json.dumps(ev.to_dict()).encode("ascii") + b"\n" for ev in chunk
            )
            started = time.perf_counter()
            status, body = _post_ndjson(base_url, events_url, payload)
            elapsed = time.perf_counter() - started
            lines = body.splitlines()
            bad = status != 200 or any(
                b'"record":"error"' in ln for ln in lines
            )
            with lock:
                if bad:
                    errors[0] += 1
                else:
                    latencies.observe(elapsed)
                    delta_lines[0] += len(lines)
            if bad:
                return
            footer_seen = any(b'"record":"footer"' in ln for ln in lines)
        if not footer_seen:
            with lock:
                errors[0] += 1

    threads = [
        threading.Thread(target=client, args=(i,), name=f"loadgen-sess-{i}")
        for i in range(clients)
    ]
    wall_started = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - wall_started
    batches = latencies.count
    return {
        "clients": clients,
        "sessions": clients,
        "events_per_session": n_events,
        "batch": batch,
        "batches": batches,
        "errors": errors[0],
        "delta_lines": delta_lines[0],
        "wall_seconds": wall,
        "throughput_eps": (batches * batch) / wall if wall > 0 else 0.0,
        "latency_seconds": latencies.summary(),
    }


def run_session_loadgen(
    base_url: str,
    levels: tuple[int, ...] = (1, 4, 16),
    n_tasks: int = 24,
    seed: int = 7,
    heuristic: str = "slrh1",
    n_events: int = 16,
    batch: int = 4,
    max_cycle: int = 60,
) -> dict:
    """Session-mode benchmark against *base_url*; returns the artefact."""
    from repro.heuristics import generate_named_scenario

    # The local scenario is byte-identical to the registered one — both
    # sides build it through generate_named_scenario — so the synthesized
    # event streams are legal on the server's copy.
    scenario = generate_named_scenario(n_tasks, seed)
    scenario_id = register_scenario(base_url, n_tasks, seed)
    results = [
        run_session_level(
            base_url,
            scenario,
            scenario_id,
            heuristic,
            c,
            n_events,
            batch,
            max_cycle,
            seed,
        )
        for c in levels
    ]
    metrics = _get_json(base_url, "/metrics")
    return {
        "schema": _SCHEMA,
        "mode": "session",
        "scenario": {"id": scenario_id, "n_tasks": n_tasks, "seed": seed},
        "heuristic": heuristic,
        "events_per_session": n_events,
        "batch": batch,
        "max_cycle": max_cycle,
        "levels": results,
        "metrics_after": {
            "gauges": metrics.get("gauges", {}),
            "histograms": metrics.get("histograms", {}),
            "counters": {
                k: v
                for k, v in metrics.get("counters", {}).items()
                if k.startswith(("service.", "registry.", "map.", "session."))
            },
        },
    }


def run_loadgen(
    base_url: str,
    levels: tuple[int, ...] = (1, 4, 16),
    n_tasks: int = 24,
    seed: int = 7,
    heuristic: str = "slrh1",
    requests_per_client: int = 8,
    max_retries: int = DEFAULT_MAX_RETRIES,
    spread_shards: int = 1,
) -> dict:
    """Full benchmark against *base_url*; returns the artefact document.

    The clients of each level split evenly over one scenario per shard
    of a *spread_shards*-shard daemon (:func:`spread_seeds`); the default
    1 maps the ``(n_tasks, seed)`` scenario only.
    """
    seeds = spread_seeds(spread_shards, n_tasks, seed)
    scenario_ids = [register_scenario(base_url, n_tasks, s) for s in seeds]
    results = []
    sent = 0
    for c in levels:
        results.append(
            run_level(
                base_url,
                scenario_ids,
                heuristic,
                c,
                requests_per_client,
                max_retries=max_retries,
                first_request=sent,
            )
        )
        sent += c * requests_per_client
    metrics = _get_json(base_url, "/metrics")
    return {
        "schema": _SCHEMA,
        "scenario": {
            "id": scenario_ids[0],
            "n_tasks": n_tasks,
            "seed": seed,
            "seeds": seeds,
        },
        "heuristic": heuristic,
        "requests_per_client": requests_per_client,
        "max_retries": max_retries,
        "levels": results,
        "metrics_after": {
            "gauges": metrics.get("gauges", {}),
            "histograms": metrics.get("histograms", {}),
            "counters": {
                k: v
                for k, v in metrics.get("counters", {}).items()
                if k.startswith(("service.", "registry.", "map."))
            },
        },
    }


class _SelfHosted:
    """An ephemeral in-process daemon: registry + shard router + server.

    ``with _SelfHosted(n_shards) as base_url:`` boots the whole stack on
    a loopback ephemeral port and tears it down (drain, HTTP shutdown,
    shard processes reaped) on exit — the unit the shard sweep repeats
    per shard count.
    """

    def __init__(self, n_shards: int = 1, max_queue: int = 64) -> None:
        from repro.service.app import make_server
        from repro.service.jobs import ShardRouter
        from repro.service.registry import ScenarioRegistry

        self.manager = ShardRouter(
            ScenarioRegistry(), shards=n_shards, max_queue=max_queue
        )
        self.server = make_server("127.0.0.1", 0, self.manager)
        host, port = self.server.server_address[:2]
        self.base_url = f"http://{host}:{port}"
        self._thread = threading.Thread(
            target=self.server.serve_forever, name="loadgen-http", daemon=True
        )
        self._thread.start()

    def __enter__(self) -> str:
        return self.base_url

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        self.manager.drain(timeout=30)
        self.server.shutdown()
        self._thread.join(timeout=10)
        self.server.server_close()
        self.manager.close(drain_timeout=0)


def run_shard_sweep(
    shard_counts: tuple[int, ...] = (1, 2, 4),
    levels: tuple[int, ...] = (64, 128, 256),
    n_tasks: int = 16,
    seed: int = 7,
    heuristic: str = "slrh1",
    requests_per_client: int = 2,
    max_retries: int = DEFAULT_MAX_RETRIES,
    max_queue: int = 256,
) -> dict:
    """The sharding benchmark: the full level set, once per shard count,
    each against a fresh self-hosted daemon.  Every count serves the same
    traffic: one scenario per shard of the largest count, clients split
    evenly over them.

    Returns the ``repro.bench.service/2`` artefact: ``shard_sweep``
    carries one ``{"shards", "levels", "metrics_after"}`` entry per
    count, ``levels`` mirrors the largest count's levels (so v1
    consumers keep working), and ``shard_speedup`` compares the highest
    client level's throughput at ``max(shard_counts)`` vs
    ``min(shard_counts)``.  ``cpu_count`` records the parallelism that
    was physically available — the honesty bit the regression gate keys
    its 2.5x floor on.
    """
    if len(shard_counts) < 2:
        raise ValueError("shard sweep needs at least two shard counts")
    sweep = []
    for n_shards in shard_counts:
        with _SelfHosted(n_shards, max_queue=max_queue) as base_url:
            doc = run_loadgen(
                base_url,
                levels=levels,
                n_tasks=n_tasks,
                seed=seed,
                heuristic=heuristic,
                requests_per_client=requests_per_client,
                max_retries=max_retries,
                spread_shards=max(shard_counts),
            )
        sweep.append(
            {
                "shards": n_shards,
                "levels": doc["levels"],
                "metrics_after": doc["metrics_after"],
            }
        )
        top = doc["levels"][-1]
        print(
            f"shards={n_shards}  clients={top['clients']}  "
            f"throughput={top['throughput_rps']:8.2f} req/s",
            flush=True,
        )
    baseline = sweep[0]
    best = sweep[-1]
    top_clients = max(levels)

    def _rps(entry: dict) -> float:
        for level in entry["levels"]:
            if level["clients"] == top_clients:
                return level["throughput_rps"]
        return 0.0

    baseline_rps = _rps(baseline)
    best_rps = _rps(best)
    cpu_count = os.cpu_count() or 1
    return {
        "schema": _SWEEP_SCHEMA,
        "mode": "map",
        "cpu_count": cpu_count,
        "scenario": {
            "n_tasks": n_tasks,
            "seed": seed,
            "seeds": doc["scenario"]["seeds"],
        },
        "heuristic": heuristic,
        "requests_per_client": requests_per_client,
        "max_retries": max_retries,
        "max_queue": max_queue,
        "levels": best["levels"],
        "shard_sweep": sweep,
        "shard_speedup": {
            "clients": top_clients,
            "baseline_shards": baseline["shards"],
            "baseline_rps": baseline_rps,
            "shards": best["shards"],
            "rps": best_rps,
            "speedup": best_rps / baseline_rps if baseline_rps > 0 else 0.0,
            # A 1-core sweep serialises the shards onto one CPU; the
            # regression gate only enforces the floor when the artefact
            # was measured with real parallelism available.
            "parallel_hardware": cpu_count >= max(shard_counts),
        },
    }


def measure_shard_speedup(
    shard_counts: tuple[int, int] = (1, 4),
    clients: int = 16,
    requests_per_client: int = 3,
    n_tasks: int = 32,
    seed: int = 7,
    heuristic: str = "slrh1",
    repeats: int = 2,
) -> dict:
    """Live A/B for the regression gate: best-of-*repeats* throughput of
    one level at ``shard_counts[1]`` shards over ``shard_counts[0]``.

    Both arms serve the same traffic: one scenario per shard of the
    larger arm (:func:`spread_seeds`), the clients split evenly over
    them, so the larger arm has every shard busy.  Arms are interleaved
    within each repeat (like the other self-normalised gates) so
    frequency scaling biases both equally.  The queue bound is sized to
    the client count, so no request is ever rejected and both arms
    complete identical work: every request a map (:func:`run_level`),
    none answered from the daemon's request index.
    """
    seeds = spread_seeds(max(shard_counts), n_tasks, seed)
    best: dict[int, float] = {n: 0.0 for n in shard_counts}
    for _ in range(max(1, repeats)):
        for n_shards in shard_counts:
            with _SelfHosted(n_shards, max_queue=max(64, clients * 2)) as base:
                scenario_ids = [register_scenario(base, n_tasks, s) for s in seeds]
                level = run_level(
                    base, scenario_ids, heuristic, clients, requests_per_client
                )
            if level["errors"] or level["gave_up"] or level["repeats"] != 0:
                raise RuntimeError(
                    f"shard speedup measurement unsound at {n_shards} shard(s): "
                    f"{level['errors']} errors, {level['gave_up']} gave up, "
                    f"{level['repeats']} answered from the request index"
                )
            best[n_shards] = max(best[n_shards], level["throughput_rps"])
    baseline_rps = best[shard_counts[0]]
    sharded_rps = best[shard_counts[1]]
    return {
        "clients": clients,
        "requests_per_client": requests_per_client,
        "n_tasks": n_tasks,
        "seeds": seeds,
        "baseline_shards": shard_counts[0],
        "baseline_rps": round(baseline_rps, 3),
        "shards": shard_counts[1],
        "rps": round(sharded_rps, 3),
        "speedup": round(sharded_rps / baseline_rps, 4) if baseline_rps > 0 else 0.0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.loadgen",
        description="Benchmark a repro.service daemon; writes "
        "benchmarks/BENCH_service.json.",
    )
    parser.add_argument("--url", default=None,
                        help="base URL of a running service (default: self-host)")
    parser.add_argument("--mode", choices=("map", "session"), default="map",
                        help="map = one-shot /v1/map requests; session = "
                        "streaming sessions with synthesized grid events")
    parser.add_argument("--events", type=int, default=16,
                        help="[session] events per session")
    parser.add_argument("--batch", type=int, default=4,
                        help="[session] events per NDJSON request")
    parser.add_argument("--max-cycle", type=int, default=60,
                        help="[session] cycle of the closing event")
    parser.add_argument("--shards", default=None,
                        help="shard processes for the self-hosted service "
                        "(int or 'auto'; default $REPRO_SHARDS, else 1)")
    parser.add_argument("--shard-sweep", default=None, metavar="N,N,...",
                        help="run the whole level set once per shard count "
                        "(self-host only) and emit the repro.bench.service/2 "
                        "artefact with a shard_speedup summary")
    parser.add_argument("--max-queue", type=int, default=64)
    parser.add_argument("--clients", default="1,4,16",
                        help="comma-separated concurrency levels")
    parser.add_argument("--requests", type=int, default=8,
                        help="requests per client per level")
    parser.add_argument("--max-retries", type=int, default=DEFAULT_MAX_RETRIES,
                        help="429 retries allowed per request before giving up")
    parser.add_argument("--n-tasks", type=int, default=24)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--heuristic", default="slrh1")
    parser.add_argument("--out", default="benchmarks/BENCH_service.json")
    args = parser.parse_args(argv)
    try:
        levels = tuple(int(c) for c in args.clients.split(",") if c.strip())
    except ValueError:
        parser.error(f"--clients must be comma-separated integers, got {args.clients!r}")
    if not levels or any(c < 1 for c in levels):
        parser.error("--clients needs at least one positive level")
    if args.max_retries < 0:
        parser.error("--max-retries must be >= 0")

    if args.shard_sweep is not None:
        if args.url:
            parser.error("--shard-sweep boots its own daemons; drop --url")
        if args.mode != "map":
            parser.error("--shard-sweep only supports --mode map")
        try:
            shard_counts = tuple(
                int(c) for c in args.shard_sweep.split(",") if c.strip()
            )
        except ValueError:
            parser.error(
                f"--shard-sweep must be comma-separated integers, "
                f"got {args.shard_sweep!r}"
            )
        if len(shard_counts) < 2 or any(n < 1 for n in shard_counts):
            parser.error("--shard-sweep needs at least two positive shard counts")
        doc = run_shard_sweep(
            shard_counts,
            levels=levels,
            n_tasks=args.n_tasks,
            seed=args.seed,
            heuristic=args.heuristic,
            requests_per_client=args.requests,
            max_retries=args.max_retries,
            max_queue=args.max_queue,
        )
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        speedup = doc["shard_speedup"]
        print(
            f"shard speedup @ {speedup['clients']} clients: "
            f"{speedup['speedup']:.2f}x "
            f"({speedup['shards']} shards {speedup['rps']:.1f} req/s vs "
            f"{speedup['baseline_shards']} shard {speedup['baseline_rps']:.1f} "
            f"req/s, {doc['cpu_count']} CPU core(s))",
            flush=True,
        )
        print(f"wrote {out}", flush=True)
        return 0

    hosted = None
    if args.url:
        base_url = args.url.rstrip("/")
    else:
        from repro.util.parallel import resolve_shards

        hosted = _SelfHosted(resolve_shards(args.shards), max_queue=args.max_queue)
        base_url = hosted.base_url
        print(f"self-hosted service on {base_url}", flush=True)

    try:
        if args.mode == "session":
            doc = run_session_loadgen(
                base_url,
                levels=levels,
                n_tasks=args.n_tasks,
                seed=args.seed,
                heuristic=args.heuristic,
                n_events=args.events,
                batch=args.batch,
                max_cycle=args.max_cycle,
            )
        else:
            doc = run_loadgen(
                base_url,
                levels=levels,
                n_tasks=args.n_tasks,
                seed=args.seed,
                heuristic=args.heuristic,
                requests_per_client=args.requests,
                max_retries=args.max_retries,
            )
    finally:
        if hosted is not None:
            hosted.close()

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for level in doc["levels"]:
        lat = level["latency_seconds"]
        if args.mode == "session":
            print(
                f"clients={level['clients']:>3}  batches={level['batches']:>4}  "
                f"throughput={level['throughput_eps']:8.2f} ev/s  "
                f"p50={lat['p50']*1e3:7.1f}ms  p95={lat['p95']*1e3:7.1f}ms  "
                f"p99={lat['p99']*1e3:7.1f}ms  errors={level['errors']}",
                flush=True,
            )
        else:
            print(
                f"clients={level['clients']:>3}  requests={level['requests']:>4}  "
                f"throughput={level['throughput_rps']:8.2f} req/s  "
                f"p50={lat['p50']*1e3:7.1f}ms  p95={lat['p95']*1e3:7.1f}ms  "
                f"p99={lat['p99']*1e3:7.1f}ms  "
                f"retries429={level['retries_429']}  gave_up={level['gave_up']}",
                flush=True,
            )
    print(f"wrote {out}", flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess test
    sys.exit(main())
