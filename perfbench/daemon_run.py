"""The measurement shared by the two daemon workloads.

A workload module (``service_map``, ``session_stream``) supplies the
scenarios, the warm-up, the seeded op plan, one closed-loop client's
drive over its share of the plan, the verification and the per-layer
arithmetic; this module boots the daemon, times set-up, runs two client
threads over the plan and reads memory before the daemon stops.

Timings are speed-adjusted by the host-speed probe (``probe.py``), which
runs beside the client and the daemon for the whole run: a set-up phase
or an op is scaled by ``NOMINAL_REF_S`` over the probe's mean reference
time around it.  Each op reports the part of its latency that waits on a
kernel timer rather than a CPU (``wait``: on service-map the delayed-ACK
stall between a reply's headers and its body); that part is not scaled.
"""

from __future__ import annotations

import json
import shutil
import statistics
import threading
import time

from common import OUT_DIR, SpeedTrace, end_to_end, run_context
from daemon import SHARDS, Client, Daemon, Probe, load_spans
from layers import ratio

SETUP_REPEATS = 3


def register(client: Client, doc: dict) -> str:
    status, _, body = client.post_json("/v1/scenarios", doc)
    if status not in (200, 201):
        raise RuntimeError(f"scenario registration failed ({status}): {body[:200]!r}")
    return json.loads(body)["id"]


def boot(wl, env: dict, opts, n_ops: int, spans_dir=None) -> tuple:
    """One set-up pass: generate, boot, register, warm up.  Returns the
    live daemon, the scenarios, their docs and ids, and each phase's
    (start, end)."""
    from repro.io.serialization import scenario_to_dict

    started = time.perf_counter()
    scenarios = wl.generate(opts.tasks or wl.N_TASKS, opts.seed)
    docs = [scenario_to_dict(scenario) for scenario in scenarios]
    generated = time.perf_counter()
    daemon = Daemon(
        env,
        OUT_DIR / f"daemon-{wl.NAME}.log",
        spans_dir=spans_dir,
        max_sessions=wl.max_sessions(n_ops),
    )
    daemon.start()
    booted = time.perf_counter()
    try:
        client = Client(daemon.port)
        ids = [register(client, doc) for doc in docs]
        registered = time.perf_counter()
        wl.warm_up(client, ids, scenarios)
        client.close()
    except BaseException:
        daemon.stop()
        raise
    warmed = time.perf_counter()
    phases = {
        "setup.generate_s": (started, generated),
        "setup.boot_s": (generated, booted),
        "setup.register_s": (booted, registered),
        "setup.warmup_s": (registered, warmed),
    }
    return daemon, scenarios, docs, ids, phases


def drive_clients(wl, daemon: Daemon, plan: list) -> dict:
    """Run one client thread per share of *plan*; the timed window is
    from the first send to the last reply."""
    counters_before = daemon.metrics()["counters"]
    results: list[list] = [[] for _ in plan]
    errors: list[BaseException] = []

    def client_main(index: int) -> None:
        client = Client(daemon.port)
        try:
            results[index].extend(wl.drive(client, plan[index]))
        except BaseException as exc:  # surfaced after join
            errors.append(exc)
        finally:
            client.close()

    threads = [
        threading.Thread(
            target=client_main, args=(i,), name=f"bench-client-{i}", daemon=True
        )
        for i in range(len(plan))
    ]
    window_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    window_end = time.perf_counter()
    if errors:
        raise errors[0]
    counters_after = daemon.metrics()["counters"]
    rss_daemon, rss_shards = daemon.peak_rss_mb()
    delta = {
        key: counters_after.get(key, 0) - counters_before.get(key, 0)
        for key in set(counters_after) | set(counters_before)
    }
    return {
        "ops": [op for share in results for op in share],
        "window": (window_start, window_end),
        "counters": delta,
        "rss": (rss_daemon, rss_shards),
    }


def adjusted(op: dict, speed: SpeedTrace) -> float:
    """The op's latency at reference-host speed; its timer wait unscaled."""
    start = op["start"]
    busy = op["latency"] - op["wait"]
    return busy * speed.scale(start, start + op["latency"]) + op["wait"]


def summarize(passed: dict, speed: SpeedTrace) -> tuple[int, int, float, list[float]]:
    """(attempted, failed, adjusted ops/s, adjusted ok-op latencies).

    The window is scaled by the ratio of adjusted to raw latency over all
    ops: with closed-loop clients it is their latencies laid end to end.
    """
    ops = passed["ops"]
    scaled = [adjusted(op, speed) for op in ops]
    latencies = [t for t, op in zip(scaled, ops) if op["ok"]]
    start, end = passed["window"]
    window = (end - start) * ratio(sum(scaled), sum(op["latency"] for op in ops))
    return len(ops), len(ops) - len(latencies), ratio(len(latencies), window), latencies


def measure(wl, opts, env: dict, n_ops: int, spans_dir) -> tuple[list, list]:
    """Boot :data:`SETUP_REPEATS` fresh daemons; drive the plan on the
    last (and, on a traced run, an untraced pass on the one before)."""
    phases: list[dict] = []
    passes: list[dict] = []
    for index in range(SETUP_REPEATS):
        traced = bool(opts.trace) and index == SETUP_REPEATS - 1
        if traced:
            spans_dir.mkdir(parents=True)
        daemon, scenarios, docs, ids, phase = boot(
            wl, env, opts, n_ops, spans_dir if traced else None
        )
        phases.append(phase)
        measured = index == SETUP_REPEATS - 1 or (
            opts.trace and index == SETUP_REPEATS - 2
        )
        try:
            if measured:
                # Benchmark-side preparation, off the set-up clock.
                plan = wl.plan(opts, n_ops // 2 if opts.trace else n_ops, ids, scenarios)
                passes.append(drive_clients(wl, daemon, plan))
        finally:
            daemon.stop()
        if measured:
            wl.verify(passes[-1]["ops"], scenarios, docs)
    return phases, passes


def run(wl, opts, import_s: float, env: dict) -> tuple[dict, int, int, dict]:
    from repro.core.kernel import resolve_kernel_mode

    n_ops = wl.n_ops_for(opts.seconds)
    spans_dir = OUT_DIR / f"spans-{wl.NAME}"
    if spans_dir.exists():
        shutil.rmtree(spans_dir)
    probe = Probe(env)
    try:
        phases, passes = measure(wl, opts, env, n_ops, spans_dir)
    finally:
        speed = probe.stop()

    times = [
        {name: (end - start) * speed.scale(start, end) for name, (start, end) in p.items()}
        for p in phases
    ]
    setups = [import_s + sum(t.values()) for t in times]
    report = {
        "workload": wl.NAME,
        "n_tasks": opts.tasks or wl.N_TASKS,
        "ops": len(passes[-1]["ops"]),
        "repeat_share": wl.repeat_share(passes[-1]["ops"]),
        "host.ref_ms": speed.median_s(*passes[-1]["window"]) * 1e3,
        **run_context(resolve_kernel_mode(None), SHARDS),
    }
    if not opts.trace:
        attempted, failed, ops_per_s, latencies = summarize(passes[0], speed)
        window = passes[0]["window"]
        report["ops_per_s_raw"] = ratio(attempted - failed, window[1] - window[0])
        metrics = end_to_end(
            statistics.median(setups), ops_per_s, latencies, sum(passes[0]["rss"])
        )
        return report, attempted, failed, metrics

    plain, traced = passes
    records = []
    for dump in load_spans(spans_dir):
        start, end = traced["window"]
        records += [r for r in dump["records"] if start <= r[0] <= end]
    values = wl.layer_values(traced, records)
    plain_latency = statistics.fmean(adjusted(op, speed) for op in plain["ops"])
    traced_latency = statistics.fmean(adjusted(op, speed) for op in traced["ops"])
    values.update(
        {
            "setup.import_s": import_s,
            **{key: statistics.median(t[key] for t in times) for key in times[0]},
            "rss.daemon_mb": plain["rss"][0],
            "rss.shard_mb": plain["rss"][1],
            "host.ref_ms": report["host.ref_ms"],
            "trace.ops": len(traced["ops"]),
            "trace.overhead_pct": 100.0 * (traced_latency / plain_latency - 1.0),
        }
    )
    attempted = len(plain["ops"]) + len(traced["ops"])
    failed = sum(not op["ok"] for p in passes for op in p["ops"])
    return report, attempted, failed, values
