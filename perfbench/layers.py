"""Per-layer metrics of the traced run: names, units and arithmetic.

Every ``*_ms`` time is a layer's *self* time (see ``tracer``) summed over
the ops of the traced pass, divided by the number of ops, so the times of
one workload add up: mean op latency = the :data:`ADDITIVE` layer times +
the residual no reported layer covers (``trace.residual_pct``).  Two
exceptions: ``service.map_ms`` is the daemon's ``X-Heuristic-Seconds``
(inclusive of the engine layers), and ``session.open_ms`` is the mean
time of one session open, which happens outside the timed ops.  Counts
are per op unless named otherwise.  A layer that does not run on a
workload reports 0.  Layer times are raw, so that they add up to the raw
op latency; ``host.ref_ms`` gives the host's speed during the run.
"""

from __future__ import annotations

from common import CONFIG, with_units

#: Span name -> per-layer time metric (self time per op).
SELF_TIME_METRICS = {
    "core.pool_for": "core.pool_for_ms",
    "core.replan": "core.replan_ms",
    "core.kernel": "core.kernel_self_ms",
    "core.map": "core.map_self_ms",
    "sim.plan": "sim.plan_ms",
    "sim.commit": "sim.commit_ms",
    "baselines.select": "baselines.select_ms",
    "io.decode": "io.decode_ms",
    "io.encode": "io.encode_ms",
    "session.apply": "session.apply_ms",
    "session.encode": "session.encode_ms",
}


#: Per-op self times that partition an op's latency; whatever they miss
#: (unwrapped glue such as registry dispatch or the dispatcher's own
#: bookkeeping) is the residual.
ADDITIVE = (
    "core.pool_for_ms",
    "core.replan_ms",
    "core.kernel_self_ms",
    "core.map_self_ms",
    "sim.plan_ms",
    "sim.commit_ms",
    "baselines.select_ms",
    "io.decode_ms",
    "io.encode_ms",
    "service.http_ms",
    "service.handler_ms",
    "service.queue_wait_ms",
    "service.rpc_ms",
    "service.worker_ms",
    "session.apply_ms",
    "session.encode_ms",
)


def residual_pct(values: dict[str, float], latency_ms: float) -> float:
    """Share of the mean op latency that no reported layer time covers."""
    covered = sum(values.get(name, 0.0) for name in ADDITIVE)
    return 100.0 * ratio(latency_ms - covered, latency_ms)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def merge(records: list[list]) -> tuple[dict[str, list[float]], dict[str, float]]:
    """Sum the span trees and counters of *records*:
    ``({name: [calls, total_s, self_s]}, {counter: value})``."""
    tree: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    for _start, _end, _root, _meta, spans, counters in records:
        for name, (calls, total, own) in spans.items():
            entry = tree.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        for name, value in counters.items():
            counts[name] = counts.get(name, 0) + value
    return tree, counts


def engine_metrics(
    tree: dict[str, list[float]], counts: dict[str, float], n_ops: int
) -> dict[str, float]:
    """Layer metrics every workload derives the same way."""
    out: dict[str, float] = {}
    for span, metric in SELF_TIME_METRICS.items():
        out[metric] = ratio(tree.get(span, [0, 0.0, 0.0])[2] * 1e3, n_ops)
    c = counts.get
    out["core.pool_builds"] = ratio(c("pool.builds", 0), n_ops)
    out["core.ticks"] = ratio(c("trace.ticks", 0), n_ops)
    out["core.pool_reuse_ratio"] = ratio(
        c("pool.reuse_hits", 0), c("pool.reuse_hits", 0) + c("pool.invalidations", 0)
    )
    out["core.members_per_commit"] = ratio(c("run.members", 0), c("run.commits", 0))
    out["core.empty_serve_ratio"] = ratio(
        c("trace.empty_pool_ticks", 0), c("trace.machine_scans", 0)
    )
    out["sim.plan_pairs"] = ratio(c("plan.pairs", 0), n_ops)
    out["sim.plan_cache_hit_ratio"] = ratio(
        c("plan.cache.pair_hit", 0),
        c("plan.cache.pair_hit", 0) + c("plan.cache.pair_miss", 0),
    )
    out["io.decode_calls"] = tree.get("io.decode", [0, 0.0, 0.0])[0]
    return out


def layer_metrics(values: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric ``BENCHMARK.json`` names, with its unit;
    layers a workload does not run report 0."""
    return with_units(values, CONFIG["per_layer"])
