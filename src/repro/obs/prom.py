"""Prometheus text exposition rendered from a ``repro.perf/2`` document.

The daemon's ``/metrics`` serves the perf JSON by default (the scripted
consumers — loadgen, the CI smoke jobs — parse it); a Prometheus scraper
negotiates the standard text format with ``Accept: text/plain`` or
``?format=prom`` and gets this module's rendering of the same snapshot:

* **counters** → ``counter`` metrics, suffixed ``_total`` per convention
  (``plan.pairs`` → ``repro_plan_pairs_total``);
* **gauges** → ``gauge`` metrics;
* **histograms** → ``summary`` metrics: one ``{quantile="..."}`` sample
  per exact nearest-rank percentile plus ``_sum`` and ``_count``.

Names are sanitised to the Prometheus grammar
(``[a-zA-Z_:][a-zA-Z0-9_:]*``) and prefixed ``repro_``; non-finite values
render as ``NaN``/``+Inf``/``-Inf``, which the exposition format admits.
The output is deterministic (sorted by metric name) so it can be pinned
by a golden-file test.
"""

from __future__ import annotations

import math
import re
from typing import Mapping

_INVALID = re.compile(r"[^a-zA-Z0-9_:]")

#: Prefix applied to every rendered metric name.
NAMESPACE = "repro"


def sanitize_metric_name(name: str, namespace: str = NAMESPACE) -> str:
    """*name* mapped onto the Prometheus metric-name grammar.

    Dots (the perf registry's namespace separator) and any other invalid
    characters become underscores; a ``namespace_`` prefix is added unless
    already present; a leading digit after that gets an underscore guard.
    """
    cleaned = _INVALID.sub("_", name)
    if namespace and not cleaned.startswith(namespace + "_"):
        cleaned = f"{namespace}_{cleaned}"
    if cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _fmt(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _quantile_of(key: str) -> str | None:
    """``p50`` → ``0.5``, ``p99`` → ``0.99`` (None for non-percentile keys)."""
    if not key.startswith("p"):
        return None
    try:
        q = float(key[1:]) / 100.0
    except ValueError:
        return None
    return f"{q:g}"


def render_prometheus(doc: Mapping) -> str:
    """Render a :func:`repro.perf.perf_document` as exposition text.

    Accepts the full ``repro.perf/2`` document (``counters`` / ``gauges``
    / ``histograms`` sections, each optional).
    """
    out: list[str] = []

    def emit(name: str, kind: str, help_text: str, samples: list[tuple[str, float]]) -> None:
        out.append(f"# HELP {name} {help_text}")
        out.append(f"# TYPE {name} {kind}")
        for suffix, value in samples:
            out.append(f"{name}{suffix} {_fmt(value)}")

    for raw, value in sorted(doc.get("counters", {}).items()):
        name = sanitize_metric_name(raw)
        if not name.endswith("_total"):
            name += "_total"
        emit(name, "counter", f"repro.perf counter {raw}", [("", value)])
    for raw, value in sorted(doc.get("gauges", {}).items()):
        emit(sanitize_metric_name(raw), "gauge", f"repro.perf gauge {raw}", [("", value)])
    for raw, summary in sorted(doc.get("histograms", {}).items()):
        name = sanitize_metric_name(raw)
        samples: list[tuple[str, float]] = []
        for key in sorted(summary, key=lambda k: (k != "count", k)):
            quantile = _quantile_of(key)
            if quantile is not None:
                samples.append((f'{{quantile="{quantile}"}}', summary[key]))
        samples.append(("_sum", summary.get("sum", 0.0)))
        samples.append(("_count", summary.get("count", 0)))
        emit(name, "summary", f"repro.perf histogram {raw}", samples)
    return "\n".join(out) + "\n" if out else ""
