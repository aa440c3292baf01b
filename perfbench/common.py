"""Shared pieces of the repository benchmark: paths, the default-path
environment, the speed reference, statistics and the result line.

Nothing here imports ``repro``: ``run.py`` times those imports as part
of set-up, so this module must be importable before the clock starts.
"""

from __future__ import annotations

import bisect
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch output of traced runs and daemon logs (git-ignored).
OUT_DIR = ROOT / ".perfbench"
#: Metric names, units and bounds: ``BENCHMARK.json`` is their one source.
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Environment knobs that select a non-default code path or move work
#: off the measured path.  They are stripped from the benchmark's own
#: environment and from every daemon it starts, so a stray variable can
#: never benchmark the rebuild oracle, the object pool or a disabled
#: plan cache.
STRIPPED_ENV = (
    "REPRO_KERNEL",
    "REPRO_PLAN_CACHE",
    "REPRO_SHARDS",
    "REPRO_JOBS",
    "REPRO_SCENARIO_CACHE",
    "REPRO_OBS_LOG",
    "REPRO_SCALE",
)

#: Every run must hold at least this many ops, so that ten samples lie
#: beyond the reported p90.
MIN_OPS = 100


def default_path_env() -> dict[str, str]:
    """Strip :data:`STRIPPED_ENV` from this process and return the
    environment a daemon child gets (the same, plus ``PYTHONPATH``)."""
    for name in STRIPPED_ENV:
        os.environ.pop(name, None)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def ensure_src_on_path() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -- inputs -------------------------------------------------------------------

CASES = ("A", "B", "C")


def paper_scenarios(n_tasks: int, n_pairs: int, seed: int) -> list:
    """*n_pairs* scenarios per grid case from ``paper_scaled_suite``.

    Scenario *i* pairs ETC matrix *i* with DAG *i*, so every pair draws
    its own workload and task graph; the cross product would share a
    few DAGs between all cells, and map cost depends on the DAG most, so
    runs on different seeds would differ far more.
    """
    from repro.workload.scenario import paper_scaled_suite

    suite = paper_scaled_suite(n_tasks, n_etc=n_pairs, n_dag=n_pairs, seed=seed)
    return [suite.scenario(i, i, case) for case in CASES for i in range(n_pairs)]


def exact_draw(rng, items: list, weights: list[float], k: int) -> list:
    """*k* of *items* in seeded order, each as often as its weight's share
    of *k* (largest remainder).  Unlike ``rng.choices`` the mix does not
    vary between seeds, so neither does the cost of a run's ops."""
    total = sum(weights)
    quotas = [k * w / total for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(len(items)), key=lambda i: counts[i] - quotas[i])
    for i in by_remainder[: k - sum(counts)]:
        counts[i] += 1
    drawn = [item for item, count in zip(items, counts) for _ in range(count)]
    rng.shuffle(drawn)
    return drawn


# -- speed reference ----------------------------------------------------------
#
# A fixed pure-Python loop the benchmark owns.  Every value it touches is
# a small int from the interpreter's cache, so it allocates nothing and
# never advances the cyclic collector.  A change that claims a gain must
# not edit it: paper-batch timings are scaled by NOMINAL_REF_S over the
# loop's measured time around each op, so editing the loop rescales every
# paper-batch number.

_REF_OUTER = range(5)
_REF_MIDDLE = range(240)
_REF_INNER = range(250)

#: The loop's median time on the reference host (2 vCPUs, CPython 3.11).
NOMINAL_REF_S = 0.0125


def ref_loop(clock: Callable[[], float] = time.perf_counter) -> float:
    """Seconds one pass of the reference loop takes right now, on *clock*
    (the daemon workloads' probe passes ``time.thread_time``)."""
    x = 0
    started = clock()
    for _ in _REF_OUTER:
        for _ in _REF_MIDDLE:
            for _ in _REF_INNER:
                x = (x + 3) & 127
                x = (x ^ 85) & 127
    return clock() - started


def speed_scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two reference passes
    into reference-host time."""
    return NOMINAL_REF_S / ((before + after) / 2.0)


def timed_imports(names: tuple[str, ...]) -> float:
    """Import *names* (the first import of each in this process) and
    return the speed-adjusted seconds it took."""
    import importlib

    before = ref_loop()
    started = time.perf_counter()
    for name in names:
        importlib.import_module(name)
    elapsed = time.perf_counter() - started
    return elapsed * speed_scale(before, ref_loop())


class SpeedTrace:
    """Reference-loop samples ``(start, end, seconds)`` on the shared
    monotonic clock, and the speed scale of any interval they cover.

    An interval is scaled by the mean of the samples that end within
    :data:`PAD_S` of it, or by the two nearest samples if none does.
    """

    PAD_S = 0.5

    def __init__(self, samples: list[tuple[float, float, float]]) -> None:
        if not samples:
            raise ValueError("no speed samples")
        self.samples = sorted(samples, key=lambda s: s[1])
        self._ends = [s[1] for s in self.samples]

    def scale(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self._ends, start - self.PAD_S)
        hi = bisect.bisect_right(self._ends, end + self.PAD_S)
        if hi - lo < 1:
            lo, hi = max(0, lo - 1), min(len(self.samples), lo + 1)
        window = self.samples[lo:hi]
        return NOMINAL_REF_S / statistics.fmean(s[2] for s in window)

    def median_s(self, start: float, end: float) -> float:
        """Median sample in [start, end] (all samples if none lies there)."""
        inside = [s[2] for s in self.samples if start <= s[1] <= end]
        return statistics.median(inside or [s[2] for s in self.samples])


# -- statistics ---------------------------------------------------------------


def p50_p90(values: list[float]) -> tuple[float, float]:
    """Median and 90th percentile (inclusive interpolation)."""
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[4], deciles[8]


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of *pid* in MB; 0.0 when gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


# -- reporting ----------------------------------------------------------------


def run_context(kernel_mode: str, shards: int) -> dict:
    """What each run report records about the path it measured."""
    return {
        "kernel_mode": kernel_mode,
        "shards": shards,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "stripped_env": list(STRIPPED_ENV),
    }


def with_units(values: dict[str, float], metrics: list[dict]) -> dict[str, tuple[float, str]]:
    """Every metric of *metrics* (a ``BENCHMARK.json`` list) with its
    value from *values* (0.0 where the workload has none) and its unit."""
    unknown = set(values) - {m["name"] for m in metrics}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return {m["name"]: (float(values.get(m["name"], 0.0)), m["unit"]) for m in metrics}


def end_to_end(
    setup_s: float,
    ops_per_s: float,
    latencies_s: list[float],
    peak_rss_mb: float,
) -> dict[str, tuple[float, str]]:
    p50, p90 = p50_p90(latencies_s)
    values = {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s,
        "latency_p50_ms": p50 * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    return with_units(values, CONFIG["end_to_end"])


def emit(
    report: dict,
    attempted: int,
    failed: int,
    metrics: dict[str, tuple[float, str]],
) -> None:
    """Print the human report line, then the result as the last line."""
    print(json.dumps({"report": report}, sort_keys=True, default=str))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )
