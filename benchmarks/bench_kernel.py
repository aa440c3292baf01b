#!/usr/bin/env python
"""Generate ``benchmarks/BENCH_kernel.json``: columnar vs rebuild.

Measures, for each SLRH variant on a 240-task paper-scaled workload, the
rebuild/columnar ratio of a full ``map()`` under the two kernel modes:

* ``columnar`` — flat-array candidate scoring over the delta-maintained
  pool (the default path, ``REPRO_KERNEL=columnar``);
* ``rebuild`` — the paper's loop as written: from-scratch pool
  construction per (tick, machine), every plan computed afresh (the
  differential oracle behind ``REPRO_KERNEL=rebuild``, and the path every
  ledgered run takes).

The two modes are timed by the regression gate's helper,
``check_regression.paired_cpu_ratio``: process CPU time, one untimed
warm-up pair, then ``7 * --repeats`` pairs that alternate which mode runs
first, and the median of the per-pair ratios.  The mappings of both
modes must be byte-identical on the measured scenario — a benchmark of a
wrong answer is worse than no benchmark.  One acceptance criterion is
recorded in the document and enforced with exit status 1 when missed at
the 240-task scale: aggregate mean rebuild/columnar speedup >= 1.5x.

Usage::

    python benchmarks/bench_kernel.py                 # write benchmarks/BENCH_kernel.json
    python benchmarks/bench_kernel.py --out F.json    # write elsewhere
    python benchmarks/bench_kernel.py --n-tasks 64 --repeats 1   # quick look
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import sys
from pathlib import Path

if __package__ in (None, ""):  # script invocation: python benchmarks/bench_...
    _SRC = Path(__file__).resolve().parent.parent / "src"
    if _SRC.exists() and str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

from check_regression import PAIRS_PER_REPEAT, paired_cpu_ratio  # noqa: E402
from repro.core.objective import Weights  # noqa: E402
from repro.core.slrh import SLRH1, SLRH2, SLRH3, SlrhConfig  # noqa: E402
from repro.io.serialization import canonical_mapping_bytes  # noqa: E402
from repro.workload.scenario import paper_scaled_suite  # noqa: E402

SCHEMA = "repro.bench.kernel/2"
DEFAULT_OUT = Path(__file__).resolve().parent / "BENCH_kernel.json"
CRITERION_SPEEDUP = 1.5

ALPHA, BETA = 0.5, 0.2


def measure(n_tasks: int, repeats: int, seed: int) -> dict:
    suite = paper_scaled_suite(n_tasks, n_etc=1, n_dag=1, seed=seed)
    scenario = suite.scenario(0, 0, "A")
    weights = Weights.from_alpha_beta(ALPHA, BETA)
    pairs = PAIRS_PER_REPEAT * repeats

    per_heuristic: dict[str, dict] = {}
    speedups: list[float] = []
    for cls in (SLRH1, SLRH2, SLRH3):
        paired = paired_cpu_ratio(
            lambda: cls(SlrhConfig(weights=weights, kernel="rebuild")).map(scenario),
            lambda: cls(SlrhConfig(weights=weights, kernel="columnar")).map(scenario),
            pairs,
        )
        rebuild, columnar = paired.numerator_last, paired.denominator_last
        if canonical_mapping_bytes(columnar.schedule) != canonical_mapping_bytes(
            rebuild.schedule
        ):
            raise SystemExit(
                f"{cls.name}: columnar and rebuild mappings differ — "
                "refusing to benchmark a broken kernel"
            )
        speedup = round(paired.ratio, 3)
        speedups.append(speedup)
        columnar_seconds = statistics.median(paired.denominator_seconds)
        rebuild_seconds = statistics.median(paired.numerator_seconds)
        perf = columnar.trace.perf
        reuse = perf.get("pool.reuse_hits", 0.0)
        invalidated = perf.get("pool.invalidations", 0.0)
        per_heuristic[cls.name] = {
            "columnar_seconds": round(columnar_seconds, 4),
            "rebuild_seconds": round(rebuild_seconds, 4),
            "speedup": speedup,
            "columnar_plan_pairs": perf.get("plan.pairs", 0.0),
            "rebuild_plan_pairs": rebuild.trace.perf.get("plan.pairs", 0.0),
            "pool_reuse_hits": reuse,
            "pool_invalidations": invalidated,
            "pool_reuse_rate": round(reuse / (reuse + invalidated), 4)
            if reuse + invalidated
            else 0.0,
        }
        print(
            f"{cls.name}: rebuild {rebuild_seconds:.3f}s -> "
            f"columnar {columnar_seconds:.3f}s CPU ({speedup:.2f}x, "
            f"reuse rate {per_heuristic[cls.name]['pool_reuse_rate']:.0%})"
        )

    aggregate = round(sum(speedups) / len(speedups), 3)
    return {
        "schema": SCHEMA,
        "date": datetime.date.today().isoformat(),
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
        "workload": {
            "suite": f"paper_scaled_suite(n_tasks={n_tasks}, n_etc=1, "
            f"n_dag=1, seed={seed})",
            "scenario": "(etc=0, dag=0, case='A')",
            "weights": f"Weights.from_alpha_beta({ALPHA}, {BETA})",
            "timing": f"process CPU time; speedup is the median of {pairs} "
            "alternating rebuild/columnar pair ratios, seconds the per-mode "
            "medians (check_regression.paired_cpu_ratio)",
        },
        "kernel_speedup": {
            "per_heuristic": per_heuristic,
            "aggregate_mean": aggregate,
            "criterion": f"rebuild/columnar >= {CRITERION_SPEEDUP}x aggregate "
            f"at the {n_tasks}-task scale, byte-identical mappings",
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--n-tasks", type=int, default=240)
    parser.add_argument(
        "--repeats", type=int, default=3,
        help=f"timed pairs per ratio, in units of {PAIRS_PER_REPEAT} (default 3)",
    )
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    doc = measure(args.n_tasks, max(1, args.repeats), args.seed)
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n")
    aggregate = doc["kernel_speedup"]["aggregate_mean"]
    print(f"aggregate mean speedup {aggregate:.2f}x -> {args.out}")
    if args.n_tasks >= 240 and aggregate < CRITERION_SPEEDUP:
        print(
            f"FAIL: aggregate {aggregate:.2f}x below the "
            f"{CRITERION_SPEEDUP}x criterion",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
