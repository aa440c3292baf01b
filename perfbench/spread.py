"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1 2 ...] [--trace 0|1]

For every metric it prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the inter-quartile distance
as a share of the median, next to the bound ``BENCHMARK.json`` fixes.
Runs are sequential; each is one ``perfbench/run.py`` process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from common import BENCH_DIR, ROOT


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench/spread.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=None)
    opts = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = opts.seconds or config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in opts.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", opts.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(opts.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        report = json.loads(proc.stdout.strip().splitlines()[-2])["report"]
        print(f"seed {seed}: failed {result['failed']}/{result['attempted']} "
              f"wall {report['wall_s']:.1f}s ref {report.get('host.ref_ms', 0):.2f}ms "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                         if k in bounds), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        for key in ("ops_per_s_raw", "ops_per_s_adjusted"):
            if key in report:
                values.setdefault(f"report.{key}", []).append(report[key])
    for name, series in values.items():
        if len(series) < 2:
            continue
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        print(f"{name:28s} median {median:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
              f"spread {spread:6.3f}" + (f"  bound {bound}" if bound else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
