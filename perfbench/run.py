"""The repository benchmark: one command per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` and ``rationale.json`` for why):

* ``paper-batch``    — in-process |T| = 1024 maps, all six heuristics;
* ``service-map``    — keep-alive ``POST /v1/map`` against the daemon;
* ``session-stream`` — live NDJSON sessions against the daemon.

``--trace 0`` prints the end-to-end metrics (``setup_s``, ``ops_per_s``,
``latency_p50_ms``, ``latency_p90_ms``, ``peak_rss_mb``); ``--trace 1``
runs an untraced and a traced pass of the same ops and prints the
per-layer metrics ``BENCHMARK.json`` names instead.  The last line of
standard output is the result object; the line before it is a report
with the path measured (kernel mode, shards, nproc, Python).  Outputs
are checked against the mapping-byte contract off the op clock; a wrong
mapping, an error reply or a transport failure is a failed op.

Every timing is speed-adjusted by the benchmark's reference loop
(``common.ref_loop``): paper-batch times it around each op in-process,
the daemon workloads in a side process during the whole run
(``probe.py``).
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import compileall  # noqa: E402
import importlib  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

from common import (  # noqa: E402
    OUT_DIR,
    SRC,
    default_path_env,
    emit,
    ensure_src_on_path,
    timed_imports,
)

WORKLOADS = {
    "paper-batch": "paper_batch",
    "service-map": "service_map",
    "session-stream": "session_stream",
}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="planned measuring time; sets the fixed op count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tasks", type=int, default=None,
                        help="override |T| (the self-test runs small scenarios)")
    return parser.parse_args(argv)


def _terminate(signum: int, frame: object) -> None:
    # Unwind through the workloads' finally blocks, which stop the daemon.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    opts = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    env = default_path_env()
    ensure_src_on_path()
    OUT_DIR.mkdir(exist_ok=True)
    # Build step: byte-compile the package once per checkout, so the timed
    # imports read bytecode in every run, the first one included.
    compileall.compile_dir(str(SRC), quiet=1)
    module = importlib.import_module(WORKLOADS[opts.workload])

    import_s = timed_imports(module.IMPORTS)
    report, attempted, failed, values = module.run(opts, import_s, env)
    if opts.trace:
        from layers import layer_metrics

        metrics = layer_metrics(values)
    else:
        metrics = values
    report["wall_s"] = time.perf_counter() - _STARTED
    emit(report, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
