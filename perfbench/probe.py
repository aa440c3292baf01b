"""Host-speed probe for the daemon workloads.

    python3 perfbench/probe.py

A side process that runs the reference loop (``common.ref_loop``) every
:data:`PERIOD_S` seconds until its standard input closes, then prints
its samples as one JSON list of ``[start, end, seconds]`` on the shared
monotonic clock.  It prints ``ready`` after its first sample.

The loop is timed in the probe's own CPU time: the probe shares the two
vCPUs with the client, the daemon and its shards, and waiting for a CPU
is the program's doing, while a slow CPU is the host's.  At the nominal
12.5 ms per pass it takes 5% of one CPU.
"""

from __future__ import annotations

import json
import select
import sys
import time

from common import ref_loop

PERIOD_S = 0.25


def main() -> int:
    samples = []
    while True:
        started = time.perf_counter()
        cpu_s = ref_loop(time.thread_time)
        samples.append((started, time.perf_counter(), cpu_s))
        if len(samples) == 1:
            print("ready", flush=True)
        readable, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if readable and not sys.stdin.buffer.read1(4096):
            break
    print(json.dumps(samples), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
