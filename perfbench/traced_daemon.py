"""Launch ``repro.service`` with the benchmark's span wrappers installed.

Usage: ``python traced_daemon.py SPANS_DIR [daemon options...]``

The wrappers go in before the router forks its shard children, so the
children inherit them; each process writes its records to SPANS_DIR
when it stops (the daemon when ``main`` returns, each shard when
``shard_main`` returns).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from tracer import RECORDER, install_engine, install_router, install_shard_child


def main() -> int:
    spans_dir = Path(sys.argv[1])
    install_engine()
    install_shard_child(spans_dir)
    install_router()
    from repro.service.__main__ import main as service_main

    try:
        return service_main(sys.argv[2:])
    finally:
        RECORDER.dump(spans_dir / f"spans-daemon-{os.getpid()}.json")


if __name__ == "__main__":
    sys.exit(main())
