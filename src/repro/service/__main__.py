"""Daemon entry point: ``python -m repro.service``.

Boots the scenario registry, the sharded job router and the HTTP server,
then serves until SIGTERM/SIGINT.  Shutdown is graceful by contract: the
signal flips the router into draining mode (new ``/v1/map`` requests get
503, queued and in-flight jobs run to completion on every shard), the
shard processes and server are torn down, and the process exits 0.

Options::

    --host HOST          bind address            (default 127.0.0.1)
    --port PORT          TCP port; 0 = ephemeral (default 8000)
    --shards N|auto      shard worker processes  (default $REPRO_SHARDS,
                         else 1); each shard is one forked child
    --max-queue N        per-shard admission bound (default 64)
    --max-sessions N     bound on live streaming sessions (default 64)
    --session-idle S     idle seconds before a session is evicted
    --drain-grace S      max seconds to wait for drain on shutdown
    --obs-log PATH       structured NDJSON event log ('-' = stderr;
                         default $REPRO_OBS_LOG when set, else disabled)
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

from repro.obs.log import configure as obs_configure
from repro.obs.log import configure_from_env as obs_configure_from_env
from repro.service.app import make_server
from repro.service.jobs import ShardRouter
from repro.service.registry import ScenarioRegistry
from repro.service.sessions import (
    DEFAULT_IDLE_TIMEOUT,
    DEFAULT_MAX_SESSIONS,
    SessionManager,
)
from repro.util.parallel import resolve_shards


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Long-running SLRH scheduling service.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8000,
                        help="TCP port; 0 picks an ephemeral port")
    parser.add_argument("--shards", default=None,
                        help="shard worker processes: integer or 'auto' "
                        "(default: $REPRO_SHARDS, else 1)")
    parser.add_argument("--max-queue", type=int, default=64,
                        help="bounded per-shard job queue size (429 beyond it)")
    parser.add_argument("--max-sessions", type=int, default=DEFAULT_MAX_SESSIONS,
                        help="bound on live streaming sessions (429 beyond it)")
    parser.add_argument("--session-idle", type=float, default=DEFAULT_IDLE_TIMEOUT,
                        help="idle seconds before a streaming session is evicted")
    parser.add_argument("--drain-grace", type=float, default=30.0,
                        help="seconds to wait for in-flight jobs on shutdown")
    parser.add_argument("--verbose", action="store_true",
                        help="log every HTTP request to stderr")
    parser.add_argument("--obs-log", default=None, metavar="PATH",
                        help="write structured NDJSON events to PATH "
                        "('-' = stderr; default: $REPRO_OBS_LOG if set)")
    args = parser.parse_args(argv)

    if args.obs_log is not None:
        obs_configure(args.obs_log)
    else:
        obs_configure_from_env()

    registry = ScenarioRegistry()
    try:
        manager = ShardRouter(
            registry,
            shards=resolve_shards(args.shards),
            max_queue=args.max_queue,
        )
    except ValueError as exc:
        parser.error(str(exc))
    try:
        sessions = SessionManager(
            registry,
            max_sessions=args.max_sessions,
            idle_timeout=args.session_idle,
            router=manager,
        )
    except ValueError as exc:
        parser.error(str(exc))
    server = make_server(
        args.host, args.port, manager, quiet=not args.verbose, sessions=sessions
    )
    host, port = server.server_address[:2]
    print(
        f"repro.service listening on http://{host}:{port} "
        f"(shards={manager.n_shards}, max-queue={manager.max_queue}, "
        f"max-sessions={sessions.max_sessions})",
        flush=True,
    )

    stop = threading.Event()

    def request_shutdown(signum: int, frame: object) -> None:
        print(f"signal {signal.Signals(signum).name}: draining...", flush=True)
        stop.set()

    signal.signal(signal.SIGTERM, request_shutdown)
    signal.signal(signal.SIGINT, request_shutdown)

    serve_thread = threading.Thread(
        target=server.serve_forever, name="repro-http", daemon=True
    )
    serve_thread.start()
    try:
        stop.wait()
    finally:
        sessions.drain()  # stop session opens/events before the job drain
        drained = manager.drain(timeout=args.drain_grace)
        server.shutdown()
        serve_thread.join(timeout=10)
        server.server_close()
        manager.close(drain_timeout=0)
        completed = int(manager.perf.get("service.completed"))
        print(
            f"repro.service stopped ({'drained' if drained else 'DRAIN TIMED OUT'}; "
            f"{completed} jobs completed)",
            flush=True,
        )
    return 0 if drained else 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess test
    sys.exit(main())
