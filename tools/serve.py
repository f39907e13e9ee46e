#!/usr/bin/env python
"""Run a resident mapping-service daemon on a Unix socket.

Starts a :class:`~repro.service.daemon.MappingDaemon` (persistent result
store + warm evaluation contexts + worker pool) and serves it over a
Unix-domain socket until interrupted, so sweep scripts in other processes
can submit :class:`~repro.service.daemon.EvalJob`s through
:class:`~repro.service.client.ServiceClient` and share one warm cache.

    PYTHONPATH=src python tools/serve.py --socket /tmp/repro.sock \\
        --store ~/.cache/repro-store --workers 4

Stop with Ctrl-C (or a client's ``shutdown()``); the daemon drains queued
jobs, shuts its worker pool down and leaves the store directory intact for
the next run.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.service import MappingDaemon, ResultStore  # noqa: E402
from repro.service.client import ServiceServer  # noqa: E402


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for --help tests)."""
    parser = argparse.ArgumentParser(
        description="Serve mapping evaluation jobs from a resident daemon."
    )
    parser.add_argument(
        "--socket",
        default="/tmp/repro-service.sock",
        help="Unix socket path to listen on (default: %(default)s).",
    )
    parser.add_argument(
        "--store",
        default=None,
        help=(
            "Directory of the persistent result store; omitted = a "
            "temporary store that dies with the daemon."
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "Worker processes for pricing store misses; omitted = price "
            "inline in the daemon."
        ),
    )
    parser.add_argument(
        "--byte-budget",
        type=int,
        default=None,
        help="Optional store size cap in bytes (oldest entries evicted).",
    )
    parser.add_argument(
        "--max-contexts",
        type=int,
        default=8,
        help="Resident evaluation contexts kept warm (default: %(default)s).",
    )
    return parser


def main(argv=None) -> int:
    """Entry point: build the daemon, bind the socket, serve until stopped."""
    args = build_parser().parse_args(argv)
    store = None
    if args.store is not None:
        store = ResultStore(args.store, byte_budget=args.byte_budget)
    daemon = MappingDaemon(
        store=store, n_workers=args.workers, max_contexts=args.max_contexts
    )
    server = ServiceServer(daemon, args.socket)
    print(f"mapping service listening on {args.socket}")
    if store is not None:
        print(f"store: {store.root} ({store.disk_entries()} entries)")
    try:
        while server._running:
            time.sleep(0.2)
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.stop()
        daemon.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
