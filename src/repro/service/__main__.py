"""Boot the simulation service: ``python -m repro.service [options]``.

Options::

    --host HOST          bind address            (default 127.0.0.1)
    --port PORT          bind port; 0 = ephemeral (default 8631)
    --store-dir DIR      persist cached results as <key>.pkl files
    --concurrency N      jobs executing at once   (default 2)

Prints one ``listening on http://HOST:PORT`` line (the smoke harness
parses it) and serves until interrupted (SIGINT or SIGTERM).  Either
signal exits cleanly, so the batch runner's idle worker pool is
joined rather than orphaned.
"""

from __future__ import annotations

import argparse
import signal
import sys

from repro.service.api import ServiceServer
from repro.service.store import ResultStore


def main(argv: list[str] | None = None) -> int:
    """Parse options, bind the server, and serve until interrupted."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service", description=__doc__
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8631)
    parser.add_argument("--store-dir", default=None)
    parser.add_argument("--concurrency", type=int, default=2)
    args = parser.parse_args(argv)

    server = ServiceServer(
        host=args.host,
        port=args.port,
        store=ResultStore(directory=args.store_dir),
        concurrency=args.concurrency,
    )
    # SIGTERM's default action skips interpreter exit, which would leave
    # the pool's idle workers blocked on their task queue for good.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    print(f"listening on {server.url}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
