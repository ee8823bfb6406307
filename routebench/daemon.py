"""The routing daemon as the service-mix workload runs it.

Started by the benchmark as its own process (with the checkout root and
``src`` on ``PYTHONPATH``), so the load generator and the server do not
share an interpreter lock::

    python3 -m routebench.daemon --socket S --cache-dir D --workers 2 \\
        [--trace-dir T]

It serves one ``RoutingService`` (durable cache, fsync off) until the
in-band ``shutdown`` op drains it.  With ``--trace-dir`` it wraps the
server's canonicalizer and cache, and on exit writes their spans to
``T/child-daemon-<pid>.json`` for the benchmark to merge.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--trace-dir")
    args = parser.parse_args(argv)

    from repro.service import RoutingService, ServiceConfig
    from routebench.spans import Tracer, install_server

    tracer = None
    if args.trace_dir:
        tracer = Tracer(args.trace_dir)
        install_server(tracer)
    service = RoutingService(ServiceConfig(
        socket_path=args.socket,
        workers=args.workers,
        queue_limit=64,
        cache_capacity=4096,
        cache_dir=args.cache_dir,
        fsync_store=False,
    ))
    try:
        return asyncio.run(service.run())
    finally:
        if tracer is not None:
            path = os.path.join(args.trace_dir,
                                f"child-daemon-{os.getpid()}.json")
            with open(path + ".tmp", "w") as fh:
                json.dump(tracer.spans, fh)
            os.replace(path + ".tmp", path)


if __name__ == "__main__":
    sys.exit(main())
