"""Run one ``repro serve`` daemon for serve-mixed (a child process).

    python3 perfbench/daemon.py --socket S --cache C --state-dir D \
        --report R [--trace]

The daemon runs inline (``workers=0``) with every other setting at its
default, as ``repro serve start`` does. With ``--trace`` the layer spans
of :mod:`tracing` are installed before it starts. At exit it writes its
peak RSS and the span aggregate to ``--report``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource

import grid
from tracing import Tracer


def main() -> None:
    parser = argparse.ArgumentParser()
    for flag in ("--socket", "--cache", "--state-dir", "--report"):
        parser.add_argument(flag, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    grid.use_repo_source()
    from repro.exec import get_topology
    from repro.serve import ServeDaemon

    tracer = Tracer()
    if args.trace:
        tracer.install()
    for system in grid.SYSTEMS:
        get_topology(system)
    daemon = ServeDaemon(args.socket, workers=0, cache=args.cache,
                         state_dir=args.state_dir)
    try:
        asyncio.run(daemon.run())
    finally:
        tracer.uninstall()
        report = {"peak_rss_mb":
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "trace": tracer.summary()}
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    main()
