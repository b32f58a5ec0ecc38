"""``repro.serve`` — the sweep service on top of :mod:`repro.exec`.

The executor turned every sweep into cached, batched, parallel requests;
this package turns the executor into a *service*: a long-lived asyncio
daemon speaking JSON lines over a local socket, with a tenant-fair
request queue, streamed progress, a sharded size-bounded result store,
served tuned-decision tables, provenance on every answer, and full
job-lifecycle telemetry (:mod:`repro.obs.svc`): job counts and latency
histograms with percentiles behind the ``metrics`` op (JSON + Prometheus
text), Perfetto traces behind the ``trace`` op, and a rotated JSONL
event log, the daemon's only durable job record. See
docs/serving.md for the protocol, fairness and eviction policies, the
provenance schema, and the telemetry surface.

Quick use::

    # terminal 1 — the daemon (warm pool + sharded cache)
    python -m repro serve start --parallel 4

    # terminal 2 — clients
    python -m repro serve submit --tenant alice bcast --sizes 64,65536
    python -m repro serve tables --system epyc-1p --collective bcast \\
        --size 65536
    python -m repro serve manifest   # provenance ledger, offline

or in-process::

    from repro.serve import ServeClient
    with ServeClient() as client:
        done = client.submit([req.payload() for req in requests],
                             tenant="alice")
"""

from .client import ServeClient, ServeError, ServeUnreachable
from .daemon import ServeDaemon
from .manifest import build_manifest, write_manifest
from .protocol import PROTOCOL_VERSION, default_socket_path
from .provenance import config_digest, provenance_for, result_to_json
from .queue import FairScheduler, Job
from .tables import TableServer

__all__ = [
    "FairScheduler",
    "Job",
    "PROTOCOL_VERSION",
    "ServeClient",
    "ServeDaemon",
    "ServeError",
    "ServeUnreachable",
    "TableServer",
    "build_manifest",
    "config_digest",
    "default_socket_path",
    "provenance_for",
    "result_to_json",
    "write_manifest",
]
