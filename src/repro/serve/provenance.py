"""Provenance: every served result names exactly what produced it.

A number without its lineage is a liability at serving scale — a client
cannot tell a warm-cache answer from a fresh simulation, or results from
two simulator generations apart. Every result the daemon streams back
therefore carries a provenance block::

    {
      "request_hash":  <sha256 of the canonical request payload>,
      "sim_version":   <repro.exec.SIM_VERSION at serving time>,
      "config_digest": <sha256 of the canonical component/config spec>,
      "cache":         "hit" | "miss" | "error",
    }

``request_hash`` is exactly :meth:`RunRequest.key` — the same digest the
sharded store files the entry under, so a served answer can be traced to
its on-disk entry byte-for-byte (and the digest the store lookup already
computed, which the request keeps). ``config_digest`` hashes only the
component identity (name + explicit config), letting clients group
results by configuration across sizes and systems.

The durable record of a served job is the ``done`` line its telemetry
appends to the daemon's event log (``results/serve/events.jsonl``, see
:mod:`repro.obs.svc`): the same counts, ``SIM_VERSION`` and the
``request_hash`` of every request, which ``repro serve manifest`` mines
to tie published artifacts back to exact requests (see
:mod:`repro.serve.manifest`).
"""

from __future__ import annotations

import functools
import hashlib
import json

from ..exec.cache import SIM_VERSION
from ..exec.request import RunRequest, RunResult


def config_digest(request: RunRequest) -> str:
    """Digest of the component identity (registry name + explicit
    config), stable across dict orderings and processes."""
    if request.config is None:
        return _registry_digest(request.component)
    return _spec_digest(request.component, request.config)


def _spec_digest(component: str, config: "dict | None") -> str:
    spec = {"component": component, "config": config}
    canon = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


@functools.lru_cache(maxsize=256)
def _registry_digest(component: str) -> str:
    """A registry component's digest, hashed once per name, not per
    served point."""
    return _spec_digest(component, None)


def provenance_for(request: RunRequest,
                   result: "RunResult | None") -> dict:
    """The provenance block attached to one served result."""
    if result is None or result.error is not None:
        cache = "error"
    else:
        cache = "hit" if result.cached else "miss"
    return {
        "request_hash": request.key(),
        "sim_version": SIM_VERSION,
        "config_digest": config_digest(request),
        "cache": cache,
    }


def result_to_json(request: RunRequest,
                   result: "RunResult | None") -> dict:
    """Wire form of one result: the answer plus its provenance."""
    out = {
        "request": request.payload(),
        "latency_s": None if result is None else result.latency_s,
        "cached": bool(result is not None and result.cached),
        "provenance": provenance_for(request, result),
    }
    if result is not None and result.error is not None:
        out["error"] = result.error
    return out
