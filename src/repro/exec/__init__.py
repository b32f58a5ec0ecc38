"""``repro.exec`` — the shared parallel sweep executor.

Every sweep in the repo (OSU latency curves, paper figures, autotuning
candidate evaluations, sanitized and traced runs) describes its work as
:class:`RunRequest` values and hands them to one scheduler, which answers
from the content-addressed :class:`ResultCache` when it can, deduplicates
and batches what remains by (system, component), and fans batches out
over a warm process pool. See docs/api.md for the public surface and
docs/tuning.md for the cache key discipline (``SIM_VERSION``).

Quick use::

    from repro.exec import Executor, RunRequest, using_executor

    reqs = [RunRequest("epyc-1p", "bcast", size, 32) for size in sizes]
    with Executor(workers=4, cache="results/cache") as ex:
        results = ex.run_many(reqs)

or scope an executor ambiently so existing sweeps pick it up::

    with using_executor(Executor(workers=4)):
        bench.fig8_bcast("epyc-1p")
"""

from .api import run, run_inline, run_many
from .cache import (DEFAULT_CACHE_PATH, SIM_VERSION, CacheStats, ResultCache,
                    cache_key, default_cache_path, store_layout)
from .executor import Executor, get_executor, using_executor
from .request import RUN_KINDS, RunRequest, RunResult
from .store import ShardedStore
from .worker import execute, get_topology, resolve_component, run_batch

__all__ = [
    "CacheStats",
    "DEFAULT_CACHE_PATH",
    "Executor",
    "RUN_KINDS",
    "ResultCache",
    "ShardedStore",
    "RunRequest",
    "RunResult",
    "SIM_VERSION",
    "cache_key",
    "default_cache_path",
    "store_layout",
    "execute",
    "get_executor",
    "get_topology",
    "resolve_component",
    "run",
    "run_batch",
    "run_inline",
    "run_many",
    "using_executor",
]
