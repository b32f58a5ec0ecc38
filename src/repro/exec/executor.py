"""The shared sweep scheduler: cache, dedupe, batch, fan out.

One :class:`Executor` serves every sweep in the repo. It answers cacheable
requests from the content-addressed :class:`~repro.exec.cache.ResultCache`
first, deduplicates identical requests within a submission, groups the
remainder into batches by :meth:`RunRequest.batch_key` (so a pool worker
amortizes one memoized topology across message sizes), and fans the
batches out over a warm :class:`~concurrent.futures.ProcessPoolExecutor`
that survives across ``run_many`` calls — the autotuner's thousands of
candidate evaluations reuse the same workers.

``workers=0`` executes inline (deterministic single-process debugging and
the default); ``workers=None`` picks a process count from the CPU. The
ambient executor (:func:`get_executor` / :func:`using_executor`) is how
the CLI's ``--parallel``/``--cache`` flags reach sweeps that are many
call-frames away — figure drivers ask for the ambient executor instead of
threading one through every signature.
"""

from __future__ import annotations

import concurrent.futures
import os
from contextlib import contextmanager
from time import perf_counter  # lint: disable=RC101  (telemetry wall time)
from typing import Callable, Iterator, Sequence

from .cache import ResultCache
from .request import RunRequest, RunResult
from .worker import execute, run_batch

#: Batches submitted per worker (per run_many call): small enough to
#: amortize submission, large enough that the pool load-balances the
#: wildly different costs of a 4 B and a 4 MB point.
_BATCHES_PER_WORKER = 4


class Executor:
    """Cached, batched, optionally-parallel execution of run requests.

    ``budget`` caps *new* simulations across the executor's lifetime —
    cached results are always free; requests beyond the budget are
    dropped (their slot in the result list is ``None``).
    ``progress`` is called with a short human-readable string as batches
    complete.
    """

    def __init__(self,
                 workers: int | None = 0,
                 cache: "ResultCache | str | os.PathLike | None" = None,
                 budget: int | None = None,
                 progress: Callable[[str], None] | None = None) -> None:
        if isinstance(cache, (str, os.PathLike)):
            cache = ResultCache(cache)
        self.cache = cache if cache is not None else ResultCache()
        self.workers = workers
        self.budget = budget
        self.progress = progress
        #: Optional telemetry hook ``(phase, wall_seconds, count)`` fired
        #: after the cache-lookup and worker-execute phases of each
        #: ``run_many`` call. ``None`` (the default, and the posture of
        #: every bare Executor) costs two ``is None`` checks per sweep —
        #: the serve daemon installs
        #: :meth:`repro.obs.svc.ServiceTelemetry.executor_phase` here.
        self.on_timing: "Callable[[str, float, int], None] | None" = None
        self.simulations = 0
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None
        self._pool_size = 0

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Shut the worker pool down and persist the cache."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_size = 0
        self.cache.save()

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - safety net
        if self._pool is not None:
            self._pool.shutdown(wait=False)

    # -- accounting -------------------------------------------------------

    @property
    def budget_left(self) -> int | None:
        if self.budget is None:
            return None
        return max(0, self.budget - self.simulations)

    def stats(self) -> dict:
        """Hit/miss/new-simulation accounting for reports and CLIs."""
        return {
            "simulations": self.simulations,
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "cache_entries": len(self.cache),
            "workers": self.workers,
        }

    # -- scheduling -------------------------------------------------------

    def _effective_workers(self, njobs: int) -> int:
        if self.workers is not None:
            return max(0, min(self.workers, njobs))
        return min(njobs, max(1, min(8, (os.cpu_count() or 2) - 1)))

    def _get_pool(self, nworkers: int) -> concurrent.futures.ProcessPoolExecutor:
        # Warm-worker reuse: grow the pool when asked for more, keep it
        # otherwise — re-forking per sweep throws the topology memo away.
        if self._pool is not None and self._pool_size < nworkers:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(nworkers)
            self._pool_size = nworkers
        return self._pool

    @staticmethod
    def _make_batches(todo: list[tuple[int, RunRequest]],
                      nworkers: int) -> list[list[tuple[int, RunRequest]]]:
        """Group by batch_key, then split into cost-balanced batches.

        Same-``batch_key`` requests are kept together as far as the
        target batch count allows (one topology memo per worker covers
        them either way); within and across groups, items go to the
        least-loaded batch in descending cost order (greedy LPT), so a
        4 MB point never queues behind three others while workers idle.
        """
        by_key: dict[tuple, list[tuple[int, RunRequest]]] = {}
        for item in todo:
            by_key.setdefault(item[1].batch_key(), []).append(item)
        nbatches = max(1, min(len(todo), nworkers * _BATCHES_PER_WORKER))
        if nbatches == 1:
            return [[item for group in by_key.values() for item in group]]
        batches: list[list[tuple[int, RunRequest]]] = \
            [[] for _ in range(nbatches)]
        loads = [0.0] * nbatches
        for group in by_key.values():
            for item in sorted(group, key=lambda it: it[1].estimated_cost(),
                               reverse=True):
                j = min(range(nbatches), key=loads.__getitem__)
                batches[j].append(item)
                loads[j] += item[1].estimated_cost()
        return [b for b in batches if b]

    # -- the run API ------------------------------------------------------

    def run(self, request: RunRequest) -> RunResult:
        """Execute (or answer from cache) a single request."""
        return self.run_many([request])[0]

    def lookup(self, requests: Sequence[RunRequest], *,
               count_misses: bool = True) -> "list[RunResult | None]":
        """The store pass every sweep starts with: in request order, a
        ``cached=True`` result for each cacheable request the store
        holds and ``None`` for every other one (a miss, or an
        instrumented request, which is never cached).

        :meth:`run_many` simulates the ``None`` slots. The serve daemon
        calls this pass when a job is submitted, answers the hits at once
        and queues only the rest; it passes ``count_misses=False``
        because the chunk that runs a queued request looks it up again
        and counts it then, so each request counts once in the cache's
        hits and misses."""
        get = self.cache.get
        results: list[RunResult | None] = []
        for req in requests:
            latency = (get(digest=req.key(), count_miss=count_misses)
                       if req.cacheable else None)
            results.append(None if latency is None else RunResult(
                request=req, latency_s=latency, cached=True))
        return results

    def run_many(self, requests: Sequence[RunRequest]) -> \
            "list[RunResult | None]":
        """Execute a sweep; results come back in request order.

        Cacheable requests are answered from the store when possible
        (:meth:`lookup`) and recorded into it when not. Identical
        requests within one call are simulated once; a duplicate shares
        its first copy's latency and error, and counts as cached only if
        that run did not fail. Slots dropped by the budget are ``None``.
        """
        requests = list(requests)
        todo: list[tuple[int, RunRequest]] = []
        seen: dict[str, int] = {}        # payload key -> first todo index
        duplicates: dict[int, list[int]] = {}
        t_lookup = perf_counter() if self.on_timing is not None else 0.0
        results = self.lookup(requests)
        for i, req in enumerate(requests):
            if results[i] is not None:
                continue
            if req.cacheable:
                key = req.key()
                if key in seen:
                    duplicates.setdefault(seen[key], []).append(i)
                    continue
                seen[key] = i
            todo.append((i, req))
        if self.on_timing is not None:
            self.on_timing("cache-lookup", perf_counter() - t_lookup,
                           len(requests))
        if self.budget_left is not None:
            todo = todo[:self.budget_left]
        if todo:
            t_exec = perf_counter() if self.on_timing is not None else 0.0
            self._execute_todo(todo, results)
            if self.on_timing is not None:
                self.on_timing("worker-execute", perf_counter() - t_exec,
                               len(todo))
        for first, extra_idx in duplicates.items():
            primary = results[first]
            if primary is None:
                continue
            for i in extra_idx:
                results[i] = RunResult(request=requests[i],
                                       latency_s=primary.latency_s,
                                       cached=primary.error is None,
                                       error=primary.error)
        return results

    def _execute_todo(self, todo: list[tuple[int, RunRequest]],
                      results: "list[RunResult | None]") -> None:
        nworkers = self._effective_workers(len(todo))
        total = len(todo)
        done = 0
        if nworkers <= 1:
            for i, req in todo:
                self._record(i, req, execute(req), results)
                done += 1
                self._report(done, total)
            return
        pool = self._get_pool(nworkers)
        batches = self._make_batches(todo, nworkers)
        futures = {
            pool.submit(run_batch, [req for _, req in batch]): batch
            for batch in batches
        }
        for future in concurrent.futures.as_completed(futures):
            batch = futures[future]
            for (i, req), result in zip(batch, future.result()):
                self._record(i, req, result, results)
            done += len(batch)
            self._report(done, total)

    def _record(self, index: int, request: RunRequest, result: RunResult,
                results: "list[RunResult | None]") -> None:
        # ``request``, not ``result.request``: a pool worker returns an
        # unpickled copy, which has lost the key memo.
        self.simulations += 1
        if request.cacheable and result.latency_s is not None:
            self.cache.put(request.payload(), result.latency_s,
                           digest=request.key())
        results[index] = result

    def _report(self, done: int, total: int) -> None:
        if self.progress is not None:
            self.progress(f"simulated {done}/{total}")


# -- the ambient executor ----------------------------------------------------

_AMBIENT: Executor | None = None


def get_executor() -> Executor:
    """The executor sweeps use when not handed one explicitly.

    Defaults to a fresh inline, uncached executor — exactly the serial
    behavior the repo always had — unless a :func:`using_executor` scope
    (e.g. the CLI's ``--parallel``/``--cache`` handling) is active.
    """
    return _AMBIENT if _AMBIENT is not None else Executor(workers=0)


@contextmanager
def using_executor(executor: Executor) -> Iterator[Executor]:
    """Scope ``executor`` as the ambient one for every sweep inside."""
    global _AMBIENT
    previous = _AMBIENT
    _AMBIENT = executor
    try:
        yield executor
    finally:
        _AMBIENT = previous
