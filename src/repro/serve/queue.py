"""Tenant-fair request queue: round-robin chunks, FIFO within a tenant.

The daemon must not let one tenant's 10,000-point sweep starve another
tenant's 3-point lookup — the "millions of users" story is many small
clients sharing one warm simulator. A lookup the result store can answer
never queues at all: the daemon answers store hits when a job is
submitted, and a job arrives here with those results already recorded.
Only the requests left to simulate are scheduled, the same way XHC
shares a bus: split them into bounded *chunks* (``batch_size`` requests)
and round-robin chunk execution across tenants. Within one tenant,
simulation chunks stay strictly FIFO, so a tenant cannot jump its own
queue either. A tenant leaves the rotation while it has nothing pending
and re-enters at the back when it submits again.

This module is a pure data structure (no asyncio, no I/O) so the policy
is unit-testable; :mod:`repro.serve.daemon` drives it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..exec.request import RunRequest


@dataclass
class Job:
    """One accepted ``submit``: a tenant's ordered list of requests."""

    id: int
    tenant: str
    requests: list[RunRequest]
    chunks: "deque[list[int]]"          # request-index slices, FIFO
    results: list = field(default_factory=list)   # index-aligned, None=todo
    done: int = 0
    new: int = 0
    cached: int = 0
    errors: int = 0
    finished: bool = False

    def __post_init__(self) -> None:
        if not self.results:
            self.results = [None] * len(self.requests)

    def record(self, indices: "list[int]",
               results: list) -> tuple[int, int, int]:
        """Store results at ``indices``; returns their ``(new, cached,
        errors)`` counts, the one classification the daemon's metrics
        and telemetry report (an error result is an error even if it is
        also marked cached, and a ``None`` result is an error)."""
        new = cached = errors = 0
        for idx, result in zip(indices, results):
            self.results[idx] = result
            self.done += 1
            if result is None or getattr(result, "error", None):
                errors += 1
            elif getattr(result, "cached", False):
                cached += 1
            else:
                new += 1
        self.new += new
        self.cached += cached
        self.errors += errors
        return new, cached, errors

    @property
    def total(self) -> int:
        return len(self.requests)

    @property
    def chunks_left(self) -> int:
        return len(self.chunks)


class FairScheduler:
    """Round-robin-across-tenants, FIFO-within-tenant chunk scheduler."""

    def __init__(self, batch_size: int = 8) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size
        self._jobs: dict[str, deque[Job]] = {}    # tenant -> FIFO of jobs
        self._rotation: deque[str] = deque()      # tenants with work
        self._next_job_id = 1

    # -- intake -----------------------------------------------------------

    def submit(self, tenant: str, requests: list[RunRequest],
               answered: "list | None" = None) -> Job:
        """Accept a job. ``answered`` (index-aligned, ``None`` where a
        request still has to run) holds results the daemon already has,
        its store hits; they are recorded on the job at once. The other
        requests are cut into chunks and the job joins the tenant's FIFO.
        A job with nothing left to run is finished here and never
        queues."""
        job = Job(id=self._next_job_id, tenant=tenant,
                  requests=list(requests), chunks=deque())
        self._next_job_id += 1
        if answered is not None:
            hits = [i for i, result in enumerate(answered)
                    if result is not None]
            job.record(hits, [answered[i] for i in hits])
        todo = [i for i, result in enumerate(job.results) if result is None]
        job.chunks.extend(todo[i:i + self.batch_size]
                          for i in range(0, len(todo), self.batch_size))
        if not job.chunks:
            job.finished = True
            return job
        queue = self._jobs.get(tenant)
        if queue is None:
            queue = self._jobs[tenant] = deque()
        had_work = self._has_pending(tenant)
        queue.append(job)
        if not had_work:
            self._rotation.append(tenant)
        return job

    # -- dispatch ---------------------------------------------------------

    def next_chunk(self) -> "tuple[Job, list[int]] | None":
        """The next ``(job, request indices)`` to execute, or ``None``.

        Takes one chunk from the front tenant's *oldest* unfinished job,
        then moves that tenant to the back of the rotation — every tenant
        with pending work gets one chunk per rotation lap.
        """
        while self._rotation:
            tenant = self._rotation.popleft()
            queue = self._jobs.get(tenant)
            job = next((j for j in queue if j.chunks), None) \
                if queue else None
            if job is None:
                continue             # fully dispatched; completion is
                # recorded via record(), which prunes the queue
            chunk = job.chunks.popleft()
            if self._has_pending(tenant):
                self._rotation.append(tenant)
            return job, chunk
        return None

    def record(self, job: Job, indices: list[int],
               results: list) -> tuple[int, int, int]:
        """Store one executed chunk's results on its job; returns the
        chunk's ``(new, cached, errors)`` counts (:meth:`Job.record`)."""
        counts = job.record(indices, results)
        if job.done >= job.total and not job.finished:
            job.finished = True
            self._prune(job.tenant)
        return counts

    # -- introspection ----------------------------------------------------

    def _has_pending(self, tenant: str) -> bool:
        return any(job.chunks for job in self._jobs.get(tenant, ()))

    def _prune(self, tenant: str) -> None:
        queue = self._jobs.get(tenant)
        if queue is None:
            return
        live = [job for job in queue if not job.finished]
        queue.clear()
        queue.extend(live)
        if not queue:
            del self._jobs[tenant]

    @property
    def pending_chunks(self) -> int:
        return sum(job.chunks_left for q in self._jobs.values() for job in q)

    @property
    def pending_requests(self) -> int:
        return sum(job.total - job.done
                   for q in self._jobs.values() for job in q)

    def tenants(self) -> dict[str, dict]:
        """Per-tenant queue depths for ``status``."""
        out = {}
        for tenant, queue in sorted(self._jobs.items()):
            out[tenant] = {
                "jobs": len(queue),
                "chunks": sum(job.chunks_left for job in queue),
                "requests": sum(job.total - job.done for job in queue),
            }
        return out

    def idle(self) -> bool:
        return self.pending_chunks == 0
