"""Service-layer telemetry: job-lifecycle tracing for ``repro.serve``.

PR 2's observer traces one *simulated* run over simulated time; this
module traces the *service* over wall-clock time. Every job the daemon
accepts gets a lifecycle span tree —

    job                                  (submit .. publish, one track)
      cache-lookup                       (store hits answered at submit)
      queue-wait                         (lookup end .. first chunk
                                          dispatch; zero when no chunk)
      chunk                              (one per fairness chunk)
        cache-lookup                     (executor classification)
        worker-execute                   (simulation / pool fan-out)
      publish                            (results handed to the stream)

— recorded as plain :class:`~repro.obs.spans.SpanRecord` objects (track
= job id, Perfetto process = tenant), so a whole service session exports
through :func:`repro.obs.export.spans_to_chrome_trace` as one trace and
passes the same :func:`~repro.obs.export.validate_chrome_trace` check CI
runs on simulated-time traces.

:class:`ServiceTelemetry` is the one place a served job is recorded. It
feeds the daemon's shared :class:`~repro.obs.metrics.MetricsRegistry`
(the job counters, per-tenant job counters and queue-depth gauges,
queue-wait / scheduling / execution / end-to-end latency histograms with
p50/p95/p99, mirrored cache totals) and appends one line per lifecycle
transition to a size-rotated JSONL event log. A job's ``done`` line
carries its ``SIM_VERSION`` and request hashes: it is the daemon's only
durable job record, which ``repro serve manifest``, ``repro serve top``
and the CI smoke job read back.

Telemetry is always on in the daemon and absent everywhere else: a bare
:class:`~repro.exec.Executor` has no timing hooks installed and pays two
``None`` checks per sweep; simulated latencies are wall-clock-free by
construction, so golden snapshots cannot move either way.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time  # lint: disable=RC101  (service wall clock, not simulated time)

from ..exec.cache import SIM_VERSION
from .export import spans_to_chrome_trace
from .metrics import MetricsRegistry
from .spans import SpanRecord

#: The rotated event log's base name inside the daemon state dir.
EVENT_LOG_NAME = "events.jsonl"

#: Rotate the event log when the live file would exceed this.
DEFAULT_LOG_MAX_BYTES = 1 << 20

#: Rotations kept (``events.jsonl.1`` is the newest closed segment).
DEFAULT_LOG_KEEP = 3

#: Job traces retained in memory for the ``trace`` op (only finished
#: ones are evicted to stay under it).
DEFAULT_MAX_TRACES = 256


class EventLog:
    """Append-only, size-rotated JSONL log of service lifecycle events.

    One compact JSON object per line. When an append would push the live
    file past ``max_bytes`` it is rotated (``events.jsonl`` →
    ``events.jsonl.1`` → … → ``events.jsonl.<keep>``, oldest dropped),
    so a long-lived daemon's log is bounded at roughly
    ``(keep + 1) * max_bytes``. A ``None`` path disables the log.

    The live file stays open between appends, with its length tracked in
    memory, so an append is one write and one flush: every line reaches
    the kernel before ``append`` returns. :meth:`close` closes it (the
    daemon does at shutdown); a later append reopens it.
    """

    def __init__(self, path: str | os.PathLike | None, *,
                 max_bytes: int = DEFAULT_LOG_MAX_BYTES,
                 keep: int = DEFAULT_LOG_KEEP) -> None:
        self.path = os.fspath(path) if path is not None else None
        self.max_bytes = max_bytes
        self.keep = keep
        self.written = 0
        self.rotations = 0
        self._lock = threading.Lock()
        self._fh = None       # the live file, opened by the first append
        self._size = 0        # its length in bytes

    def append(self, record: dict) -> None:
        if self.path is None:
            return
        # Compact JSON is ASCII, so its length is its size in bytes.
        line = json.dumps(record, sort_keys=True,
                          separators=(",", ":")) + "\n"
        with self._lock:
            if self._fh is None:
                self._open()
            if self._size and self._size + len(line) > self.max_bytes:
                self._fh.close()
                self._rotate()
                self._open()
            self._fh.write(line)
            self._fh.flush()
            self._size += len(line)
            self.written += 1

    def _open(self) -> None:
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        self._fh = open(self.path, "a")
        self._size = os.fstat(self._fh.fileno()).st_size

    def close(self) -> None:
        """Close the live file; the next append reopens it."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def _rotate(self) -> None:
        for n in range(self.keep, 0, -1):
            src = self.path if n == 1 else f"{self.path}.{n - 1}"
            dst = f"{self.path}.{n}"
            try:
                os.replace(src, dst)
            except FileNotFoundError:
                continue
        self.rotations += 1

    def segments(self) -> list[str]:
        """Existing log files, newest first (live file leads)."""
        if self.path is None:
            return []
        out = [p for p in [self.path]
               + [f"{self.path}.{n}" for n in range(1, self.keep + 1)]
               if os.path.exists(p)]
        return out

    def records(self) -> list[dict]:
        """Every intact record across all segments, oldest first; torn
        or corrupt lines are skipped, never fatal."""
        out: list[dict] = []
        for path in reversed(self.segments()):
            with open(path) as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    if isinstance(record, dict):
                        out.append(record)
        return out


class JobTrace:
    """The lifecycle span tree of one served job (track = job id)."""

    __slots__ = ("job_id", "tenant", "total", "spans", "stack",
                 "submitted_at", "first_chunk_at", "last_chunk_end",
                 "finished_at", "chunks")

    def __init__(self, job_id: int, tenant: str, total: int,
                 submitted_at: float) -> None:
        self.job_id = job_id
        self.tenant = tenant
        self.total = total
        self.spans: list[SpanRecord] = []
        self.stack: list[SpanRecord] = []
        self.submitted_at = submitted_at
        self.first_chunk_at: float | None = None
        self.last_chunk_end: float | None = None
        self.finished_at: float | None = None
        self.chunks = 0

    @property
    def finished(self) -> bool:
        return self.finished_at is not None

    @property
    def wall_s(self) -> float | None:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at


class ServiceTelemetry:
    """Job-lifecycle spans, service metrics, and the rotated event log.

    One instance lives on the daemon and shares its
    :class:`MetricsRegistry`; the daemon calls the ``job_*``/``chunk_*``
    hooks from its event loop and installs :meth:`executor_phase` as the
    executor's timing hook (it fires on the worker thread — span
    mutation is lock-protected). The hook files a phase under the chunk
    in flight, so the store lookup the daemon makes at submit reaches
    :meth:`job_submitted` instead. It is the only place a served job is
    counted: the daemon's ``status`` op and ``bye`` event read
    :attr:`submitted`, :attr:`completed` and :meth:`tenant_totals`.
    """

    def __init__(self, registry: MetricsRegistry | None = None,
                 state_dir: str | os.PathLike | None = None, *,
                 max_traces: int = DEFAULT_MAX_TRACES,
                 clock=None) -> None:
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.clock = clock or time.monotonic
        self.epoch = self.clock()
        self.events = EventLog(
            os.path.join(os.fspath(state_dir), EVENT_LOG_NAME)
            if state_dir is not None else None)
        self.max_traces = max_traces
        self._traces: dict[int, JobTrace] = {}
        self._tenant_pids: dict[str, int] = {}
        self._current: JobTrace | None = None
        self._ids = itertools.count()
        self._lock = threading.Lock()
        m = self.metrics
        self._c_submitted = m.counter(
            "serve.jobs.submitted", "sweep jobs accepted")
        self._c_completed = m.counter(
            "serve.jobs.completed", "sweep jobs fully served")
        self._h_job = m.histogram(
            "serve.job.latency_seconds",
            "end-to-end job latency (submit to publish)", scale=1e-6)
        self._h_queue = m.histogram(
            "serve.job.queue_wait_seconds",
            "submit to first chunk dispatch", scale=1e-6)
        self._h_schedule = m.histogram(
            "serve.chunk.schedule_seconds",
            "chunk wait between readiness and dispatch", scale=1e-6)
        self._h_execute = m.histogram(
            "serve.chunk.execute_seconds",
            "wall time executing one fairness chunk", scale=1e-6)
        self._h_lookup = m.histogram(
            "serve.exec.cache_lookup_seconds",
            "executor cache-classification phase", scale=1e-6)
        self._h_worker = m.histogram(
            "serve.exec.worker_execute_seconds",
            "executor simulation/fan-out phase", scale=1e-6)
        self._c_busy = m.gauge(
            "serve.worker.busy_seconds",
            "cumulative wall seconds spent executing chunks")
        self._g_inflight = m.gauge(
            "serve.inflight.chunks", "chunks executing right now")

    # -- time -------------------------------------------------------------

    def now(self) -> float:
        """Wall seconds since the telemetry epoch (daemon start)."""
        return self.clock() - self.epoch

    def close(self) -> None:
        """Close the event log's live file (the daemon does at exit)."""
        self.events.close()

    # -- span plumbing ----------------------------------------------------

    def _open(self, trace: JobTrace, name: str, cat: str,
              args: dict | None = None,
              start: float | None = None) -> SpanRecord:
        parent = trace.stack[-1].id if trace.stack else None
        rec = SpanRecord(next(self._ids), name, cat, trace.job_id,
                         self.now() if start is None else start, None,
                         parent, args)
        trace.stack.append(rec)
        return rec

    def _close(self, trace: JobTrace, name: str | None = None,
               args: dict | None = None) -> SpanRecord | None:
        if not trace.stack:
            return None
        if name is not None and trace.stack[-1].name != name:
            return None
        rec = trace.stack.pop()
        rec.end = self.now()
        if args:
            rec.args = {**(rec.args or {}), **args}
        trace.spans.append(rec)
        return rec

    def _phase(self, trace: JobTrace | None, phase: str, seconds: float,
               count: int) -> None:
        """Record an executor phase that just took ``seconds``: a span
        under ``trace``'s innermost open span, and its histogram."""
        now = self.now()
        if trace is not None and trace.stack:
            trace.spans.append(SpanRecord(
                next(self._ids), phase, "exec", trace.job_id,
                max(0.0, now - seconds), now, trace.stack[-1].id,
                {"requests": count}))
        if phase == "cache-lookup":
            self._h_lookup.observe(seconds)
        elif phase == "worker-execute":
            self._h_worker.observe(seconds)

    def _tenant_pid(self, tenant: str) -> int:
        pid = self._tenant_pids.get(tenant)
        if pid is None:
            pid = len(self._tenant_pids)
            self._tenant_pids[tenant] = pid
        return pid

    # -- lifecycle hooks (called by the daemon) ---------------------------

    def job_submitted(self, job, lookup_s: float | None = None) -> None:
        """A job was accepted: open its root + queue-wait spans.

        ``lookup_s`` is the wall time of the store lookup that answered
        the job's hits at submit (the daemon's, not the executor hook's,
        which would file it under the chunk in flight). The root then
        starts where the lookup began, with the lookup as its first
        ``cache-lookup`` child."""
        with self._lock:
            start = self.now() - (lookup_s or 0.0)
            trace = JobTrace(job.id, job.tenant, job.total, start)
            self._traces[job.id] = trace
            self._evict()
            self._tenant_pid(job.tenant)
            self._open(trace, "job", "job",
                       {"tenant": job.tenant, "total": job.total}, start)
            if lookup_s is not None:
                self._phase(trace, "cache-lookup", lookup_s, job.total)
            self._open(trace, "queue-wait", "queue")
            self._c_submitted.inc()
            self.metrics.counter(
                f"serve.tenant.jobs.{job.tenant}",
                "jobs submitted by this tenant").inc()
        self.events.append({"event": "submit", "t": round(self.now(), 6),
                            "job": job.id, "tenant": job.tenant,
                            "requests": job.total})

    def chunk_started(self, job, indices: "list[int]") -> None:
        """A chunk of ``job`` was dispatched to the executor."""
        with self._lock:
            trace = self._traces.get(job.id)
            if trace is None:
                return
            now = self.now()
            ready_since = trace.last_chunk_end
            if trace.first_chunk_at is None:
                trace.first_chunk_at = now
                # Queued when the submit-time lookup ended.
                ready_since = self._close(trace, "queue-wait").start
                self._h_queue.observe(now - ready_since)
            self._h_schedule.observe(max(0.0, now - ready_since))
            trace.chunks += 1
            self._open(trace, "chunk", "chunk",
                       {"index": trace.chunks, "requests": len(indices)})
            self._current = trace
            self._g_inflight.set(1)

    def executor_phase(self, phase: str, seconds: float,
                       count: int = 0) -> None:
        """Executor timing hook: a ``cache-lookup`` or ``worker-execute``
        phase of the in-flight chunk finished (runs on the worker
        thread)."""
        with self._lock:
            self._phase(self._current, phase, seconds, count)

    def chunk_finished(self, job, new: int, cached: int, errors: int,
                       wall_s: float) -> None:
        """The in-flight chunk of ``job`` completed; ``new``, ``cached``
        and ``errors`` are the counts ``FairScheduler.record`` returned
        for it."""
        with self._lock:
            trace = self._traces.get(job.id)
            if trace is not None:
                trace.last_chunk_end = self.now()
                self._close(trace, "chunk",
                            {"new": new, "cached": cached,
                             "errors": errors})
            self._current = None
            self._h_execute.observe(wall_s)
            self._c_busy.inc(wall_s)
            self._g_inflight.set(0)
        self.events.append({"event": "chunk", "t": round(self.now(), 6),
                            "job": job.id, "tenant": job.tenant,
                            "requests": new + cached + errors, "new": new,
                            "cached": cached, "errors": errors,
                            "wall_s": round(wall_s, 6)})

    def job_finished(self, job, request_hashes: "list[str]") -> None:
        """Every chunk of ``job`` is done: publish + close the tree,
        count the job, and append its ``done`` line (the job's durable
        record: counts, wall time, ``SIM_VERSION`` and the
        ``request_hashes``, one :meth:`RunRequest.key` per request)."""
        with self._lock:
            trace = self._traces.get(job.id)
            if trace is None or trace.finished:
                return
            if trace.first_chunk_at is None:
                # Answered at submit: no chunk ran, so it waited for none.
                wait = self._close(trace, "queue-wait")
                wait.end = wait.start
                self._h_queue.observe(0.0)
            publish = self._open(trace, "publish", "publish")
            self._close(trace)  # publish (instantaneous on this clock)
            publish.start = (trace.last_chunk_end
                             if trace.last_chunk_end is not None
                             else publish.start)
            trace.finished_at = self.now()
            while trace.stack:            # the root
                self._close(trace)
            self._h_job.observe(trace.wall_s)
            self._c_completed.inc()
            self.metrics.counter(
                f"serve.tenant.completed.{job.tenant}",
                "jobs fully served for this tenant").inc()
            self._evict()
        self.events.append({
            "event": "done", "t": round(self.now(), 6), "job": job.id,
            "tenant": job.tenant, "requests": job.total, "new": job.new,
            "cached": job.cached, "errors": job.errors,
            "wall_s": round(trace.wall_s, 6), "sim_version": SIM_VERSION,
            "request_hashes": request_hashes})

    def _evict(self) -> None:
        """Drop the oldest *finished* traces beyond ``max_traces``. A
        live job keeps its trace however many jobs overtake it, so its
        chunks and its finish are still recorded."""
        excess = len(self._traces) - self.max_traces
        if excess > 0:
            stale = list(itertools.islice(
                (job_id for job_id, trace in self._traces.items()
                 if trace.finished), excess))
            for job_id in stale:
                del self._traces[job_id]

    # -- scraped state (cache, queue) -------------------------------------

    def scrape_cache(self, stats) -> None:
        """Mirror a :class:`~repro.exec.CacheStats` snapshot into gauges
        so the ``metrics`` op and ``serve top`` see store totals."""
        m = self.metrics
        m.gauge("serve.cache.hits", "result-cache hits").set(stats.hits)
        m.gauge("serve.cache.misses", "result-cache misses").set(
            stats.misses)
        m.gauge("serve.cache.entries",
                "entries in the current generation").set(stats.entries)
        m.gauge("serve.cache.evictions",
                "entries LRU-evicted since daemon start").set(
            stats.evictions)
        m.gauge("serve.cache.quarantined",
                "corrupt entries quarantined since daemon start").set(
            stats.quarantined)

    def update_queue(self, tenants: dict) -> None:
        """Refresh per-tenant queue-depth gauges from
        :meth:`FairScheduler.tenants` (tenants that drained read 0)."""
        m = self.metrics
        for tenant in self._tenant_pids:
            depth = tenants.get(tenant, {}).get("requests", 0)
            m.gauge(f"serve.queue.depth.{tenant}",
                    "pending requests for this tenant").set(depth)

    # -- export -----------------------------------------------------------

    @property
    def submitted(self) -> int:
        """Jobs accepted since the daemon started."""
        return self._c_submitted.value

    @property
    def completed(self) -> int:
        """Jobs fully served (and logged) since the daemon started."""
        return self._c_completed.value

    def tenant_totals(self) -> dict[str, dict]:
        """Cumulative per-tenant submitted/completed job counts. Unlike
        :meth:`FairScheduler.tenants`, which forgets a tenant once its
        queue drains, these are monotone over the daemon's lifetime."""
        m = self.metrics
        return {
            tenant: {
                "submitted": m.value(f"serve.tenant.jobs.{tenant}"),
                "completed": m.value(f"serve.tenant.completed.{tenant}"),
            }
            for tenant in sorted(self._tenant_pids)
        }

    def job_ids(self) -> list[int]:
        return list(self._traces)

    def get_trace(self, job_id: int) -> JobTrace | None:
        return self._traces.get(job_id)

    def trace_doc(self, job_id: int | None = None) -> dict | None:
        """Perfetto/Chrome-trace document for one job (or the whole
        retained session). ``None`` when the job is unknown or nothing
        has been traced yet."""
        with self._lock:
            if job_id is not None:
                trace = self._traces.get(job_id)
                traces = [trace] if trace is not None else []
            else:
                traces = list(self._traces.values())
            if not traces:
                return None
            spans: list[SpanRecord] = []
            thread_names: dict[int, tuple[int, str]] = {}
            process_names: dict[int, str] = {}
            for trace in traces:
                pid = self._tenant_pid(trace.tenant)
                process_names[pid] = f"tenant {trace.tenant}"
                thread_names[trace.job_id] = (pid, f"job {trace.job_id}")
                spans.extend(trace.spans)
                spans.extend(rec for rec in trace.stack)  # still open
            now = self.now()
            closed = [rec if rec.end is not None else
                      SpanRecord(rec.id, rec.name, rec.cat, rec.track,
                                 rec.start, now, rec.parent, rec.args)
                      for rec in spans]
            return spans_to_chrome_trace(
                closed, thread_names=thread_names,
                process_names=process_names,
                other_data={
                    "tool": "repro.obs.svc",
                    "clock": "wall (seconds since daemon start)",
                    "jobs": len(traces),
                    "spans": len(closed),
                    "metrics": self.metrics.snapshot(),
                })
