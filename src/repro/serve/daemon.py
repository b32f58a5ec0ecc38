"""The sweep-service daemon: a long-lived, asyncio front end over the
shared :class:`~repro.exec.Executor`.

One daemon owns one warm executor (process pool + sharded result cache)
and serves any number of client connections over a local stream socket,
speaking the JSON-lines protocol of :mod:`repro.serve.protocol`. The
daemon's event loop shuffles queues and sockets and answers store hits:
a submitted job's requests are looked up at once
(:meth:`~repro.exec.Executor.lookup`), so a warm query finishes without
waiting for any chunk. Simulation chunks run in a worker thread
(``asyncio.to_thread``) so a 4 MB allreduce never blocks a concurrent
``tables`` lookup.

Scheduling is tenant-fair (:class:`~repro.serve.queue.FairScheduler`):
the requests left to simulate are split into bounded chunks and chunk
execution round-robins across tenants, with per-chunk progress events
streamed back to each submitter. After every chunk the result cache is
flushed (atomic, sharded, size-bounded — see docs/serving.md), so even
a ``kill -9`` of the daemon loses at most the chunk in flight.

Graceful shutdown (the ``shutdown`` op, SIGINT or SIGTERM) stops
accepting new jobs, *drains* everything already accepted, flushes the
store ledger and only then exits — clients with queued work see their
``done`` events, not a dropped connection.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import time  # lint: disable=RC101  (daemon uptime/wall accounting, not sim)

from ..exec.cache import SIM_VERSION, ResultCache, default_cache_path
from ..exec.executor import Executor
from ..exec.request import RunRequest, RunResult
from ..obs.metrics import MetricsRegistry
from ..obs.svc import ServiceTelemetry
from .protocol import (PROTOCOL_VERSION, ProtocolError, default_socket_path,
                       error_event, read_message, write_message)
from .provenance import result_to_json
from .queue import FairScheduler, Job
from .tables import DEFAULT_TABLES_ROOT, TableServer


class ServeDaemon:
    """The long-lived sweep service; ``asyncio.run(daemon.run())``."""

    def __init__(self, socket_path: str | os.PathLike | None = None, *,
                 workers: int | None = 0,
                 cache: "ResultCache | str | os.PathLike | None" = None,
                 tables_root: str | os.PathLike | None = None,
                 state_dir: str | os.PathLike | None = None,
                 batch_size: int = 8,
                 max_entries: int | None = None,
                 max_bytes: int | None = None,
                 log: "callable | None" = None) -> None:
        self.socket_path = os.fspath(socket_path) if socket_path \
            else default_socket_path()
        if state_dir is None:
            state_dir = os.path.dirname(self.socket_path) or "."
        self.state_dir = os.fspath(state_dir)
        if cache is None:
            cache = default_cache_path()
        if not isinstance(cache, ResultCache):
            cache = ResultCache(cache, max_entries=max_entries,
                                max_bytes=max_bytes)
        self.executor = Executor(workers=workers, cache=cache)
        self.scheduler = FairScheduler(batch_size=batch_size)
        self.tables = TableServer(tables_root if tables_root is not None
                                  else DEFAULT_TABLES_ROOT)
        self.metrics = MetricsRegistry()
        # Service telemetry: lifecycle spans, job counts, latency
        # histograms and the rotated event log, the daemon's only job
        # record. A bare Executor has no timing hook; this one does.
        self.telemetry = ServiceTelemetry(self.metrics, self.state_dir)
        self.executor.on_timing = self.telemetry.executor_phase
        self.log = log or (lambda msg: None)
        self._events: dict[int, asyncio.Queue] = {}   # job id -> stream
        self._conns: "set[asyncio.Task]" = set()
        self._accepting = True
        self._busy = False                            # a chunk is running
        self._work = asyncio.Event()
        self._stop = asyncio.Event()
        self._started = time.monotonic()
        self._m_messages = self.metrics.counter(
            "serve.messages", "protocol messages handled")
        self._m_new = self.metrics.counter(
            "serve.simulations.new", "results that ran fresh simulations")
        self._m_cached = self.metrics.counter(
            "serve.results.cached", "results answered from the store")
        self._m_errors = self.metrics.counter(
            "serve.errors", "protocol or execution errors")
        self._m_chunks = self.metrics.counter(
            "serve.chunks", "executed scheduler chunks")
        self._m_table_hits = self.metrics.counter(
            "serve.tables.served", "decision-table lookups served")

    # -- lifecycle --------------------------------------------------------

    async def run(self) -> None:
        """Serve until a ``shutdown`` op or SIGINT/SIGTERM, then drain."""
        os.makedirs(os.path.dirname(self.socket_path) or ".", exist_ok=True)
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self.socket_path)   # stale socket from a dead daemon
        server = await asyncio.start_unix_server(
            self._handle_connection, path=self.socket_path)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            # RuntimeError: signal handlers only install on the main
            # thread (tests run the daemon loop on a worker thread).
            with contextlib.suppress(NotImplementedError, ValueError,
                                     RuntimeError):
                loop.add_signal_handler(
                    sig, lambda: asyncio.ensure_future(self._drain_and_stop()))
        worker = asyncio.create_task(self._worker_loop())
        self.log(f"listening on {self.socket_path} "
                 f"(SIM_VERSION {SIM_VERSION}, "
                 f"protocol {PROTOCOL_VERSION})")
        try:
            async with server:
                await self._stop.wait()
        finally:
            # Let in-flight connection handlers flush their final events
            # (the drain already guaranteed those events were queued);
            # anything still reading after that is cut loose.
            pending = {t for t in self._conns if not t.done()}
            if pending:
                _done, still = await asyncio.wait(pending, timeout=2.0)
                for task in still:
                    task.cancel()
            worker.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await worker
            self.executor.close()         # flush cache + ledger, stop pool
            self.telemetry.close()
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self.socket_path)
            self.log("stopped")

    async def _drain_and_stop(self) -> dict:
        """Refuse new jobs, finish accepted ones, flush, stop serving."""
        self._accepting = False
        self._work.set()                  # wake the worker if it is idle
        # The jobs this drain waits for: accepted, not yet finished.
        drained = self.telemetry.submitted - self.telemetry.completed
        # Drained means: nothing queued, nothing running, and every
        # submitter has been handed its final ``done`` event (the event
        # registry empties as submit handlers finish streaming).
        while not (self.scheduler.idle() and not self._busy
                   and not self._events):
            await asyncio.sleep(0.02)
        self.executor.cache.save()
        self._stop.set()
        return {"event": "bye", "drained_jobs": drained,
                "uptime_s": round(self.uptime_s, 3)}

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self._started

    # -- the execution loop ----------------------------------------------

    async def _worker_loop(self) -> None:
        while True:
            item = self.scheduler.next_chunk()
            if item is None:
                self._work.clear()
                if not self._accepting:
                    # Draining and nothing queued; _drain_and_stop() is
                    # polling for exactly this state.
                    if self._stop.is_set():
                        return
                await self._work.wait()
                continue
            job, indices = item
            requests = [job.requests[i] for i in indices]
            self.telemetry.chunk_started(job, indices)
            self._busy = True
            chunk_t0 = time.monotonic()
            try:
                results = await asyncio.to_thread(
                    self.executor.run_many, requests)
            except Exception:
                # The batch crashed (often one bad request, e.g. an
                # unknown component). Re-run one-by-one so the healthy
                # requests still get answers and only the culprit(s)
                # carry an error.
                results = await self._run_individually(requests, job)
            finally:
                self._busy = False
            new, cached, errors = self.scheduler.record(job, indices,
                                                        results)
            self.executor.cache.save()    # crash loses at most one chunk
            self.telemetry.chunk_finished(job, new, cached, errors,
                                          time.monotonic() - chunk_t0)
            self.telemetry.scrape_cache(self.executor.cache.stats())
            self.telemetry.update_queue(self.scheduler.tenants())
            self._m_chunks.inc()
            self._m_new.inc(new)
            self._m_cached.inc(cached)
            await self._publish_progress(job)

    async def _run_individually(self, requests, job) -> list:
        results = []
        for request in requests:
            try:
                results.extend(await asyncio.to_thread(
                    self.executor.run_many, [request]))
            except Exception as exc:
                self._m_errors.inc()
                self.log(f"request {request.key()[:12]} of job {job.id} "
                         f"failed: {exc!r}")
                results.append(RunResult(
                    request=request, latency_s=None, cached=False,
                    error={"type": exc.__class__.__name__,
                           "message": str(exc)}))
        return results

    async def _publish_progress(self, job: Job) -> None:
        queue = self._events.get(job.id)          # None: submitter left
        if queue is not None:
            await queue.put({
                "event": "progress", "job": job.id, "tenant": job.tenant,
                "done": job.done, "total": job.total,
                "new": job.new, "cached": job.cached, "errors": job.errors,
            })
        if not job.finished:
            return
        # Recorded whether or not anyone is left to tell; the log reuses
        # the request hashes of the answer's provenance blocks.
        done = self._job_done_event(job)
        self.telemetry.job_finished(
            job, [r["provenance"]["request_hash"] for r in done["results"]])
        if queue is not None:
            await queue.put(done)

    def _job_done_event(self, job: Job) -> dict:
        return {
            "event": "done", "op": "submit", "job": job.id,
            "tenant": job.tenant,
            "results": [result_to_json(req, res)
                        for req, res in zip(job.requests, job.results)],
            "stats": {"requests": job.total, "new": job.new,
                      "cached": job.cached, "errors": job.errors},
            "sim_version": SIM_VERSION,
        }

    # -- connection handling ---------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conns.add(task)
        try:
            while True:
                try:
                    message = await read_message(reader)
                except ProtocolError as exc:
                    self._m_errors.inc()
                    await write_message(writer, error_event(str(exc)))
                    continue
                if message is None:
                    return
                self._m_messages.inc()
                op = message.get("op")
                if op == "ping":
                    await write_message(writer, self._ping_event())
                elif op == "status":
                    await write_message(writer, self._status_event())
                elif op == "metrics":
                    await write_message(writer, self._metrics_event())
                elif op == "trace":
                    await write_message(writer, self._trace_event(message))
                elif op == "tables":
                    await write_message(writer, self._tables_event(message))
                elif op == "submit":
                    await self._handle_submit(message, writer)
                elif op == "shutdown":
                    bye = await self._drain_and_stop()
                    await write_message(writer, bye)
                    return
                else:
                    self._m_errors.inc()
                    await write_message(
                        writer, error_event(f"unknown op {op!r}"))
        except (ConnectionResetError, BrokenPipeError):
            pass                          # client went away; fine
        finally:
            if task is not None:
                self._conns.discard(task)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    def _ping_event(self) -> dict:
        return {"event": "done", "op": "ping", "ok": True,
                "protocol": PROTOCOL_VERSION, "sim_version": SIM_VERSION}

    def _status_event(self) -> dict:
        return {
            "event": "done", "op": "status",
            "protocol": PROTOCOL_VERSION,
            "sim_version": SIM_VERSION,
            "accepting": self._accepting,
            "uptime_s": round(self.uptime_s, 3),
            "queue": {
                "pending_chunks": self.scheduler.pending_chunks,
                "pending_requests": self.scheduler.pending_requests,
                "submitted_jobs": self.telemetry.submitted,
                "completed_jobs": self.telemetry.completed,
                "inflight_chunks": 1 if self._busy else 0,
                "tenants": self.scheduler.tenants(),
                "tenant_totals": self.telemetry.tenant_totals(),
            },
            "executor": self.executor.stats(),
            "cache": self.executor.cache.stats().as_dict(),
            "store": self.executor.cache.store_info(),
            "tables": self.tables.stats(),
            "metrics": self.metrics.snapshot(),
        }

    def _metrics_event(self) -> dict:
        telemetry = self.telemetry
        return {
            "event": "done", "op": "metrics",
            "protocol": PROTOCOL_VERSION,
            "sim_version": SIM_VERSION,
            "uptime_s": round(self.uptime_s, 3),
            "metrics": self.metrics.snapshot(),
            "prometheus": self.metrics.to_prometheus(),
            "event_log": {
                "path": telemetry.events.path,
                "written": telemetry.events.written,
                "rotations": telemetry.events.rotations,
                "segments": len(telemetry.events.segments()),
            },
        }

    def _trace_event(self, message: dict) -> dict:
        job_id = message.get("job")
        if job_id is not None:
            try:
                job_id = int(job_id)
            except (TypeError, ValueError):
                self._m_errors.inc()
                return error_event(f"bad job id {job_id!r}")
        doc = self.telemetry.trace_doc(job_id)
        if doc is None:
            self._m_errors.inc()
            return error_event(
                f"no trace for job {job_id!r}" if job_id is not None
                else "no jobs traced yet",
                jobs=self.telemetry.job_ids())
        return {"event": "done", "op": "trace", "job": job_id,
                "jobs": self.telemetry.job_ids(), "trace": doc,
                "sim_version": SIM_VERSION}

    def _tables_event(self, message: dict) -> dict:
        if "system" not in message:
            return {"event": "done", "op": "tables",
                    "tables": self.tables.available()}
        try:
            decision = self.tables.lookup(
                message["system"], message.get("collective", "bcast"),
                int(message.get("size", 0)), message.get("table"))
        except (TypeError, ValueError) as exc:
            self._m_errors.inc()
            return error_event(f"bad tables request: {exc}")
        if decision is None:
            return {"event": "done", "op": "tables", "found": False,
                    "system": message["system"],
                    "collective": message.get("collective", "bcast")}
        self._m_table_hits.inc()
        return {"event": "done", "op": "tables", "found": True,
                "decision": decision, "sim_version": SIM_VERSION}

    async def _handle_submit(self, message: dict,
                             writer: asyncio.StreamWriter) -> None:
        if not self._accepting:
            self._m_errors.inc()
            await write_message(writer, error_event(
                "daemon is draining; not accepting new jobs"))
            return
        tenant = str(message.get("tenant") or "default")
        raw = message.get("requests")
        if not isinstance(raw, list) or not raw:
            self._m_errors.inc()
            await write_message(writer, error_event(
                "submit needs a non-empty 'requests' list"))
            return
        try:
            requests = [RunRequest.from_payload(item) for item in raw]
        except (TypeError, ValueError) as exc:
            self._m_errors.inc()
            await write_message(writer, error_event(
                f"bad request payload: {exc}"))
            return
        # Store hits are answered here, on the event loop; only the
        # misses queue for the worker. Their chunk looks them up again,
        # which counts them, and catches a request another job has
        # simulated since. A memory hit's LRU touch (a system call, which
        # could hand the GIL to a simulating worker) waits for the next
        # save: the running chunk's, or, with no chunk running and so no
        # thread to take the GIL, this one. It writes no entry, because
        # every chunk saved its results when it finished.
        lookup_t0 = time.monotonic()
        answered = self.executor.lookup(requests, count_misses=False)
        if not self._busy:
            self.executor.cache.save()
        lookup_s = time.monotonic() - lookup_t0
        job = self.scheduler.submit(tenant, requests, answered)
        self.telemetry.job_submitted(job, lookup_s)
        events: asyncio.Queue = asyncio.Queue()
        self._events[job.id] = events
        if job.cached:
            self._m_cached.inc(job.cached)
            self.telemetry.scrape_cache(self.executor.cache.stats())
        if job.finished:
            await self._publish_progress(job)
        else:
            self._work.set()
        # Every event already queued goes out in one write: an all-hit
        # job's accepted, progress and done, or a job's last progress
        # and its done.
        burst = [{"event": "accepted", "job": job.id, "tenant": tenant,
                  "total": job.total, "chunks": job.chunks_left}]
        try:
            while True:
                while not events.empty():
                    burst.append(events.get_nowait())
                await write_message(writer, *burst)
                if burst[-1]["event"] == "done":
                    return
                burst = [await events.get()]
        finally:
            self._events.pop(job.id, None)
