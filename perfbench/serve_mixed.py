"""serve-mixed: two tenants in closed loops against one daemon child.

``interactive`` submits 8-16 points that the set-up pre-warmed into the
store, so every answer is a hit; ``batch`` submits jobs of small and
medium points that miss the store and are written to it. Each tenant has
its own connection, driven by its own thread of this process. Every
client wait has a timeout: a dead daemon fails the job in flight (and,
for a fixed job list, every job left) instead of hanging the run.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time

import grid
from score import Scorer

HERE = grid.HERE
#: Reference host seconds of work per batch job (1-3 points). Points that
#: cost more alone stay out of the pool, so every batch chunk, which an
#: interactive job may queue behind, costs about the same.
BATCH_JOB_COST_S = 0.05
BATCH_POINT_MAX_S = 0.1
#: Timeout on every read from the daemon, and on its start and exit.
WAIT_S = 60.0


class Daemon:
    """The daemon child process with its own socket, state and store."""

    def __init__(self, tmp: str, trace: bool = False) -> None:
        # Relative to the shared working directory: AF_UNIX paths are
        # limited to about 100 bytes and the checkout may sit deep.
        base = os.path.relpath(tmp)
        self.socket = os.path.join(base, "d.sock")
        self.report_path = os.path.join(base, "daemon-report.json")
        self.cmd = [sys.executable, str(HERE / "daemon.py"),
                    "--socket", self.socket,
                    "--cache", os.path.join(base, "store"),
                    "--state-dir", os.path.join(base, "state"),
                    "--report", self.report_path]
        if trace:
            self.cmd.append("--trace")
        self.proc: subprocess.Popen | None = None
        self.report: dict = {}
        self.prewarm_s = 0.0

    def start(self) -> None:
        from repro.serve import ServeClient, ServeUnreachable

        self.proc = subprocess.Popen(self.cmd)
        deadline = time.monotonic() + WAIT_S
        while True:
            try:
                with ServeClient(self.socket, timeout=2.0) as client:
                    client.ping()
                return
            except ServeUnreachable:
                if self.proc.poll() is not None or \
                        time.monotonic() > deadline:
                    self.stop()
                    raise RuntimeError("serve daemon did not come up")
                time.sleep(0.02)

    def metrics(self) -> dict:
        from repro.serve import ServeClient
        with ServeClient(self.socket, timeout=WAIT_S) as client:
            return client.metrics()["metrics"]

    def stop(self) -> None:
        """Drain and shut down; kill only if the daemon does not exit."""
        from repro.serve import ServeClient, ServeError

        if self.proc is None:
            return
        if self.proc.poll() is None:
            try:
                with ServeClient(self.socket, timeout=WAIT_S) as client:
                    client.shutdown()
            except ServeError as exc:
                print(f"perfbench: daemon shutdown: {exc}", file=sys.stderr)
            try:
                self.proc.wait(timeout=WAIT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None
        if os.path.exists(self.report_path):
            with open(self.report_path, encoding="utf-8") as fh:
                self.report = json.load(fh)


def submit(client, tenant: str, points: list) -> list:
    """One job, streamed to its ``done`` event with every read bounded
    by the client's timeout."""
    from repro.serve import ServeError

    message = {"op": "submit", "tenant": tenant,
               "requests": [grid.make_request(p, "event").payload()
                            for p in points]}
    last: dict = {}
    for event in client.stream(message):
        last = event
    if last.get("event") != "done":
        raise ServeError(last.get("reason", "job ended without results"))
    return last["results"]


def prewarm(daemon: Daemon, scorer: Scorer) -> None:
    """Answer the interactive set once, which also warms every component
    and topology inside the daemon."""
    from repro.serve import ServeClient

    points = grid.interactive_points()
    with ServeClient(daemon.socket, timeout=WAIT_S) as client:
        t0 = time.perf_counter()
        results = submit(client, "prewarm", points)
        daemon.prewarm_s = time.perf_counter() - t0
    for point, res in zip(points, results):
        scorer.require(point, res["latency_s"], exact=True)


def setup(tmp: str, scorer: Scorer, trace: bool = False) -> Daemon:
    daemon = Daemon(tmp, trace)
    daemon.start()
    try:
        prewarm(daemon, scorer)
    except Exception:
        daemon.stop()
        raise
    return daemon


def batch_jobs(ref: grid.Reference, seed: int) -> list[list]:
    """The shuffled batch pool cut into jobs of about equal cost."""
    pool = grid.batch_pool()
    random.Random(f"batch:{seed}").shuffle(pool)
    jobs, job, cost = [], [], 0.0
    for point in pool:
        if ref.cost(point) > BATCH_POINT_MAX_S:
            continue
        job.append(point)
        cost += ref.cost(point)
        if cost >= BATCH_JOB_COST_S:
            jobs.append(job)
            job, cost = [], 0.0
    return jobs


class Tenant(threading.Thread):
    """A closed loop: submit a job, wait for its answer, submit the next,
    until the job list, the deadline or the ``stop`` event ends it."""

    def __init__(self, name, socket, jobs, deadline, scorer, lock,
                 expect_cached: bool, fixed: bool,
                 stop: threading.Event | None, tracer=None) -> None:
        super().__init__(name=name)
        self.tenant, self.socket, self.jobs = name, socket, jobs
        self.deadline, self.scorer, self.lock = deadline, scorer, lock
        self.expect_cached, self.fixed = expect_cached, fixed
        self.stop, self.tracer = stop, tracer
        self.latencies: list[float] = []
        self.started = self.finished = 0.0

    def run(self) -> None:
        self.started = time.perf_counter()
        try:
            self._loop()
        finally:
            self.finished = time.perf_counter()

    @property
    def exhausted(self) -> bool:
        return len(self.latencies) == len(self.jobs)

    def costs(self) -> list[float]:
        """Recorded host seconds of each answered job (batch pool only)."""
        return [sum(self.scorer.ref.cost(p) for p in points)
                for points in self.jobs[:len(self.latencies)]]

    def _loop(self) -> None:
        from repro.serve import ServeClient, ServeError

        with ServeClient(self.socket, timeout=WAIT_S) as client:
            for index, points in enumerate(self.jobs):
                if self.stop is not None and self.stop.is_set():
                    return
                if self.deadline is not None and \
                        time.perf_counter() >= self.deadline:
                    return
                t0 = time.perf_counter()
                try:
                    if self.tracer is None:
                        results = submit(client, self.tenant, points)
                    else:
                        results = self.tracer.span(
                            "serve.submit", submit, client, self.tenant,
                            points)
                except ServeError as exc:
                    left = len(self.jobs) - index if self.fixed else 1
                    with self.lock:
                        self.scorer.note_error(self.tenant, exc)
                        for _ in range(left):
                            self.scorer.op(False)
                    return
                self.latencies.append(time.perf_counter() - t0)
                with self.lock:
                    ok = len(results) == len(points)
                    for point, res in zip(points, results):
                        ok &= self.scorer.check(
                            point, res["latency_s"], exact=True,
                            extra_ok=res["cached"] == self.expect_cached)
                    self.scorer.op(ok)


def session(daemon: Daemon, ref: grid.Reference, seed: int, scorer: Scorer,
            seconds: float | None, batch_limit: int | None = None,
            interactive_limit: int | None = None, tracer=None):
    """Run both tenants until ``seconds`` pass, or through fixed job
    lists; returns the (interactive, batch) tenants.

    A timed session measures interactive jobs queued beside batch work,
    so it ends for both tenants when the batch tenant stops, whether at
    the deadline, on an error or because its job list ran out (which is
    reported: the list is meant to outlast the session)."""
    lock = threading.Lock()
    deadline = None if seconds is None else time.perf_counter() + seconds
    fixed = seconds is None
    batch = batch_jobs(ref, seed)[:batch_limit]
    inter = grid.interactive_jobs(seed, interactive_limit or 100_000)
    batch_done = threading.Event()
    tenants = (
        Tenant("interactive", daemon.socket, inter, deadline, scorer, lock,
               True, fixed, None if fixed else batch_done, tracer),
        Tenant("batch", daemon.socket, batch, deadline, scorer, lock,
               False, fixed, None, tracer),
    )
    for tenant in tenants:
        tenant.start()
    tenants[1].join()
    batch_done.set()
    tenants[0].join()
    if not fixed and tenants[1].exhausted:
        print(f"perfbench: serve-mixed: the batch tenant ran out of jobs "
              f"{deadline - tenants[1].finished:.2f} s before the deadline; "
              f"the session ended there", file=sys.stderr)
    return tenants
