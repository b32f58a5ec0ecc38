"""End-to-end service telemetry: a real daemon, concurrent tenants,
the metrics/trace protocol ops, and the rotated event log.

The span-tree assertions are the heart of this module: two tenants
submitting simultaneously must still come out as *separate, coherent*
lifecycle trees (the daemon executes one chunk at a time, and each
tree lives on its own Perfetto track), with per-tenant counters that
only ever go up.
"""

import asyncio
import json
import os
import shutil
import tempfile
import threading

import pytest

from repro.exec import RunRequest, SIM_VERSION
from repro.obs.export import validate_chrome_trace
from repro.obs.metrics import validate_prometheus
from repro.serve import ServeClient, ServeDaemon, ServeError

from conftest import daemon_listening


class DaemonFixture:
    def __init__(self, **kwargs):
        self.dir = tempfile.mkdtemp(prefix="rst")
        self.socket_path = os.path.join(self.dir, "d.sock")
        kwargs.setdefault("cache", os.path.join(self.dir, "cache"))
        kwargs.setdefault("state_dir", self.dir)
        kwargs.setdefault("tables_root", os.path.join(self.dir, "tuned"))
        self.daemon = ServeDaemon(self.socket_path, **kwargs)
        self.thread = threading.Thread(
            target=lambda: asyncio.run(self.daemon.run()), daemon=True)

    def start(self):
        self.thread.start()
        if daemon_listening(self.socket_path):
            return self
        raise RuntimeError("daemon socket never appeared")

    def stop(self):
        if self.thread.is_alive():
            try:
                with ServeClient(self.socket_path, timeout=10) as client:
                    client.shutdown()
            except ServeError:
                pass
            self.thread.join(timeout=10)
        shutil.rmtree(self.dir, ignore_errors=True)


@pytest.fixture
def served():
    fixture = DaemonFixture(workers=0, batch_size=2)
    fixture.start()
    yield fixture
    fixture.stop()


def _payloads(sizes=(64, 4096), component="xhc-tree"):
    return [RunRequest("epyc-1p", "bcast", size, 8, component=component,
                       warmup=1, iters=2).payload() for size in sizes]


# -- the metrics op -----------------------------------------------------------


def test_metrics_op_counts_match_submitted_work(served):
    payloads = _payloads()
    with ServeClient(served.socket_path) as client:
        client.submit(payloads, tenant="alice")
        client.submit(payloads, tenant="bob")    # warm: all cache hits
        reply = client.metrics()

    assert reply["op"] == "metrics"
    m = reply["metrics"]
    assert m["serve.jobs.submitted"]["value"] == 2
    assert m["serve.jobs.completed"]["value"] == 2
    assert m["serve.results.cached"]["value"] == len(payloads)
    # One end-to-end latency observation per job; percentiles present
    # and consistent with the histogram's own range.
    hist = m["serve.job.latency_seconds"]
    assert hist["count"] == 2
    assert hist["min"] <= hist["p50"] <= hist["p95"] <= hist["p99"] \
        <= hist["max"]
    # Queue-wait + per-chunk phases were observed. Only alice's cold
    # job ran a chunk: bob's was answered from the store at submit.
    assert m["serve.job.queue_wait_seconds"]["count"] == 2
    assert m["serve.chunk.execute_seconds"]["count"] == 1
    assert m["serve.exec.cache_lookup_seconds"]["count"] >= 2
    assert m["serve.exec.worker_execute_seconds"]["count"] >= 1
    # Cache gauges mirror the executor's cache.
    assert m["serve.cache.hits"]["value"] == len(payloads)
    assert m["serve.cache.entries"]["value"] == len(payloads)


def test_metrics_op_prometheus_is_valid_and_consistent(served):
    with ServeClient(served.socket_path) as client:
        client.submit(_payloads(), tenant="alice")
        reply = client.metrics()
    text = reply["prometheus"]
    assert validate_prometheus(text) == []
    assert "# TYPE serve_jobs_submitted counter" in text
    assert "serve_jobs_submitted 1" in text
    assert 'serve_job_latency_seconds_bucket{le="+Inf"} 1' in text
    assert "serve_job_latency_seconds_count 1" in text
    assert "serve_tenant_jobs_alice 1" in text


def test_metrics_event_log_reported_and_on_disk(served):
    with ServeClient(served.socket_path) as client:
        client.submit(_payloads(), tenant="alice")
        reply = client.metrics()
    info = reply["event_log"]
    assert info["path"] == os.path.join(served.dir, "events.jsonl")
    assert info["written"] >= 3            # submit + chunk(s) + done
    assert os.path.exists(info["path"])
    with open(info["path"]) as fh:
        kinds = [json.loads(line)["event"] for line in fh]
    assert kinds[0] == "submit"
    assert kinds[-1] == "done"
    assert "chunk" in kinds


# -- the trace op -------------------------------------------------------------


def test_trace_op_returns_valid_perfetto_doc(served):
    with ServeClient(served.socket_path) as client:
        done = client.submit(_payloads(), tenant="alice")
        reply = client.trace(done["job"])
    doc = reply["trace"]
    assert validate_chrome_trace(doc) == []
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    names = {e["name"] for e in xs}
    assert {"job", "queue-wait", "chunk", "publish"} <= names
    assert {"cache-lookup", "worker-execute"} <= names
    assert all(e["tid"] == done["job"] for e in xs)
    assert reply["jobs"] == [done["job"]]


def test_trace_op_unknown_job_is_an_error(served):
    with ServeClient(served.socket_path) as client:
        client.submit(_payloads(), tenant="alice")
        with pytest.raises(ServeError, match="no trace for job"):
            client.trace(999)
        with pytest.raises(ServeError, match="bad job id"):
            client.request({"op": "trace", "job": "not-an-int"})


def test_trace_op_before_any_job_is_an_error(served):
    with ServeClient(served.socket_path) as client:
        with pytest.raises(ServeError, match="no jobs traced yet"):
            client.trace()


# -- concurrency: two tenants at once -----------------------------------------


def test_concurrent_tenants_produce_separate_coherent_span_trees(served):
    """Two tenants submit simultaneously; their chunks interleave on the
    daemon's single worker, but each job's span tree must stay on its
    own track, properly nested, with no spans leaking across jobs."""
    alice_payloads = _payloads(sizes=tuple(64 * (i + 1) for i in range(6)))
    bob_payloads = _payloads(sizes=(96, 97, 98, 99))
    done = {}

    def run(tenant, payloads):
        with ServeClient(served.socket_path, timeout=60) as client:
            done[tenant] = client.submit(payloads, tenant=tenant)

    threads = [threading.Thread(target=run, args=("alice", alice_payloads)),
               threading.Thread(target=run, args=("bob", bob_payloads))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert all(not t.is_alive() for t in threads)
    assert done["alice"]["stats"]["errors"] == 0
    assert done["bob"]["stats"]["errors"] == 0

    with ServeClient(served.socket_path) as client:
        reply = client.trace()
        metrics = client.metrics()["metrics"]

    doc = reply["trace"]
    assert validate_chrome_trace(doc) == []
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    job_ids = {done["alice"]["job"], done["bob"]["job"]}
    assert {e["tid"] for e in xs} == job_ids
    # One pid per tenant, and both jobs landed on different pids.
    pid_by_tid = {}
    for e in xs:
        pid_by_tid.setdefault(e["tid"], set()).add(e["pid"])
    assert all(len(pids) == 1 for pids in pid_by_tid.values())
    assert pid_by_tid[done["alice"]["job"]] != pid_by_tid[done["bob"]["job"]]

    # Per-track coherence: on each job's track, sibling chunk spans must
    # not overlap in time (the daemon runs one chunk at a time), and the
    # root job span must cover every other span on the track.
    for tid in job_ids:
        track = [e for e in xs if e["tid"] == tid]
        root = [e for e in track if e["name"] == "job"]
        assert len(root) == 1
        lo = root[0]["ts"] - 1e-3
        hi = root[0]["ts"] + root[0]["dur"] + 1e-3
        for e in track:
            assert lo <= e["ts"] and e["ts"] + e["dur"] <= hi
        chunks = sorted((e for e in track if e["name"] == "chunk"),
                        key=lambda e: e["ts"])
        for a, b in zip(chunks, chunks[1:]):
            assert a["ts"] + a["dur"] <= b["ts"] + 1e-3

    # Monotone per-tenant counters, consistent with the scheduler.
    for tenant, njobs in (("alice", 1), ("bob", 1)):
        assert metrics[f"serve.tenant.jobs.{tenant}"]["value"] == njobs
        assert metrics[f"serve.tenant.completed.{tenant}"]["value"] == njobs
    assert metrics["serve.job.latency_seconds"]["count"] == 2


def test_tenant_counters_are_monotone_across_submits(served):
    values = []
    with ServeClient(served.socket_path) as client:
        for i in range(3):
            client.submit(_payloads(sizes=(64 + i,)), tenant="alice")
            m = client.metrics()["metrics"]
            values.append((m["serve.tenant.jobs.alice"]["value"],
                           m["serve.tenant.completed.alice"]["value"]))
    assert values == [(1, 1), (2, 2), (3, 3)]


# -- the extended status op ---------------------------------------------------


def test_status_gains_cache_inflight_and_tenant_totals(served):
    with ServeClient(served.socket_path) as client:
        client.submit(_payloads(), tenant="alice")
        client.submit(_payloads(), tenant="bob")
        status = client.status()
    # The PR-5 keys survive untouched (protocol stays v1)...
    assert status["protocol"] == 1
    assert status["queue"]["pending_requests"] == 0
    assert status["store"]["entries"] == 2
    assert status["metrics"]["serve.jobs.completed"]["value"] == 2
    # ...and the new ones sit alongside.
    assert status["queue"]["inflight_chunks"] == 0
    assert status["queue"]["tenant_totals"] == {
        "alice": {"submitted": 1, "completed": 1},
        "bob": {"submitted": 1, "completed": 1},
    }
    cache = status["cache"]
    assert cache["hits"] == 2                # bob's warm re-submit
    assert cache["misses"] == 2              # alice's cold run
    assert cache["entries"] == 2
    assert cache["evictions"] == 0
    assert cache["quarantined"] == 0
    assert cache["hit_rate"] == pytest.approx(0.5)


def test_request_ledger_carries_wall_seconds(served):
    with ServeClient(served.socket_path) as client:
        client.submit(_payloads(), tenant="alice")
    jobs = [r for r in served.daemon.telemetry.events.records()
            if r["event"] == "done"]
    assert len(jobs) == 1
    assert jobs[0]["wall_s"] is not None
    assert jobs[0]["wall_s"] >= 0


def test_job_overtaken_past_the_trace_cap_is_still_recorded():
    # A sweep of eight one-request chunks stays live while another
    # tenant's single-request jobs finish ahead of it, past a trace cap
    # of two. The sweep's finish must still be counted and logged.
    fixture = DaemonFixture(workers=0, batch_size=1)
    fixture.daemon.telemetry.max_traces = 2
    fixture.start()
    try:
        sweep = {}

        def submit_sweep():
            with ServeClient(fixture.socket_path, timeout=60) as client:
                sweep["done"] = client.submit(
                    _payloads(sizes=tuple(64 + i for i in range(8))),
                    tenant="batch")

        thread = threading.Thread(target=submit_sweep)
        thread.start()
        for _ in range(400):
            if fixture.daemon.telemetry.submitted >= 1:
                break
            threading.Event().wait(0.01)
        with ServeClient(fixture.socket_path, timeout=60) as client:
            for i in range(3):
                client.submit(_payloads(sizes=(128 + i,)),
                              tenant="interactive")
            thread.join(timeout=120)
            assert not thread.is_alive()
            assert sweep["done"]["stats"]["errors"] == 0
            status = client.status()
            metrics = client.metrics()["metrics"]
        done = [r for r in fixture.daemon.telemetry.events.records()
                if r["event"] == "done"]
        assert status["queue"]["completed_jobs"] == 4
        assert metrics["serve.jobs.completed"]["value"] == 4
        assert metrics["serve.job.latency_seconds"]["count"] == 4
        assert len(done) == 4
        assert status["queue"]["tenant_totals"] == {
            "batch": {"submitted": 1, "completed": 1},
            "interactive": {"submitted": 3, "completed": 3},
        }
    finally:
        fixture.stop()


def test_bare_executor_has_no_timing_hook():
    from repro.exec import Executor
    with Executor(workers=0) as ex:
        assert ex.on_timing is None
        results = ex.run_many(
            [RunRequest.from_payload(p) for p in _payloads()])
    assert all(r is not None for r in results)


def test_sim_results_identical_with_and_without_telemetry():
    """Telemetry is wall-clock only: simulated latencies must be
    bit-identical whether or not the hook is installed."""
    from repro.exec import Executor

    reqs = [RunRequest.from_payload(p) for p in _payloads()]
    with Executor(workers=0) as plain:
        baseline = [r.latency_s for r in plain.run_many(reqs)]
    calls = []
    with Executor(workers=0) as hooked:
        hooked.on_timing = lambda phase, secs, n: calls.append(phase)
        timed = [r.latency_s for r in hooked.run_many(reqs)]
    assert timed == baseline
    assert "cache-lookup" in calls
    assert "worker-execute" in calls
    assert SIM_VERSION == 3
