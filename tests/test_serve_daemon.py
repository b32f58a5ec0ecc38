"""The sweep daemon end-to-end: protocol, caching, fairness, drain.

Each fixture runs a real :class:`ServeDaemon` event loop on a background
thread, talking over an AF_UNIX socket in a *short* tmp dir (the 108-char
sun_path limit rules out pytest's deep tmp_path).
"""

import asyncio
import json
import math
import os
import shutil
import socket
import tempfile
import threading

import pytest

from repro.exec import Executor, RunRequest, SIM_VERSION
from repro.serve import (PROTOCOL_VERSION, ServeClient, ServeDaemon,
                         ServeError, ServeUnreachable, build_manifest)
from repro.tune.table import DecisionTable
from repro.xhc import XhcConfig

from conftest import daemon_listening


class DaemonFixture:
    def __init__(self, **kwargs):
        self.dir = tempfile.mkdtemp(prefix="rsv")
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


# -- protocol basics ---------------------------------------------------------


def test_ping_reports_versions(served):
    with ServeClient(served.socket_path) as client:
        pong = client.ping()
    assert pong["ok"] is True
    assert pong["protocol"] == PROTOCOL_VERSION
    assert pong["sim_version"] == SIM_VERSION


def test_unknown_op_is_an_error_not_a_hangup(served):
    with ServeClient(served.socket_path) as client:
        with pytest.raises(ServeError, match="op"):
            client.request({"op": "frobnicate"})
        # The connection survives the error: the next op still answers.
        assert client.ping()["ok"] is True


def test_submit_requires_requests(served):
    with ServeClient(served.socket_path) as client:
        with pytest.raises(ServeError):
            client.request({"op": "submit", "tenant": "a", "requests": []})


def test_malformed_request_payload_is_rejected(served):
    with ServeClient(served.socket_path) as client:
        with pytest.raises(ServeError, match="unknown request field"):
            client.submit([{"system": "epyc-1p", "bogus_field": 1}])


def test_unreachable_daemon_raises_exit_code_2(tmp_path):
    client = ServeClient(str(tmp_path / "nowhere.sock"), timeout=0.5)
    with pytest.raises(ServeUnreachable) as excinfo:
        client.ping()
    assert excinfo.value.exit_code == 2
    assert "serve start" in str(excinfo.value)


# -- serving results ---------------------------------------------------------


def test_served_results_match_direct_executor_exactly(served):
    payloads = _payloads()
    events = []
    with ServeClient(served.socket_path) as client:
        done = client.submit(payloads, tenant="alice",
                             on_event=events.append)

    assert [e["event"] for e in events] == ["accepted"] + \
        ["progress"] * (len(events) - 1)
    assert done["stats"] == {"requests": 2, "new": 2, "cached": 0,
                             "errors": 0}
    with Executor(workers=0) as ex:
        direct = ex.run_many([RunRequest.from_payload(p)
                              for p in payloads])
    # Byte-identical answers: same latencies, same hashes as the
    # requests' own content addresses.
    for res, ref, payload in zip(done["results"], direct, payloads):
        assert res["latency_s"] == ref.latency_s
        assert res["provenance"]["request_hash"] \
            == RunRequest.from_payload(payload).key()
        assert res["provenance"]["sim_version"] == SIM_VERSION
        assert res["provenance"]["cache"] == "miss"


def test_warm_resubmit_serves_entirely_from_cache(served):
    payloads = _payloads()
    with ServeClient(served.socket_path) as client:
        cold = client.submit(payloads, tenant="alice")
    with ServeClient(served.socket_path) as client:
        warm = client.submit(payloads, tenant="bob")
    assert warm["stats"]["new"] == 0
    assert warm["stats"]["cached"] == len(payloads)
    assert [r["latency_s"] for r in warm["results"]] \
        == [r["latency_s"] for r in cold["results"]]
    assert all(r["provenance"]["cache"] == "hit" for r in warm["results"])


def test_cache_survives_daemon_restart():
    fixture = DaemonFixture(workers=0)
    fixture.start()
    payloads = _payloads()
    try:
        with ServeClient(fixture.socket_path) as client:
            client.submit(payloads)
        with ServeClient(fixture.socket_path) as client:
            client.shutdown()
        fixture.thread.join(timeout=10)

        # Same state dir, fresh daemon: everything is a hit.
        reborn = ServeDaemon(fixture.socket_path, workers=0,
                             cache=os.path.join(fixture.dir, "cache"),
                             state_dir=fixture.dir)
        thread = threading.Thread(
            target=lambda: asyncio.run(reborn.run()), daemon=True)
        thread.start()
        daemon_listening(fixture.socket_path)
        with ServeClient(fixture.socket_path) as client:
            warm = client.submit(payloads)
            client.shutdown()
        thread.join(timeout=10)
        assert warm["stats"]["new"] == 0
        assert warm["stats"]["cached"] == len(payloads)
    finally:
        fixture.stop()


def test_component_error_is_per_request_not_fatal(served):
    good = _payloads(sizes=(64,))
    bad = _payloads(sizes=(64,), component="no-such-component")
    with ServeClient(served.socket_path) as client:
        done = client.submit(bad + good, tenant="a")
    assert done["stats"]["errors"] == 1
    by_component = {r["request"]["component"]: r for r in done["results"]}
    assert by_component["no-such-component"]["latency_s"] is None
    assert by_component["no-such-component"]["provenance"]["cache"] \
        == "error"
    assert "error" in by_component["no-such-component"]
    assert by_component["xhc-tree"]["latency_s"] is not None
    # A failed request is no fresh simulation in the daemon's metrics
    # either: they count what the job's stats count.
    metrics = served.daemon.metrics
    assert metrics.value("serve.simulations.new") == done["stats"]["new"]
    assert metrics.value("serve.results.cached") \
        == done["stats"]["cached"]


def test_request_the_smsc_mechanism_cannot_serve_fails_alone(served):
    from repro.shmem.smsc import SmscConfig

    good = _payloads(sizes=(64,))
    refused = RunRequest("epyc-1p", "bcast", 65536, 8, component="xhc-tree",
                         warmup=1, iters=2,
                         smsc=SmscConfig(mechanism=None)).payload()
    with ServeClient(served.socket_path) as client:
        done = client.submit([refused] + good, tenant="a")
    assert done["stats"]["errors"] == 1
    by_size = {r["request"]["size"]: r for r in done["results"]}
    assert by_size[65536]["latency_s"] is None
    assert "ConfigError" in str(by_size[65536]["error"])
    assert "xhc-tree bcast of 65536 bytes" in str(by_size[65536]["error"])
    assert by_size[64]["latency_s"] is not None


def test_request_the_array_engine_cannot_lower_fails_alone(served):
    from repro.options import RunOptions
    from repro.shmem.smsc import SmscConfig

    good = _payloads(sizes=(64,))
    refused = RunRequest(
        "epyc-1p", "bcast", 65536, 8, component="xhc-tree", warmup=1,
        iters=2, smsc=SmscConfig(mechanism="cma"),
        options=RunOptions(data_movement=False, engine="array")).payload()
    with ServeClient(served.socket_path) as client:
        done = client.submit([refused] + good, tenant="a")
    assert done["stats"]["errors"] == 1
    by_size = {r["request"]["size"]: r for r in done["results"]}
    assert by_size[65536]["latency_s"] is None
    assert "xhc-tree bcast of 65536 bytes on the array engine" \
        in str(by_size[65536]["error"])
    assert by_size[64]["latency_s"] is not None


# -- fairness ----------------------------------------------------------------


def test_two_concurrent_tenants_both_make_progress(served):
    # A whale (10 requests) and a minnow (2) submit together; the
    # minnow must finish long before the whale's tail, because chunk
    # dispatch round-robins across tenants (batch_size=2 here).
    whale_payloads = _payloads(sizes=tuple(64 * (i + 1) for i in range(10)))
    minnow_payloads = _payloads(sizes=(96, 97))
    order = []
    results = {}

    def run(tenant, payloads):
        with ServeClient(served.socket_path, timeout=60) as client:
            results[tenant] = client.submit(payloads, tenant=tenant)
        order.append(tenant)

    whale = threading.Thread(target=run, args=("whale", whale_payloads))
    whale.start()
    # Make sure the whale's job is queued first.
    for _ in range(200):
        if served.daemon.telemetry.submitted >= 1:
            break
        threading.Event().wait(0.01)
    minnow = threading.Thread(target=run, args=("minnow", minnow_payloads))
    minnow.start()
    minnow.join(timeout=120)
    whale.join(timeout=120)
    assert not minnow.is_alive() and not whale.is_alive()

    assert results["minnow"]["stats"]["errors"] == 0
    assert results["whale"]["stats"]["errors"] == 0
    assert results["whale"]["stats"]["requests"] == 10
    # If the minnow had been starved behind the whale, it would have
    # finished last every time; interleaving lets it finish first.
    if order[0] == "whale":
        # Tolerate the race where the whale drained before the minnow
        # was even accepted — but the minnow must still have been served.
        assert results["minnow"]["stats"]["requests"] == 2


def test_status_reports_queue_store_and_metrics(served):
    with ServeClient(served.socket_path) as client:
        client.submit(_payloads())
        status = client.status()
    assert status["protocol"] == PROTOCOL_VERSION
    assert status["sim_version"] == SIM_VERSION
    assert status["accepting"] is True
    assert status["store"]["entries"] == 2
    assert status["executor"]["simulations"] == 2
    assert status["metrics"]["serve.jobs.completed"]["value"] == 1
    assert status["queue"]["pending_requests"] == 0
    # Telemetry-era additions (protocol still v1; old keys untouched).
    assert status["queue"]["inflight_chunks"] == 0
    assert status["queue"]["tenant_totals"]["default"] \
        == {"submitted": 1, "completed": 1}
    assert status["cache"]["misses"] == 2
    assert status["cache"]["evictions"] == 0


# -- served tables -----------------------------------------------------------


def test_tables_endpoint_serves_and_lists(served):
    tables_dir = os.path.join(served.dir, "tuned")
    table = DecisionTable()
    table.record("epyc-1p", "bcast", 65536, XhcConfig(hierarchy="numa"),
                 2e-6, baseline_s=4e-6, nranks=16)
    os.makedirs(tables_dir, exist_ok=True)
    table.save(os.path.join(tables_dir, "decision_table.json"))

    with ServeClient(served.socket_path) as client:
        found = client.tables("epyc-1p", "bcast", 65536)
        missing = client.tables("arm-n1", "bcast", 64)
        listing = client.tables()
    assert found["found"] is True
    assert found["decision"]["config"]["hierarchy"] == "numa"
    assert found["decision"]["etag"]
    assert missing["found"] is False
    assert len(listing["tables"]) == 1
    assert listing["tables"][0]["entries"] == 1


# -- graceful shutdown -------------------------------------------------------


def test_shutdown_drains_inflight_jobs():
    fixture = DaemonFixture(workers=0, batch_size=1)
    fixture.start()
    payloads = _payloads(sizes=tuple(64 + i for i in range(6)))
    done_holder = {}

    def submit():
        with ServeClient(fixture.socket_path, timeout=60) as client:
            done_holder["done"] = client.submit(payloads, tenant="a")

    try:
        submitter = threading.Thread(target=submit)
        submitter.start()
        for _ in range(400):
            if fixture.daemon.telemetry.submitted >= 1:
                break
            threading.Event().wait(0.01)
        # Shutdown while the job is (likely) still running chunks: the
        # submitter must still receive its full done event.
        with ServeClient(fixture.socket_path, timeout=60) as client:
            bye = client.shutdown()
        submitter.join(timeout=120)
        fixture.thread.join(timeout=30)
        assert not submitter.is_alive()
        assert bye["event"] == "bye"
        done = done_holder["done"]
        assert done["stats"]["requests"] == len(payloads)
        assert done["stats"]["errors"] == 0
        # The socket is gone: the daemon is actually down.
        assert not os.path.exists(fixture.socket_path)
    finally:
        fixture.stop()


def test_drain_counts_only_unfinished_jobs():
    """``drained_jobs`` is the jobs the drain waited for, not every job
    the daemon ever finished."""
    fixture = DaemonFixture(workers=0)
    fixture.start()
    try:
        with ServeClient(fixture.socket_path) as client:
            for size in (64, 128, 256):
                done = client.submit(_payloads(sizes=(size,)), tenant="a")
                assert done["event"] == "done"
            assert client.status()["queue"]["completed_jobs"] == 3
            bye = client.shutdown()
        fixture.thread.join(timeout=10)
        assert bye["event"] == "bye"
        assert bye["drained_jobs"] == 0
    finally:
        fixture.stop()


def test_submit_after_drain_is_refused():
    fixture = DaemonFixture(workers=0)
    fixture.start()
    try:
        with ServeClient(fixture.socket_path) as client:
            client.shutdown()
        fixture.thread.join(timeout=10)
        with pytest.raises(ServeUnreachable):
            ServeClient(fixture.socket_path, timeout=0.5).ping()
    finally:
        fixture.stop()


def test_request_ledger_written_per_job(served):
    with ServeClient(served.socket_path) as client:
        done = client.submit(_payloads(), tenant="alice")
    jobs = [r for r in served.daemon.telemetry.events.records()
            if r["event"] == "done"]
    assert len(jobs) == 1
    assert jobs[0]["tenant"] == "alice"
    assert jobs[0]["requests"] == 2
    assert jobs[0]["sim_version"] == SIM_VERSION
    assert jobs[0]["request_hashes"] == [
        r["provenance"]["request_hash"] for r in done["results"]]
    # The event log is the daemon's only job record.
    assert sorted(os.listdir(served.dir)) == ["cache", "d.sock",
                                              "events.jsonl"]


def test_manifest_lists_served_jobs_from_the_event_log(served):
    # A fixed two-tenant session on a fresh store: the served-jobs
    # section must read exactly as the separate request ledger rendered
    # it before the event log's done records replaced that ledger.
    with ServeClient(served.socket_path, timeout=60) as client:
        client.submit(_payloads(sizes=(64, 4096)), tenant="alice")
        client.submit(_payloads(sizes=(64, 4096, 128, 256)), tenant="bob")
        client.submit(_payloads(sizes=(128,)), tenant="alice")
    text = build_manifest(served.dir, state_dir=served.dir)
    section = text.split("## Served jobs (request ledger)\n")[1]
    assert section.splitlines()[1:6] == [
        "3 job(s) on record; most recent first:",
        "",
        "- job 3 (tenant `alice`, SIM_VERSION 3): 1 request(s), 0 new / "
        "1 cached — `a1bbae467d22…`",
        "- job 2 (tenant `bob`, SIM_VERSION 3): 4 request(s), 2 new / "
        "2 cached — `9a85edec18ab…`, `43e2cce7baf7…`, `a1bbae467d22…`, "
        "… 1 more",
        "- job 1 (tenant `alice`, SIM_VERSION 3): 2 request(s), 2 new / "
        "0 cached — `9a85edec18ab…`, `43e2cce7baf7…`",
    ]


def test_job_of_a_departed_submitter_is_still_recorded():
    # The submitter hangs up right after "accepted". The job still runs
    # to the end, and its finish must be counted and logged like any
    # other: the status count, the job counter, the latency histogram
    # and the done lines agree.
    fixture = DaemonFixture(workers=0, batch_size=1)
    fixture.start()
    try:
        payloads = _payloads(sizes=tuple(64 + i for i in range(6)))
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.connect(fixture.socket_path)
        raw.sendall((json.dumps({"op": "submit", "tenant": "gone",
                                 "requests": payloads}) + "\n").encode())
        reader = raw.makefile("rb")
        assert json.loads(reader.readline())["event"] == "accepted"
        reader.close()
        raw.close()
        with ServeClient(fixture.socket_path, timeout=60) as client:
            for _ in range(500):
                status = client.status()
                if status["queue"]["pending_requests"] == 0 \
                        and status["queue"]["inflight_chunks"] == 0:
                    break
                threading.Event().wait(0.02)
            status = client.status()
            metrics = client.metrics()["metrics"]
        done = [r for r in fixture.daemon.telemetry.events.records()
                if r["event"] == "done"]
        assert status["queue"]["completed_jobs"] == 1
        assert metrics["serve.jobs.completed"]["value"] == 1
        assert metrics["serve.job.latency_seconds"]["count"] == 1
        assert len(done) == 1 and done[0]["tenant"] == "gone"
        assert status["queue"]["tenant_totals"]["gone"] \
            == {"submitted": 1, "completed": 1}
    finally:
        fixture.stop()


# -- store hits answered at submit -------------------------------------------


def test_warm_job_overtakes_a_running_chunk(monkeypatch):
    # The worker is held inside a batch tenant's chunk; a job the store
    # answers whole must still finish, because hits never queue.
    import repro.exec.executor as executor_module

    execute = executor_module.execute
    entered, release = threading.Event(), threading.Event()

    def blocking_execute(request):
        if request.size == 96:
            entered.set()
            release.wait(60)
        return execute(request)

    monkeypatch.setattr(executor_module, "execute", blocking_execute)
    fixture = DaemonFixture(workers=0, batch_size=2)
    fixture.start()
    warm = _payloads()
    answers = {}

    def submit(tenant, payloads):
        with ServeClient(fixture.socket_path, timeout=60) as client:
            answers[tenant] = client.submit(payloads, tenant=tenant)

    batch = threading.Thread(target=submit,
                             args=("batch", _payloads(sizes=(96,))))
    interactive = threading.Thread(target=submit,
                                   args=("interactive", warm))
    try:
        with ServeClient(fixture.socket_path, timeout=60) as client:
            client.submit(warm, tenant="prewarm")
        batch.start()
        assert entered.wait(60)
        interactive.start()
        interactive.join(timeout=5)
        assert not interactive.is_alive(), \
            "the warm job queued behind the running chunk"
        assert fixture.daemon._busy and "batch" not in answers
        assert answers["interactive"]["stats"] == {
            "requests": 2, "new": 0, "cached": 2, "errors": 0}
    finally:
        release.set()
        for thread in (batch, interactive):
            if thread.ident is not None:      # started
                thread.join(timeout=60)
        fixture.stop()
    assert answers["batch"]["stats"]["new"] == 1


def test_mixed_job_answers_hits_at_submit_and_queues_only_misses(served):
    with ServeClient(served.socket_path) as client:
        client.submit(_payloads(sizes=(64, 4096)), tenant="alice")
    sizes = (128, 64, 256, 4096, 512)
    payloads = _payloads(sizes=sizes)
    events = []
    with ServeClient(served.socket_path) as client:
        done = client.submit(payloads, tenant="bob", on_event=events.append)

    misses = 3
    assert events[0]["event"] == "accepted"
    assert events[0]["chunks"] == math.ceil(misses / 2)   # batch_size=2
    assert [e["event"] for e in events[1:]] == ["progress"] * 2
    assert done["stats"] == {"requests": 5, "new": 3, "cached": 2,
                             "errors": 0}
    assert [r["request"]["size"] for r in done["results"]] == list(sizes)
    assert [r["provenance"]["cache"] for r in done["results"]] \
        == ["miss", "hit", "miss", "hit", "miss"]
    assert [r["cached"] for r in done["results"]] \
        == [False, True, False, True, False]
    with Executor(workers=0) as ex:
        direct = ex.run_many([RunRequest.from_payload(p) for p in payloads])
    assert [r["latency_s"] for r in done["results"]] \
        == [r.latency_s for r in direct]
    (line,) = [r for r in served.daemon.telemetry.events.records()
               if r["event"] == "done" and r["job"] == done["job"]]
    assert line["request_hashes"] == [
        r["provenance"]["request_hash"] for r in done["results"]]
    assert (line["new"], line["cached"], line["errors"]) == (3, 2, 0)


def test_warm_job_is_counted_once_and_runs_no_chunk(served):
    payloads = _payloads()
    events = []
    with ServeClient(served.socket_path) as client:
        client.submit(payloads, tenant="alice")
        warm = client.submit(payloads, tenant="bob", on_event=events.append)
        status = client.status()
        metrics = client.metrics()["metrics"]
        trace = client.trace(warm["job"])["trace"]

    assert [e["event"] for e in events] == ["accepted", "progress"]
    assert events[0]["chunks"] == 0
    assert events[1]["done"] == events[1]["total"] == 2
    assert (status["cache"]["hits"], status["cache"]["misses"]) == (2, 2)
    assert status["executor"]["simulations"] == 2
    assert metrics["serve.jobs.completed"]["value"] == 2
    assert metrics["serve.job.latency_seconds"]["count"] == 2
    assert metrics["serve.job.queue_wait_seconds"]["count"] == 2
    assert metrics["serve.chunks"]["value"] == 1          # alice's alone
    assert metrics["serve.results.cached"]["value"] == 2
    assert metrics["serve.simulations.new"]["value"] == 2
    assert metrics["serve.cache.hits"]["value"] == 2
    xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert {e["tid"] for e in xs} == {warm["job"]}
    assert sorted(e["name"] for e in xs) \
        == ["cache-lookup", "job", "publish", "queue-wait"]
    (wait,) = [e for e in xs if e["name"] == "queue-wait"]
    assert wait["dur"] == 0


def test_instrumented_requests_are_never_answered_at_submit(served):
    plain = _payloads()
    observed = {**plain[0], "options": {"data_movement": False,
                                        "observe": "spans"}}
    events = []
    with ServeClient(served.socket_path) as client:
        client.submit(plain, tenant="a")
        done = client.submit([plain[0], observed, plain[1]], tenant="a",
                             on_event=events.append)
    assert events[0]["chunks"] == 1                 # the observed run
    assert [r["provenance"]["cache"] for r in done["results"]] \
        == ["hit", "miss", "hit"]
    assert done["results"][1]["latency_s"] == done["results"][0]["latency_s"]
    assert done["stats"] == {"requests": 3, "new": 1, "cached": 2,
                             "errors": 0}
    assert served.daemon.executor.simulations == 3


def test_status_reads_store_totals_without_walking_the_store(monkeypatch):
    from repro.exec import ResultCache, ShardedStore

    fixture = DaemonFixture(workers=0)
    root = os.path.join(fixture.dir, "cache")
    other = ResultCache(root)
    for i in range(2000):
        other.put({"point": i}, 1e-6)
    other.save()
    fixture.start()
    scans = []
    scan = ShardedStore.scan
    try:
        with ServeClient(fixture.socket_path, timeout=60) as client:
            client.submit(_payloads(sizes=(64,)))   # the daemon's first save
            monkeypatch.setattr(
                ShardedStore, "scan",
                lambda store: scans.append(store.root) or scan(store))
            store = client.status()["store"]
        assert scans == []
        fresh = ShardedStore(root)
        assert (store["entries"], store["bytes"]) == (
            len(scan(fresh)), sum(st.st_size for _p, st in scan(fresh)))
        assert store["entries"] == 2001
    finally:
        fixture.stop()
