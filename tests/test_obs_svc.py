"""Service-layer telemetry (repro.obs.svc): event log, span trees,
Perfetto export — driven with a fake clock, no daemon involved."""

import json
import os

import pytest

from repro.exec import SIM_VERSION
from repro.obs.export import validate_chrome_trace
from repro.obs.metrics import MetricsRegistry, validate_prometheus
from repro.obs.svc import EventLog, JobTrace, ServiceTelemetry


class FakeJob:
    def __init__(self, id, tenant, total):
        self.id = id
        self.tenant = tenant
        self.requests = [None] * total
        self.new = 0
        self.cached = 0
        self.errors = 0

    @property
    def total(self):
        return len(self.requests)


class FakeClock:
    """Deterministic wall clock the tests advance by hand."""

    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t

    def tick(self, dt=1.0):
        self.t += dt


@pytest.fixture(autouse=True)
def close_event_logs(monkeypatch):
    """An event log keeps its live file open between appends: close
    every log a test made once the test is done."""
    logs = []
    init = EventLog.__init__

    def tracked(log, *args, **kwargs):
        init(log, *args, **kwargs)
        logs.append(log)

    monkeypatch.setattr(EventLog, "__init__", tracked)
    yield
    for log in logs:
        log.close()


def make_telemetry(tmp_path=None, **kw):
    clock = FakeClock()
    tel = ServiceTelemetry(MetricsRegistry(), tmp_path, clock=clock, **kw)
    return tel, clock


def hashes(job):
    return [f"{job.id}-{i}" for i in range(job.total)]


def run_chunks(tel, clock, job, chunks=2, cached_per_chunk=0):
    """Drive an already submitted job through its chunks and finish."""
    per_chunk = max(1, job.total // chunks)
    for c in range(chunks):
        clock.tick(0.5)                      # queue / schedule wait
        indices = list(range(per_chunk))
        tel.chunk_started(job, indices)
        clock.tick(0.1)
        tel.executor_phase("cache-lookup", 0.01, len(indices))
        tel.executor_phase("worker-execute", 0.09, len(indices))
        cached = min(cached_per_chunk, per_chunk)
        tel.chunk_finished(job, per_chunk - cached, cached, 0, 0.1)
    clock.tick(0.05)
    tel.job_finished(job, hashes(job))


def run_job(tel, clock, job, chunks=2, cached_per_chunk=0):
    """Drive one job through the full lifecycle hook sequence."""
    tel.job_submitted(job)
    run_chunks(tel, clock, job, chunks, cached_per_chunk)


# -- EventLog -----------------------------------------------------------------


def test_event_log_appends_compact_json_lines(tmp_path):
    log = EventLog(tmp_path / "events.jsonl")
    log.append({"event": "submit", "job": 1})
    log.append({"event": "done", "job": 1})
    lines = (tmp_path / "events.jsonl").read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0]) == {"event": "submit", "job": 1}
    assert log.written == 2
    assert log.rotations == 0
    assert log.records() == [{"event": "submit", "job": 1},
                             {"event": "done", "job": 1}]


def test_event_log_rotates_at_size_and_bounds_segments(tmp_path):
    path = tmp_path / "events.jsonl"
    log = EventLog(path, max_bytes=200, keep=2)
    for i in range(50):
        log.append({"event": "chunk", "n": i})
    assert log.rotations > 0
    segments = log.segments()
    # live file + at most `keep` closed segments, newest first
    assert segments[0] == str(path)
    assert len(segments) <= 3
    for segment in segments:
        assert os.path.getsize(segment) <= 200 + 40
    # Records survive rotation in order (oldest retained first), and the
    # newest record is always present.
    ns = [r["n"] for r in log.records()]
    assert ns == sorted(ns)
    assert ns[-1] == 49


def test_event_log_skips_corrupt_lines_and_none_path(tmp_path):
    path = tmp_path / "events.jsonl"
    log = EventLog(path)
    log.append({"ok": 1})
    with open(path, "a") as fh:
        fh.write("{torn json\n")
        fh.write("[1, 2]\n")
    log.append({"ok": 2})
    assert log.records() == [{"ok": 1}, {"ok": 2}]

    disabled = EventLog(None)
    disabled.append({"never": "written"})
    assert disabled.segments() == []
    assert disabled.records() == []
    assert disabled.written == 0


@pytest.fixture
def opened(monkeypatch):
    """The paths ``repro.obs.svc`` opens during the test."""
    import repro.obs.svc as svc

    paths = []

    def counting_open(path, *args, **kwargs):
        paths.append(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(svc, "open", counting_open, raising=False)
    return paths


def test_event_log_keeps_its_live_file_open(tmp_path, opened):
    log = EventLog(tmp_path / "state" / "events.jsonl")
    for i in range(100):
        log.append({"event": "chunk", "n": i})
    assert len(opened) == 1
    # Every line reached the file while the handle is still open.
    assert [r["n"] for r in log.records()] == list(range(100))
    log.close()
    log.append({"event": "done", "n": 100})     # reopens, appends
    log.close()
    assert [r["n"] for r in log.records()][-2:] == [99, 100]


def test_event_log_reopens_after_each_rotation(tmp_path, opened):
    path = tmp_path / "events.jsonl"
    log = EventLog(path, max_bytes=200, keep=2)
    for i in range(50):
        log.append({"event": "chunk", "n": i})
    log.close()
    assert log.rotations > 2
    assert len(opened) == log.rotations + 1
    assert log.segments() == [str(path), f"{path}.1", f"{path}.2"]
    for segment in log.segments():
        assert os.path.getsize(segment) <= 200
    ns = [r["n"] for r in log.records()]
    assert ns == list(range(ns[0], 50))
    # A log that opens a non-empty live file counts what is there.
    live = os.path.getsize(path)
    record = {"event": "chunk", "n": 50}
    line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    again = EventLog(path, max_bytes=200, keep=2)
    again.append(record)
    again.close()
    assert again.rotations == (1 if live + len(line) > 200 else 0)
    assert os.path.getsize(path) <= 200
    assert again.records()[-1] == record


# -- lifecycle span trees -----------------------------------------------------


def test_job_lifecycle_builds_expected_span_tree(tmp_path):
    tel, clock = make_telemetry(tmp_path)
    job = FakeJob(1, "alice", 4)
    run_job(tel, clock, job, chunks=2)

    trace = tel.get_trace(1)
    assert trace.finished
    assert trace.wall_s == pytest.approx(1.25)
    names = [s.name for s in trace.spans]
    # Tree contents: root job, queue-wait, 2 chunks, each with lookup +
    # execute children, and a publish tail.
    assert names.count("job") == 1
    assert names.count("queue-wait") == 1
    assert names.count("chunk") == 2
    assert names.count("cache-lookup") == 2
    assert names.count("worker-execute") == 2
    assert names.count("publish") == 1
    by_name = {}
    for span in trace.spans:
        by_name.setdefault(span.name, []).append(span)
    root = by_name["job"][0]
    assert root.parent is None
    assert by_name["queue-wait"][0].parent == root.id
    for chunk in by_name["chunk"]:
        assert chunk.parent == root.id
    chunk_ids = {c.id for c in by_name["chunk"]}
    for name in ("cache-lookup", "worker-execute"):
        for span in by_name[name]:
            assert span.parent in chunk_ids
    assert by_name["publish"][0].parent == root.id
    # Every span is closed and every track is the job id.
    for span in trace.spans:
        assert span.end is not None and span.end >= span.start
        assert span.track == 1


def test_metrics_feed_from_lifecycle(tmp_path):
    tel, clock = make_telemetry(tmp_path)
    run_job(tel, clock, FakeJob(1, "alice", 4), chunks=2,
            cached_per_chunk=1)
    m = tel.metrics
    assert m.value("serve.jobs.submitted") == 1
    assert m.value("serve.jobs.completed") == 1
    assert m.value("serve.tenant.jobs.alice") == 1
    assert m.value("serve.tenant.completed.alice") == 1
    assert (tel.submitted, tel.completed) == (1, 1)
    assert tel.tenant_totals() == {"alice": {"submitted": 1,
                                             "completed": 1}}
    assert m.get("serve.job.latency_seconds").count == 1
    assert m.get("serve.job.queue_wait_seconds").count == 1
    assert m.get("serve.chunk.execute_seconds").count == 2
    assert m.get("serve.exec.cache_lookup_seconds").count == 2
    assert m.get("serve.exec.worker_execute_seconds").count == 2
    assert m.value("serve.worker.busy_seconds") == pytest.approx(0.2)
    assert m.value("serve.inflight.chunks") == 0
    # The whole registry round-trips through the Prometheus emitter.
    assert validate_prometheus(m.to_prometheus()) == []


def test_event_log_records_lifecycle(tmp_path):
    tel, clock = make_telemetry(tmp_path)
    run_job(tel, clock, FakeJob(1, "alice", 4), chunks=2)
    kinds = [r["event"] for r in tel.events.records()]
    assert kinds == ["submit", "chunk", "chunk", "done"]
    done = tel.events.records()[-1]
    assert done["job"] == 1
    assert done["tenant"] == "alice"
    assert done["wall_s"] == pytest.approx(1.25)
    # The done line is the job's durable record: the manifest reads its
    # SIM_VERSION and request hashes.
    assert done["sim_version"] == SIM_VERSION
    assert done["request_hashes"] == ["1-0", "1-1", "1-2", "1-3"]


def test_cached_error_result_counts_as_an_error_everywhere(tmp_path):
    """The daemon hands telemetry the counts ``FairScheduler.record``
    returned, so a result that is both cached and an error is an error
    to the job, the chunk span and the event log alike."""
    from repro.exec import RunRequest, RunResult
    from repro.serve import FairScheduler

    tel, clock = make_telemetry(tmp_path)
    sched = FairScheduler(batch_size=3)
    requests = [RunRequest("epyc-1p", "bcast", 64 + i, 8) for i in range(3)]
    job = sched.submit("alice", requests)
    tel.job_submitted(job)
    _job, indices = sched.next_chunk()
    tel.chunk_started(job, indices)
    clock.tick(0.1)
    results = [
        RunResult(request=requests[0], latency_s=1e-6),
        RunResult(request=requests[1], latency_s=2e-6, cached=True),
        RunResult(request=requests[2], latency_s=None, cached=True,
                  error={"type": "DeadlockError", "message": "stuck"}),
    ]
    counts = sched.record(job, indices, results)
    tel.chunk_finished(job, *counts, 0.1)
    tel.job_finished(job, [r.key() for r in requests])

    assert counts == (1, 1, 1)
    assert (job.new, job.cached, job.errors) == (1, 1, 1)
    (chunk,) = [s for s in tel.get_trace(job.id).spans if s.name == "chunk"]
    assert (chunk.args["new"], chunk.args["cached"],
            chunk.args["errors"]) == (1, 1, 1)
    (logged,) = [r for r in tel.events.records() if r["event"] == "chunk"]
    assert (logged["requests"], logged["new"], logged["cached"],
            logged["errors"]) == (3, 1, 1, 1)
    done = tel.events.records()[-1]
    assert (done["new"], done["cached"], done["errors"]) == (1, 1, 1)


def test_trace_retention_evicts_oldest(tmp_path):
    tel, clock = make_telemetry(tmp_path, max_traces=3)
    for i in range(1, 6):
        run_job(tel, clock, FakeJob(i, "t", 2), chunks=1)
    assert tel.job_ids() == [3, 4, 5]
    assert tel.get_trace(1) is None
    assert tel.get_trace(5).wall_s is not None


def test_trace_cap_never_drops_a_live_job(tmp_path):
    # A long batch job stays live while four short jobs overtake it past
    # the trace cap. Evicting its trace would lose its chunk spans, its
    # latency sample, its completion counts and its done line.
    tel, clock = make_telemetry(tmp_path, max_traces=3)
    sweep = FakeJob(1, "batch", 4)
    tel.job_submitted(sweep)
    for i in range(2, 6):
        run_job(tel, clock, FakeJob(i, "interactive", 1), chunks=1)
    assert 1 in tel.job_ids()
    assert len(tel.job_ids()) == 3
    run_chunks(tel, clock, sweep, chunks=2)

    m = tel.metrics
    done = [r for r in tel.events.records() if r["event"] == "done"]
    assert sorted(r["job"] for r in done) == [1, 2, 3, 4, 5]
    assert m.value("serve.jobs.completed") == 5
    assert m.get("serve.job.latency_seconds").count == 5
    assert m.value("serve.tenant.completed.batch") == 1
    assert tel.tenant_totals()["batch"] == {"submitted": 1, "completed": 1}
    chunks = [s for s in tel.get_trace(1).spans if s.name == "chunk"]
    assert len(chunks) == 2
    assert tel.job_ids() == [1, 4, 5]
    # Finished, the sweep is the oldest trace and the next job evicts it.
    run_job(tel, clock, FakeJob(6, "interactive", 1), chunks=1)
    assert tel.job_ids() == [4, 5, 6]


def test_job_answered_at_submit_is_traced_and_counted(tmp_path):
    # The daemon answered every request from the store at submit: the
    # lookup is the job's one cache-lookup span, under its own root, and
    # the job waited for no chunk.
    tel, clock = make_telemetry(tmp_path)
    job = FakeJob(1, "alice", 3)
    clock.tick(0.25)                         # the submit-time lookup
    tel.job_submitted(job, lookup_s=0.25)
    clock.tick(0.5)
    tel.job_finished(job, hashes(job))

    trace = tel.get_trace(1)
    spans = {span.name: span for span in trace.spans}
    assert sorted(spans) == ["cache-lookup", "job", "publish", "queue-wait"]
    root, lookup, wait = spans["job"], spans["cache-lookup"], \
        spans["queue-wait"]
    assert lookup.parent == wait.parent == root.id
    assert (lookup.start, lookup.end) == (root.start, root.start + 0.25)
    assert lookup.args == {"requests": 3}
    assert wait.start == wait.end == lookup.end
    assert trace.wall_s == pytest.approx(0.75)
    m = tel.metrics
    assert m.get("serve.job.queue_wait_seconds").count == 1
    assert m.get("serve.job.queue_wait_seconds").sum == 0.0
    assert m.get("serve.exec.cache_lookup_seconds").count == 1
    assert m.get("serve.job.latency_seconds").count == 1
    assert m.get("serve.chunk.execute_seconds").count == 0
    assert m.value("serve.jobs.completed") == 1
    assert [r["event"] for r in tel.events.records()] == ["submit", "done"]


def test_queue_wait_starts_after_the_submit_time_lookup(tmp_path):
    tel, clock = make_telemetry(tmp_path)
    job = FakeJob(1, "alice", 4)
    clock.tick(0.25)
    tel.job_submitted(job, lookup_s=0.25)
    run_chunks(tel, clock, job, chunks=2)
    m = tel.metrics
    # Submit-time lookup plus one executor lookup per chunk.
    assert m.get("serve.exec.cache_lookup_seconds").count == 3
    assert m.get("serve.job.queue_wait_seconds").sum == pytest.approx(0.5)
    wait = [s for s in tel.get_trace(1).spans if s.name == "queue-wait"]
    assert wait[0].end - wait[0].start == pytest.approx(0.5)
    assert tel.get_trace(1).wall_s == pytest.approx(1.5)


def test_job_is_recorded_once(tmp_path):
    tel, clock = make_telemetry(tmp_path)
    job = FakeJob(1, "alice", 2)
    run_job(tel, clock, job, chunks=1)
    tel.job_finished(job, hashes(job))
    assert tel.completed == 1
    assert [r["event"] for r in tel.events.records()].count("done") == 1


# -- Perfetto export ----------------------------------------------------------


def test_trace_doc_validates_and_maps_tenants_to_pids(tmp_path):
    tel, clock = make_telemetry(tmp_path)
    run_job(tel, clock, FakeJob(1, "alice", 4), chunks=2)
    run_job(tel, clock, FakeJob(2, "bob", 2), chunks=1)

    doc = tel.trace_doc()
    assert validate_chrome_trace(doc) == []
    events = doc["traceEvents"]
    xs = [e for e in events if e["ph"] == "X"]
    # One tid (= job id) per job; one pid per tenant.
    assert {e["tid"] for e in xs} == {1, 2}
    assert len({e["pid"] for e in xs}) == 2
    names = {e["args"]["name"] for e in events
             if e["ph"] == "M" and e["name"] == "process_name"}
    assert names == {"tenant alice", "tenant bob"}
    other = doc["otherData"]
    assert other["tool"] == "repro.obs.svc"
    assert other["jobs"] == 2
    assert "serve.job.latency_seconds" in other["metrics"]

    single = tel.trace_doc(2)
    assert validate_chrome_trace(single) == []
    assert {e["tid"] for e in single["traceEvents"]
            if e["ph"] == "X"} == {2}
    assert tel.trace_doc(99) is None


def test_trace_doc_closes_open_spans_at_now(tmp_path):
    tel, clock = make_telemetry(tmp_path)
    job = FakeJob(1, "alice", 4)
    tel.job_submitted(job)
    clock.tick(0.5)
    tel.chunk_started(job, [0, 1])          # chunk still open
    clock.tick(0.2)
    doc = tel.trace_doc()
    assert validate_chrome_trace(doc) == []
    xs = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
    # Open spans (job, chunk) are synthetically closed at "now" in the
    # export only; the live trace still has them on the stack.
    assert {"job", "queue-wait", "chunk"} <= set(xs)
    assert xs["chunk"]["dur"] == pytest.approx(0.2e6)
    assert tel.get_trace(1).stack  # still open in the live structure


def test_job_trace_wall_none_until_finished():
    trace = JobTrace(1, "t", 2, submitted_at=0.0)
    assert not trace.finished
    assert trace.wall_s is None
