"""The tenant-fair scheduler: round-robin chunks, FIFO within tenants."""

import pytest

from repro.exec import RunRequest
from repro.obs.svc import ServiceTelemetry
from repro.serve import FairScheduler


def _reqs(n, base=64):
    return [RunRequest("epyc-1p", "bcast", base + i, 8) for i in range(n)]


def _drain_order(sched):
    """Execute everything, returning the (tenant, job id) of each chunk."""
    order = []
    while True:
        item = sched.next_chunk()
        if item is None:
            break
        job, indices = item
        order.append((job.tenant, job.id))
        sched.record(job, indices, [object()] * len(indices))
    return order


def test_jobs_split_into_batch_sized_chunks():
    sched = FairScheduler(batch_size=3)
    job = sched.submit("a", _reqs(7))
    assert [len(c) for c in job.chunks] == [3, 3, 1]
    assert [i for c in job.chunks for i in c] == list(range(7))


def test_batch_size_must_be_positive():
    with pytest.raises(ValueError):
        FairScheduler(batch_size=0)


def test_round_robin_across_tenants():
    sched = FairScheduler(batch_size=2)
    sched.submit("alice", _reqs(6))       # 3 chunks
    sched.submit("bob", _reqs(4))         # 2 chunks
    tenants = [t for t, _j in _drain_order(sched)]
    assert tenants == ["alice", "bob", "alice", "bob", "alice"]


def test_small_tenant_not_starved_by_large_sweep():
    sched = FairScheduler(batch_size=2)
    sched.submit("whale", _reqs(100))     # 50 chunks
    sched.submit("minnow", _reqs(2))      # 1 chunk
    order = _drain_order(sched)
    # The minnow's single chunk runs second, not 51st.
    assert order[1] == ("minnow", 2)


def test_fifo_within_one_tenant():
    sched = FairScheduler(batch_size=2)
    first = sched.submit("a", _reqs(4))
    second = sched.submit("a", _reqs(2))
    order = [j for _t, j in _drain_order(sched)]
    assert order == [first.id, first.id, second.id]


def test_tenant_rejoins_rotation_at_the_back():
    sched = FairScheduler(batch_size=2)
    sched.submit("a", _reqs(2))
    job, indices = sched.next_chunk()
    sched.record(job, indices, [object()] * len(indices))
    assert sched.next_chunk() is None
    assert sched.idle()
    # Resubmitting re-enters cleanly after the queue was emptied.
    sched.submit("a", _reqs(2))
    assert sched.next_chunk() is not None


def test_record_counts_new_cached_and_errors():
    class R:
        def __init__(self, cached=False, error=None):
            self.cached = cached
            self.error = error

    sched = FairScheduler(batch_size=4)
    telemetry = ServiceTelemetry()
    job = sched.submit("a", _reqs(4))
    telemetry.job_submitted(job)
    _job, indices = sched.next_chunk()
    chunk = sched.record(job, indices,
                         [R(), R(cached=True), R(error="boom"), None])
    assert chunk == (1, 1, 2)
    assert (job.new, job.cached, job.errors) == (1, 1, 2)
    assert job.finished
    # The scheduler is the queue policy alone; the telemetry counts jobs.
    telemetry.job_finished(job, [req.key() for req in job.requests])
    assert (telemetry.submitted, telemetry.completed) == (1, 1)


def test_zero_request_job_finishes_immediately():
    sched = FairScheduler()
    job = sched.submit("a", [])
    assert job.finished
    assert sched.idle()
    assert sched.next_chunk() is None


def test_pending_accounting_and_tenants_snapshot():
    sched = FairScheduler(batch_size=2)
    sched.submit("a", _reqs(5))
    sched.submit("b", _reqs(2))
    assert sched.pending_chunks == 4
    assert sched.pending_requests == 7
    snap = sched.tenants()
    assert snap["a"] == {"jobs": 1, "chunks": 3, "requests": 5}
    assert snap["b"] == {"jobs": 1, "chunks": 1, "requests": 2}
    _drain_order(sched)
    assert sched.tenants() == {}
    assert sched.pending_requests == 0


def test_dispatched_but_unfinished_job_stays_tracked():
    # A job whose chunks are all handed out (but none recorded) must
    # still appear in the pending-request accounting: the daemon's drain
    # logic relies on it.
    sched = FairScheduler(batch_size=2)
    job = sched.submit("a", _reqs(2))
    _job, indices = sched.next_chunk()
    assert sched.idle()                   # no chunks left to hand out
    assert sched.pending_requests == 2    # but nothing recorded yet
    sched.record(job, indices, [object(), object()])
    assert sched.pending_requests == 0


class _Hit:
    """A store hit the daemon answered at submit."""
    cached = True
    error = None


def test_job_arrives_with_store_hits_recorded_and_queues_only_misses():
    sched = FairScheduler(batch_size=2)
    answered = [_Hit(), None, _Hit(), None, None, _Hit()]
    job = sched.submit("a", _reqs(6), answered)
    assert [list(c) for c in job.chunks] == [[1, 3], [4]]
    assert (job.done, job.cached, job.new, job.errors) == (3, 3, 0, 0)
    assert not job.finished
    assert sched.pending_requests == 3
    assert sched.tenants()["a"] == {"jobs": 1, "chunks": 2, "requests": 3}
    assert _drain_order(sched) == [("a", job.id), ("a", job.id)]
    assert job.finished and job.done == 6


def test_job_answered_whole_finishes_without_queueing():
    sched = FairScheduler(batch_size=2)
    queued = sched.submit("a", _reqs(2))
    answered = sched.submit("b", _reqs(3), [_Hit(), _Hit(), _Hit()])
    assert answered.finished and answered.chunks_left == 0
    assert (answered.done, answered.cached) == (3, 3)
    assert answered.id == queued.id + 1
    assert set(sched.tenants()) == {"a"}
    assert _drain_order(sched) == [("a", queued.id)]
