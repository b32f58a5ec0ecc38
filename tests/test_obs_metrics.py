"""Metrics registry (repro.obs.metrics) + its wiring into the simulator."""

import pytest

from repro.mpi import World
from repro.node import Node
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               NULL_METRIC, NULL_METRICS,
                               NullMetricsRegistry, prometheus_name,
                               validate_prometheus)
from repro.options import RunOptions
from repro.sim.trace import count_message_distances
from repro.xhc import Xhc

from conftest import small_topo


def run_bcast(observe=True, nranks=8, size=4096):
    node = Node(small_topo(),
                options=RunOptions(data_movement=False, observe=observe))
    world = World(node, nranks)
    comm = world.communicator(Xhc())

    def program(comm_, ctx):
        buf = ctx.alloc("b", size)
        yield from comm_.bcast(ctx, buf.whole(), 0)
    comm.run(program)
    return node


# -- primitives ---------------------------------------------------------------


def test_counter_gauge_histogram():
    c = Counter("c", "help text")
    c.inc()
    c.inc(41)
    assert c.value == 42

    g = Gauge("g")
    g.set(10.0)
    g.inc(5)
    g.dec(2.5)
    assert g.value == 12.5

    h = Histogram("h", scale=1.0)
    for v in (0.5, 1.0, 3.0, 100.0):
        h.observe(v)
    assert h.count == 4
    assert h.sum == pytest.approx(104.5)
    assert h.mean == pytest.approx(104.5 / 4)
    assert h.min == 0.5 and h.max == 100.0
    # <=1 lands in bucket 0; (2,4] in bucket 2; (64,128] in bucket 7.
    assert h.buckets[0] == 2
    assert h.buckets[2] == 1
    assert h.buckets[7] == 1


def test_registry_get_or_create_and_type_check():
    reg = MetricsRegistry()
    a = reg.counter("x.count", "first")
    b = reg.counter("x.count", "second registration ignored")
    assert a is b
    assert a.help == "first"
    with pytest.raises(TypeError):
        reg.gauge("x.count")
    assert reg.value("x.count") == 0
    assert reg.value("missing", default=-1) == -1
    assert reg.get("missing") is None


def test_registry_snapshot_and_render():
    reg = MetricsRegistry()
    reg.counter("b.two").inc(7)
    reg.gauge("a.one").set(1.5)
    reg.histogram("c.three", scale=2.0).observe(3.0)
    names = [m.name for m in reg]
    assert names == sorted(names)
    snap = reg.snapshot()
    assert snap["b.two"] == {"type": "counter", "value": 7}
    assert snap["a.one"]["value"] == 1.5
    assert snap["c.three"]["count"] == 1
    text = reg.render()
    assert "b.two" in text and "counter" in text
    assert reg.render(prefix="zz") == "(no metrics recorded)"


def test_null_registry_is_inert():
    reg = NullMetricsRegistry()
    handle = reg.counter("anything")
    assert handle is NULL_METRIC
    handle.inc()
    handle.set(5)
    handle.observe(1.0)
    assert handle.value == 0
    assert len(reg) == 0
    assert reg.snapshot() == {}
    assert list(reg) == []
    assert "disabled" in reg.render()
    assert NULL_METRICS.counter("x") is NULL_METRIC


# -- streaming quantiles ------------------------------------------------------


def test_quantile_empty_and_bounds():
    h = Histogram("h")
    assert h.quantile(0.5) is None
    assert h.percentiles() == {"p50": None, "p95": None, "p99": None}
    h.observe(4.0)
    with pytest.raises(ValueError):
        h.quantile(1.5)
    with pytest.raises(ValueError):
        h.quantile(-0.1)


def test_quantile_single_observation_is_exact():
    h = Histogram("h")
    h.observe(7.0)
    # Clamping to [min, max] makes every quantile the one observed value.
    for q in (0.0, 0.5, 0.99, 1.0):
        assert h.quantile(q) == 7.0


def test_quantile_bounds_estimates_within_one_bucket():
    import math

    h = Histogram("h", scale=1.0)
    values = [float(v) for v in range(1, 101)]   # 1..100
    for v in values:
        h.observe(v)
    for q in (0.5, 0.95, 0.99):
        exact = values[math.ceil(q * len(values)) - 1]
        est = h.quantile(q)
        # The estimate interpolates inside the power-of-two bucket that
        # holds the exact rank, so it is within a factor of two of the
        # exact answer and clamped to the observed range.
        assert h.min <= est <= h.max
        assert exact / 2 <= est <= exact * 2


def test_quantiles_are_monotone_in_q():
    h = Histogram("h", scale=1e-6)
    for v in (3e-6, 5e-5, 1e-4, 2e-3, 0.5, 0.5, 0.02):
        h.observe(v)
    qs = [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99]
    estimates = [h.quantile(q) for q in qs]
    assert estimates == sorted(estimates)
    pcts = h.percentiles()
    assert set(pcts) == {"p50", "p95", "p99"}
    assert pcts["p50"] <= pcts["p95"] <= pcts["p99"]


def test_snapshot_includes_percentiles():
    reg = MetricsRegistry()
    h = reg.histogram("lat", scale=1e-6)
    for v in (1e-5, 2e-5, 4e-3):
        h.observe(v)
    entry = reg.snapshot()["lat"]
    assert entry["count"] == 3
    for key in ("p50", "p95", "p99"):
        assert h.min <= entry[key] <= h.max


# -- Prometheus exposition ----------------------------------------------------


def test_prometheus_name_sanitizes():
    assert prometheus_name("serve.jobs.completed") == "serve_jobs_completed"
    assert prometheus_name("a-b c") == "a_b_c"
    assert prometheus_name("0abc").startswith("_")


def test_to_prometheus_round_trips_through_validator():
    reg = MetricsRegistry()
    reg.counter("serve.jobs.submitted", "jobs accepted").inc(3)
    reg.gauge("serve.queue.depth.alice", "pending").set(2.5)
    h = reg.histogram("serve.job.latency_seconds", "e2e", scale=1e-6)
    for v in (1e-5, 3e-4, 3e-4, 0.02):
        h.observe(v)
    text = reg.to_prometheus()
    assert validate_prometheus(text) == []
    assert "# TYPE serve_jobs_submitted counter" in text
    assert "serve_jobs_submitted 3" in text
    assert "serve_queue_depth_alice 2.5" in text
    assert 'serve_job_latency_seconds_bucket{le="+Inf"} 4' in text
    assert "serve_job_latency_seconds_count 4" in text
    # prefix filtering
    only = reg.to_prometheus(prefix="serve.queue")
    assert "serve_queue_depth_alice" in only
    assert "serve_jobs_submitted" not in only
    assert NullMetricsRegistry().to_prometheus() == ""


def test_validate_prometheus_flags_problems():
    assert validate_prometheus("foo 1\n") == []
    assert validate_prometheus("") == []
    bad = validate_prometheus("foo bar\n")
    assert any("non-numeric" in e for e in bad)
    bad = validate_prometheus("!! 1\n")
    assert any("unparseable" in e for e in bad)
    bad = validate_prometheus("# TYPE foo flavor\nfoo 1\n")
    assert any("unknown TYPE" in e for e in bad)
    non_cumulative = ('h_bucket{le="1"} 5\n'
                      'h_bucket{le="2"} 3\n'
                      'h_bucket{le="+Inf"} 5\n'
                      "h_count 5\n")
    bad = validate_prometheus(non_cumulative)
    assert any("non-cumulative" in e for e in bad)
    mismatched = ('h_bucket{le="+Inf"} 5\n'
                  "h_count 4\n")
    bad = validate_prometheus(mismatched)
    assert any("_count" in e for e in bad)


# -- simulator wiring ---------------------------------------------------------


def test_observed_run_populates_registry():
    node = run_bcast()
    m = node.obs.metrics
    assert m.value("messages.count") == 7
    assert m.value("messages.bytes") == 7 * 4096
    # The counts the service's deleted attribute counters reported.
    assert m.value("xpmem.attaches") == 7
    assert m.value("xpmem.makes") == 2
    assert m.value("flags.sets") > 0
    assert m.value("flags.wakeups") > 0
    hist = m.get("flags.wait_seconds")
    assert hist is not None and hist.count == m.value("flags.blocked_waits")


def test_message_bytes_by_distance_match_message_instants():
    node = run_bcast(size=1000)
    counts = count_message_distances(node, unique_edges=False)
    m = node.obs.metrics
    for label, n in counts.items():
        assert m.value(f"message.bytes.{label}") == n * 1000
    assert m.value("messages.bytes") == 7 * 1000
    assert counts == {"intra-numa": 6, "inter-numa": 1, "inter-socket": 0}


def test_regcache_and_smsc_metrics():
    node = run_bcast(size=200_000)  # large -> single-copy path
    m = node.obs.metrics
    assert m.value("regcache.misses") > 0
    assert m.value("smsc.copies") > 0
    assert m.value("smsc.bytes") > 0


def test_disabled_run_registers_nothing():
    node = run_bcast(observe=False)
    assert not node.obs.enabled
    assert node.obs.metrics.snapshot() == {}


def test_latency_only_run_keeps_no_record_outside_the_observer():
    """The observer is a run's only recorder: an unobserved run leaves
    no message log on its engine and no counters on its XPMEM service."""
    from repro.exec import RunRequest, execute
    from repro.obs import NULL_OBSERVER

    result = execute(RunRequest("epyc-1p", "bcast", 4096, 8),
                     keep_node=True)
    node = result.node
    assert result.latency_s > 0
    assert node.obs is NULL_OBSERVER
    assert not hasattr(node.engine, "trace")
    for counter in ("makes", "attaches", "detaches"):
        assert not hasattr(node.xpmem, counter)
