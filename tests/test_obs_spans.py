"""Span tracing (repro.obs.spans): observer behavior + engine wiring."""

import pytest

from repro.mpi import World
from repro.node import Node
from repro.obs import NULL_OBSERVER, NullObserver, Observer
from repro.obs.spans import SETUP_TRACK, WaitRecord
from repro.options import RunOptions
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


# -- observer mechanics -------------------------------------------------------


def test_default_node_has_null_observer():
    node = Node(small_topo(), options=RunOptions(data_movement=False))
    assert node.obs is NULL_OBSERVER
    assert not node.obs.enabled
    # All no-ops, shared handles.
    with node.obs.span("anything") as rec:
        assert rec is None
    gen = iter([1, 2])
    assert node.obs.wrap(gen, "x") is gen
    assert NullObserver.span(node.obs, "a") is NullObserver.span(node.obs, "b")


def test_span_nesting_and_tracks():
    node = Node(small_topo(),
                options=RunOptions(data_movement=False, observe=True))
    obs = node.obs
    assert isinstance(obs, Observer)
    # Outside any simulated process -> SETUP_TRACK.
    with obs.span("outer", cat="phase", k=1):
        with obs.span("inner"):
            pass
    inner, outer = obs.spans  # inner closes first
    assert (inner.name, outer.name) == ("inner", "outer")
    assert inner.track == outer.track == SETUP_TRACK
    assert inner.parent == outer.id
    assert outer.parent is None
    assert outer.args == {"k": 1}
    assert obs.track_name(SETUP_TRACK) == "setup"


def test_wait_record_group():
    w = WaitRecord(0, "xhc.avail.7", "flag", 0.0)
    assert w.group == "xhc.avail"
    assert WaitRecord(0, "barrier", "flag", 0.0).group == "barrier"


def test_flush_open_closes_dangling_spans():
    node = Node(small_topo(),
                options=RunOptions(data_movement=False, observe=True))
    ctx = node.obs.span("left.open")
    ctx.__enter__()
    assert not node.obs.spans
    node.obs.flush_open()
    assert [s.name for s in node.obs.spans] == ["left.open"]
    assert node.obs.spans[0].end is not None


def test_span_limit_drops_not_grows():
    node = Node(small_topo(),
                options=RunOptions(data_movement=False, observe=True))
    node.obs.span_limit = 2
    for i in range(5):
        with node.obs.span(f"s{i}"):
            pass
    assert len(node.obs.spans) == 2
    assert node.obs.dropped == 3


# -- engine wiring ------------------------------------------------------------


def test_observed_bcast_records_spans_and_waits():
    node = run_bcast()
    obs = node.obs
    names = {s.name for s in obs.spans}
    assert "coll.bcast" in names
    assert "xhc.bcast" in names
    assert "xhc.fanout" in names
    cats = {s.cat for s in obs.spans}
    assert {"coll", "phase", "wait", "copy"} <= cats
    # Every span closed within simulated time.
    assert all(s.end is not None and s.end <= node.engine.now + 1e-15
               for s in obs.spans)
    # Every rank got its own track (plus setup).
    rank_tracks = {t for t in obs.tracks if t != SETUP_TRACK}
    assert len(rank_tracks) >= 8
    # Non-root ranks blocked at least once, and wakers were recorded.
    assert obs.waits
    assert all(w.end is not None for w in obs.waits)
    woken = [w for w in obs.waits if w.waker is not None]
    assert woken, "satisfied waits must know their waker"
    for w in woken:
        assert w.woke_at is not None
        assert w.start <= w.woke_at <= w.end


def test_collective_span_contains_phase_spans():
    node = run_bcast()
    obs = node.obs
    by_id = {s.id: s for s in obs.spans}
    fanouts = [s for s in obs.spans if s.name == "xhc.fanout"]
    assert fanouts
    for s in fanouts:
        assert s.parent is not None
        parent = by_id[s.parent]
        assert parent.name == "xhc.bcast"
        assert parent.start <= s.start and s.end <= parent.end


def test_observe_spans_mode_skips_copy_spans():
    spans_only = run_bcast(observe="spans").obs
    full = run_bcast(observe="full").obs
    assert not spans_only.record_copies
    assert not any(s.cat == "copy" for s in spans_only.spans)
    assert any(s.cat == "copy" for s in full.spans)
    # Phase structure is identical either way.
    assert ({s.name for s in spans_only.spans if s.cat != "copy"}
            == {s.name for s in full.spans if s.cat != "copy"})


def test_engine_counters_populated():
    node = run_bcast()
    m = node.obs.metrics
    assert m.value("flags.sets") > 0
    assert m.value("flags.wakeups") > 0
    assert m.value("flags.blocked_waits") == len(node.obs.waits)


def test_flag_allocator_reports_to_registry():
    from repro.obs.metrics import MetricsRegistry
    from repro.sync import FlagAllocator
    reg = MetricsRegistry()
    alloc = FlagAllocator(metrics=reg)
    alloc.flag("solo", owner_core=0)
    alloc.flag_group(["a", "b", "c"], owner_core=1, placement="shared")
    assert reg.value("flags.allocated") == 4
    assert reg.value("flags.lines_shared") == 3


def test_invalid_observe_value_rejected():
    from repro.errors import SimulationError
    with pytest.raises(SimulationError):
        Node(small_topo(),
             options=RunOptions(data_movement=False, observe="loud"))


def test_span_tree_groups_and_sorts():
    node = run_bcast()
    tree = node.obs.span_tree()
    assert set(tree) <= set(node.obs.tracks)
    for spans in tree.values():
        starts = [s.start for s in spans]
        assert starts == sorted(starts)
