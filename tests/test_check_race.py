"""Dynamic race sanitizer: seeded violations are flagged, correct
protocols are clean (repro.check.race wired through Node(check=...))."""

import pytest

from repro.node import Node
from repro.options import RunOptions
from repro.sim import primitives as P
from repro.sim.syncobj import Flag

from conftest import small_topo


def _two_rank_node(check="race"):
    node = Node(small_topo(),
                options=RunOptions(data_movement=False, check=check))
    s0 = node.new_address_space(rank=0, core=0)
    s1 = node.new_address_space(rank=1, core=1)
    return node, s0, s1


def _run_protocol(release_before_write: bool, check="race"):
    """Rank 0 publishes a shared buffer and signals with a flag; rank 1
    waits on the flag and reads. ``release_before_write`` seeds the bug:
    the flag store happens before the data write."""
    node, s0, s1 = _two_rank_node(check)
    shared = s0.alloc("pub", 256, shared=True)
    src = s0.alloc("src", 256)
    dst = s1.alloc("dst", 256)
    flag = Flag("proto.ready", owner_core=0)

    def writer():
        if release_before_write:
            yield P.SetFlag(flag, 1)
            yield P.Copy(src=src.whole(), dst=shared.whole())
        else:
            yield P.Copy(src=src.whole(), dst=shared.whole())
            yield P.SetFlag(flag, 1)

    def reader():
        yield P.WaitFlag(flag, 1)
        yield P.Copy(src=shared.whole(), dst=dst.whole())

    node.engine.spawn(writer(), core=0, name="rank0")
    node.engine.spawn(reader(), core=1, name="rank1")
    node.engine.run()
    return node


def test_release_before_write_is_flagged():
    node = _run_protocol(release_before_write=True)
    report = node.check_report
    races = report.by_kind("race")
    assert races, "seeded release-before-write protocol must be flagged"
    f = races[0]
    # The finding names both ranks and the unordered accesses.
    assert set(f.procs) == {"rank0", "rank1"}
    assert "write" in f.message and "read" in f.message
    assert "pub" in f.message
    assert "happens-before" in f.message


def test_correct_protocol_is_clean():
    node = _run_protocol(release_before_write=False)
    assert node.check_report.ok


def test_concurrent_writers_race_without_flag():
    """Two ranks writing the same shared range with no sync at all."""
    node, s0, s1 = _two_rank_node()
    shared = s0.alloc("pub", 128, shared=True)
    a = s0.alloc("a", 128)
    b = s1.alloc("b", 128)

    def w(space_view):
        yield P.Copy(src=space_view, dst=shared.whole())

    node.engine.spawn(w(a.whole()), core=0, name="rank0")
    node.engine.spawn(w(b.whole()), core=1, name="rank1")
    node.engine.run()
    assert node.check_report.by_kind("race")


def test_disjoint_ranges_do_not_race():
    node, s0, s1 = _two_rank_node()
    shared = s0.alloc("pub", 256, shared=True)
    a = s0.alloc("a", 128)
    b = s1.alloc("b", 128)

    def w(src, off):
        yield P.Copy(src=src, dst=shared.view(off, 128))

    node.engine.spawn(w(a.whole(), 0), core=0, name="rank0")
    node.engine.spawn(w(b.whole(), 128), core=1, name="rank1")
    node.engine.run()
    assert node.check_report.ok


def test_spawned_helper_inherits_order():
    """A helper spawned after the write inherits the spawner's clock, so
    its read of the parent's buffer is ordered (no false positive)."""
    node, s0, _ = _two_rank_node()
    shared = s0.alloc("pub", 64, shared=True)
    scratch = s0.alloc("scratch", 64)
    out = s0.alloc("out", 64)

    def helper():
        yield P.Copy(src=shared.whole(), dst=out.whole())

    def parent():
        yield P.Copy(src=scratch.whole(), dst=shared.whole())
        node.engine.spawn(helper(), core=0, name="helper")
        yield P.Compute(1e-6)

    node.engine.spawn(parent(), core=0, name="rank0")
    node.engine.run()
    assert node.check_report.ok


def test_atomic_rmw_orders_handoff():
    """Counter-mediated handoff (sm-style): RMW release + wait acquire."""
    from repro.sim.syncobj import Atomic

    node, s0, s1 = _two_rank_node()
    shared = s0.alloc("pub", 64, shared=True)
    a = s0.alloc("a", 64)
    b = s1.alloc("b", 64)
    counter = Atomic("done", home_core=0)

    def producer():
        yield P.Copy(src=a.whole(), dst=shared.whole())
        yield P.AtomicRMW(counter, 1)

    def consumer():
        yield P.WaitAtomic(counter, 1)
        yield P.Copy(src=shared.whole(), dst=b.whole())

    node.engine.spawn(producer(), core=0, name="rank0")
    node.engine.spawn(consumer(), core=1, name="rank1")
    node.engine.run()
    assert node.check_report.ok


def test_unattached_peer_read_is_flagged():
    """Reading a peer's non-shared buffer without an XPMEM attachment."""
    node, s0, s1 = _two_rank_node()
    private = s0.alloc("priv", 128)          # not shared, never exposed
    dst = s1.alloc("dst", 128)
    flag = Flag("ready", owner_core=0)

    def owner():
        yield P.SetFlag(flag, 1)

    def thief():
        yield P.WaitFlag(flag, 1)
        yield P.Copy(src=private.whole(), dst=dst.whole())

    node.engine.spawn(owner(), core=0, name="rank0")
    node.engine.spawn(thief(), core=1, name="rank1")
    node.engine.run()
    findings = node.check_report.by_kind("xpmem")
    assert findings
    assert "attachment" in findings[0].message
    assert "rank1" in findings[0].procs


def test_attached_peer_read_is_clean():
    node, s0, s1 = _two_rank_node()
    private = s0.alloc("priv", 128)
    dst = s1.alloc("dst", 128)
    flag = Flag("ready", owner_core=0)

    def owner():
        yield from node.xpmem.expose(private)
        yield P.SetFlag(flag, 1)

    def peer():
        yield P.WaitFlag(flag, 1)
        yield from node.xpmem.attach(private)
        yield P.Copy(src=private.whole(), dst=dst.whole())

    node.engine.spawn(owner(), core=0, name="rank0")
    node.engine.spawn(peer(), core=1, name="rank1")
    node.engine.run()
    assert node.check_report.ok


def test_use_after_detach_is_flagged():
    node, s0, s1 = _two_rank_node()
    private = s0.alloc("priv", 128)
    dst = s1.alloc("dst", 128)
    flag = Flag("ready", owner_core=0)

    def owner():
        yield from node.xpmem.expose(private)
        yield P.SetFlag(flag, 1)

    def peer():
        yield P.WaitFlag(flag, 1)
        yield from node.xpmem.attach(private)
        yield P.Copy(src=private.whole(), dst=dst.whole())
        yield from node.xpmem.detach(private)
        yield P.Copy(src=private.whole(), dst=dst.whole())  # stale mapping

    node.engine.spawn(owner(), core=0, name="rank0")
    node.engine.spawn(peer(), core=1, name="rank1")
    node.engine.run()
    assert node.check_report.by_kind("xpmem")


def test_check_off_has_no_checker():
    node = Node(small_topo(), options=RunOptions(data_movement=False))
    assert node.engine.checker is None
    assert node.check_report.ok


def test_unknown_check_mode_rejected():
    from repro.errors import SimulationError
    with pytest.raises(SimulationError, match="check mode"):
        Node(small_topo(),
             options=RunOptions(data_movement=False, check="everything"))


def test_findings_carry_span_context():
    """With observe on, findings name the enclosing span."""
    node = Node(small_topo(),
                options=RunOptions(data_movement=False, observe="spans",
                                   check="race"))
    s0 = node.new_address_space(rank=0, core=0)
    s1 = node.new_address_space(rank=1, core=1)
    shared = s0.alloc("pub", 64, shared=True)
    a = s0.alloc("a", 64)
    b = s1.alloc("b", 64)

    def w(src, name, rank):
        with node.obs.span(name, rank=rank):
            yield P.Copy(src=src, dst=shared.whole())

    node.engine.spawn(w(a.whole(), "phase.write", 0), core=0, name="rank0")
    node.engine.spawn(w(b.whole(), "phase.write", 1), core=1, name="rank1")
    node.engine.run()
    races = node.check_report.by_kind("race")
    assert races and races[0].span == "phase.write(rank=1)"
