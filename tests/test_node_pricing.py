"""Node pricing rules: distance ordering, cache effects, flags, atomics."""

import pytest

from repro.node import Node
from repro.options import RunOptions
from repro.sim import primitives as P
from repro.sim.syncobj import Atomic, Flag, Line
from repro.topology import Distance, get_system

from conftest import small_topo


def copy_time(node, reader_core, src_buf, size=None):
    sp = node.new_address_space(99, reader_core)
    dst = sp.alloc("dst", size or src_buf.size)
    rec = {}
    def prog():
        t0 = node.engine.now
        yield P.Copy(src=src_buf.view(0, dst.size), dst=dst.whole())
        rec["t"] = node.engine.now - t0
    node.engine.spawn(prog(), core=reader_core)
    node.engine.run()
    return rec["t"]


def test_read_time_grows_with_distance():
    """The Fig. 1a ordering: local < cache-local < intra < cross < socket."""
    times = []
    for reader in (1, 2, 4, 8):  # cache-local .. cross-socket on mini topo
        node = Node(small_topo(), options=RunOptions(data_movement=False))
        src = node.new_address_space(0, 0).alloc("src", 1 << 20)
        times.append(copy_time(node, reader, src))
    assert times == sorted(times)
    assert times[-1] > times[0] * 1.5


def test_reread_hits_cache():
    node = Node(small_topo(), options=RunOptions(data_movement=False))
    src = node.new_address_space(0, 0).alloc("src", 1 << 16)
    first = copy_time(node, 2, src)
    second = copy_time(node, 2, src)
    assert second < first * 0.6


def test_write_invalidates_reader_cache():
    node = Node(small_topo(), options=RunOptions(data_movement=False))
    owner = node.new_address_space(0, 0)
    src = owner.alloc("src", 1 << 16)
    scratch = owner.alloc("scr", 1 << 16)
    copy_time(node, 2, src)
    # Owner rewrites the buffer...
    def rewrite():
        yield P.Copy(src=scratch.whole(), dst=src.whole())
    node.engine.spawn(rewrite(), core=0)
    node.engine.run()
    # ...so the re-read is expensive again.
    warm = copy_time(node, 2, src)
    node2 = Node(small_topo(), options=RunOptions(data_movement=False))
    src2 = node2.new_address_space(0, 0).alloc("src", 1 << 16)
    cold = copy_time(node2, 2, src2)
    assert warm == pytest.approx(cold, rel=0.3)


def test_line_read_llc_assist():
    """After one member of an LLC group fetches a flag line, its peers pay
    only a cache-local hit (SSV-D1's implicit hierarchy-in-hardware)."""
    node = Node(small_topo(), options=RunOptions(data_movement=False))
    line = Line(owner_core=0)
    # Core 2 (different LLC group than 0, same numa) fetches first.
    t1 = node.line_read(2, line, 0.0) - 0.0
    # Core 3 shares core 2's LLC group: assisted.
    t2 = node.line_read(3, line, 0.0) - 0.0
    assert t2 < t1
    assert t2 == pytest.approx(node.model.lat[Distance.CACHE_LOCAL])


def test_line_read_serializes_at_home():
    node = Node(get_system("arm-n1"), options=RunOptions(data_movement=False))
    line = Line(owner_core=0)
    finish = [node.line_read(core, line, 0.0) for core in range(20, 30)]
    # No shared LLC on ARM: each fetch queues at the home point.
    assert sorted(finish) == finish
    assert finish[-1] - finish[0] >= 9 * node.model.line_occupancy * 0.99


def test_holder_rereads_are_cheap():
    node = Node(small_topo(), options=RunOptions(data_movement=False))
    line = Line(owner_core=0)
    node.line_read(5, line, 0.0)
    t = node.line_read(5, line, 1.0) - 1.0
    assert t == pytest.approx(node.model.poll_delay)


def test_atomic_contention_inflates_cost():
    node = Node(small_topo(), options=RunOptions(data_movement=False))
    line = Line(owner_core=0)
    _, base = node.atomic_cost(1, line, 0.0)
    line.pending_rmw = 10
    _, contended = node.atomic_cost(2, line, 0.0)
    assert contended > base * 2


def test_syscall_kinds_and_kernel_lock():
    node = Node(small_topo(), options=RunOptions(data_movement=False))
    plain = node.syscall_cost("generic")
    assert node.syscall_cost("cma") == pytest.approx(plain)
    node.resources.kernel_ops = 8
    assert node.syscall_cost("cma") > plain
    assert node.syscall_cost("knem") > plain
    assert node.syscall_cost("cma") > node.syscall_cost("knem")
    with pytest.raises(Exception):
        node.syscall_cost("bogus")


def test_pages_of():
    assert Node.pages_of(1) == 1
    assert Node.pages_of(4096) == 1
    assert Node.pages_of(4097) == 2
