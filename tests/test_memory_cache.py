"""Cache residency model: high-water prefixes, invalidation, eviction."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.cache import CacheKind, CacheLevel, CacheSystem
from repro.memory.model import model_for
from repro.node import Node
from repro.options import RunOptions

from conftest import small_topo


def make_system():
    topo = small_topo()
    return CacheSystem(topo, model_for(topo)), topo


def alloc_buf(node_or_sys, size, rank=0, core=0):
    node = Node(small_topo(), options=RunOptions(data_movement=False))
    return node.new_address_space(rank, core).alloc("b", size)


def test_read_inserts_into_private_and_shared():
    sys_, topo = make_system()
    buf = alloc_buf(sys_, 4096)
    sys_.record_read(0, buf, 4096)
    assert sys_.private[0].high_water(buf) == 4096
    shared = sys_.shared_cache_of(0)
    assert shared.high_water(buf) == 4096
    assert shared in sys_.holders_of(buf)


def test_write_invalidates_other_holders():
    sys_, topo = make_system()
    buf = alloc_buf(sys_, 4096)
    sys_.record_read(0, buf, 4096)
    sys_.record_read(5, buf, 4096)
    sys_.record_write(9, buf, 4096)
    assert sys_.private[0].high_water(buf) == 0
    assert sys_.private[5].high_water(buf) == 0
    assert sys_.private[9].high_water(buf) == 4096


def test_hit_bytes_prefix_semantics():
    """A consumer behind a producer hits; a reader ahead of it misses."""
    sys_, topo = make_system()
    buf = alloc_buf(sys_, 1 << 20)
    sys_.record_write(0, buf, 64 * 1024)  # producer wrote 64K so far
    lvl = sys_.private[0]
    assert lvl.hit_bytes(buf, 0, 16384) == 16384          # behind: hit
    assert lvl.hit_bytes(buf, 60 * 1024, 8192) == 4096     # straddling
    assert lvl.hit_bytes(buf, 128 * 1024, 16384) == 0      # ahead: miss


def test_trailing_window_of_oversized_buffer():
    """Scanning past capacity keeps only the tail resident (LRU thrash)."""
    topo = small_topo()
    model = model_for(topo)
    lvl = CacheLevel(CacheKind.PRIVATE, model.l2_size, [0])
    sys_, _ = make_system()
    buf = alloc_buf(sys_, 4 * model.l2_size)
    lvl.insert(buf, buf.size, sys_)
    # Head of the buffer fell out of the window:
    assert lvl.hit_bytes(buf, 0, 4096) == 0
    # Tail is still present:
    assert lvl.hit_bytes(buf, buf.size - 4096, 4096) == 4096


def test_lru_eviction_under_pressure():
    sys_, topo = make_system()
    lvl = sys_.private[0]
    bufs = [alloc_buf(sys_, lvl.capacity // 2) for _ in range(4)]
    for b in bufs:
        lvl.insert(b, b.size, sys_)
    # Capacity holds ~2 of them; the oldest must be gone.
    assert lvl.high_water(bufs[0]) == 0
    assert lvl.high_water(bufs[-1]) == bufs[-1].size
    assert lvl.used <= lvl.capacity


def test_drop_removes_everywhere():
    sys_, topo = make_system()
    buf = alloc_buf(sys_, 4096)
    sys_.record_read(0, buf, 4096)
    sys_.record_read(12, buf, 4096)
    sys_.drop(buf)
    assert not sys_.holders_of(buf)


def test_flush_all():
    sys_, topo = make_system()
    buf = alloc_buf(sys_, 4096)
    sys_.record_read(3, buf, 4096)
    sys_.flush_all()
    assert sys_.private[3].high_water(buf) == 0
    assert sys_.private[3].used == 0


def test_shared_cache_assignment_llc_vs_slc():
    from repro.topology import get_system
    epyc = get_system("epyc-1p")
    cs = CacheSystem(epyc, model_for(epyc))
    assert cs.shared_cache_of(0).kind is CacheKind.GROUP
    arm = get_system("arm-n1")
    cs_arm = CacheSystem(arm, model_for(arm))
    assert cs_arm.shared_cache_of(0).kind is CacheKind.SLC
    # Whole socket shares one SLC.
    assert cs_arm.shared_cache_of(0) is cs_arm.shared_cache_of(79)
    assert cs_arm.shared_cache_of(0) is not cs_arm.shared_cache_of(80)


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(
    st.tuples(st.integers(0, 3), st.integers(1, 1 << 16)), min_size=1,
    max_size=20))
def test_total_never_exceeds_capacity(ops):
    """Property: accounting invariant under arbitrary insert sequences."""
    sys_, topo = make_system()
    lvl = sys_.private[0]
    bufs = [alloc_buf(sys_, 1 << 18) for _ in range(4)]
    for idx, upto in ops:
        lvl.insert(bufs[idx], upto, sys_)
        assert 0 <= lvl.used
        assert lvl.used <= lvl.capacity or len(list(lvl.buffers())) == 1
