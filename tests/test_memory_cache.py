"""Cache residency model: high-water prefixes, invalidation, eviction."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.cache import CacheKind, CacheLevel, CacheSystem
from repro.memory.model import model_for
from repro.node import Node
from repro.options import RunOptions
from repro.topology import get_system

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
    sys_, topo = make_system()
    lvl = sys_.private[0]
    buf = alloc_buf(sys_, 4 * lvl.capacity)
    sys_.record_read(0, buf, buf.size)
    # Head of the buffer fell out of the window:
    assert lvl.hit_bytes(buf, 0, 4096) == 0
    # Tail is still present:
    assert lvl.hit_bytes(buf, buf.size - 4096, 4096) == 4096


def test_lru_eviction_under_pressure():
    sys_, topo = make_system()
    lvl = sys_.private[0]
    bufs = [alloc_buf(sys_, lvl.capacity // 2) for _ in range(4)]
    for b in bufs:
        sys_.record_read(0, b, b.size)
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
    """Property: accounting invariant under arbitrary read sequences."""
    sys_, topo = make_system()
    lvl = sys_.private[0]
    bufs = [alloc_buf(sys_, 1 << 18) for _ in range(4)]
    for idx, upto in ops:
        sys_.record_read(0, bufs[idx], upto)
        assert 0 <= lvl.used
        assert lvl.used <= lvl.capacity or len(list(lvl.buffers())) == 1


# -- the one-call commit against the read-then-write records ---------------


class _RefLevel(CacheLevel):
    """A cache level whose ``insert``, ``invalidate`` and ``_evict`` are
    as they were before a transfer was committed in one call, verbatim."""

    __slots__ = ()

    def insert(self, buf: "Buffer", upto: int, system: "CacheSystem") -> None:  # hot-path
        """Record that the buffer's prefix now reaches ``upto`` here."""
        if upto <= 0:
            return
        hw = self._hw
        buf_id = buf.id
        old = hw.pop(buf_id, 0)
        new = old if old >= upto else upto
        size = buf.size
        if new > size:
            new = size
        hw[buf_id] = new
        if new == old:
            # High water unchanged: the pop+reinsert above was a pure LRU
            # touch. Totals, the holders directory and eviction pressure
            # are all exactly as before, so skip them.
            return
        cap = self.capacity
        self._total += ((new if new < cap else cap)
                        - (old if old < cap else cap))
        holders = system._holders.get(buf_id)
        if holders is None:
            system._holders[buf_id] = {self.id: self}  # lint: disable=RC106
        else:
            holders[self.id] = self
        if self._total > cap:
            self._evict(system, keep=buf_id)

    def invalidate(self, buf: "Buffer", system: "CacheSystem") -> None:
        old = self._hw.pop(buf.id, None)
        if old is not None:
            self._total -= min(old, self.capacity)
            holders = system._holders.get(buf.id)
            if holders is not None:
                holders.pop(self.id, None)

    def _evict(self, system: "CacheSystem", keep: int) -> None:
        while self._total > self.capacity and len(self._hw) > 1:
            victim_id = next(iter(self._hw))
            if victim_id == keep:
                self._hw[victim_id] = self._hw.pop(victim_id)  # re-queue
                victim_id = next(iter(self._hw))
                if victim_id == keep:  # pragma: no cover - single entry
                    return
            victim_hw = self._hw.pop(victim_id)
            self._total -= min(victim_hw, self.capacity)
            holders = system._holders.get(victim_id)
            if holders is not None:
                holders.pop(self.id, None)


class _RefSystem(CacheSystem):
    """``record_read`` and ``record_write`` as they were before the
    one-call commit, verbatim, over :class:`_RefLevel` levels."""

    def __init__(self, topo, model) -> None:
        super().__init__(topo, model)
        for level in self._all_levels():
            level.__class__ = _RefLevel

    def record_read(self, core: int, buf: "Buffer", upto: int) -> None:  # hot-path
        """A core consumed the buffer's prefix up to ``upto``.

        Equivalent to ``insert`` on the core's private then shared level,
        with both bodies inlined: this pair runs on every simulated copy
        completion, and the call/attribute overhead of two ``insert``
        frames is measurable there."""
        if upto <= 0:
            return
        buf_id = buf.id
        size = buf.size
        level = self.private[core]
        while True:  # private level, then the shared level if any
            hw = level._hw
            old = hw.pop(buf_id, 0)
            new = old if old >= upto else upto
            if new > size:
                new = size
            hw[buf_id] = new
            if new != old:  # else: pure LRU touch, bookkeeping unchanged
                cap = level.capacity
                level._total += ((new if new < cap else cap)
                                 - (old if old < cap else cap))
                holders = self._holders.get(buf_id)
                if holders is None:
                    self._holders[buf_id] = {level.id: level}  # lint: disable=RC106
                else:
                    holders[level.id] = level
                if level._total > cap:
                    level._evict(self, keep=buf_id)
            shared = self._shared_of_core[core]
            if shared is None or level is shared:
                return
            level = shared

    def record_write(self, core: int, buf: "Buffer", upto: int) -> None:  # hot-path
        """A core wrote the prefix up to ``upto``: peer copies invalidate."""
        writer_private = self.private[core]
        writer_shared = self._shared_of_core[core]
        holders = self._holders.get(buf.id)
        if holders:
            stale = None
            for level in holders.values():
                if level is not writer_private and level is not writer_shared:
                    if stale is None:
                        stale = [level]  # lint: disable=RC106
                    else:
                        stale.append(level)
            if stale is not None:
                for level in stale:
                    level.invalidate(buf, self)
        writer_private.insert(buf, upto, self)
        if writer_shared is not None:
            writer_shared.insert(buf, upto, self)


def _residency(system: CacheSystem) -> tuple:
    """Every level's ``_hw`` items in LRU order and ``_total``, and every
    ``_holders`` entry in insertion order, with each holder named by its
    level's position (the two systems' level ids differ)."""
    levels = list(system._all_levels())
    pos = {level.id: i for i, level in enumerate(levels)}
    held = []
    for buf_id, holders in system._holders.items():
        assert all(level.id == lid for lid, level in holders.items())
        held.append((buf_id, [pos[lid] for lid in holders]))
    return [(list(level._hw.items()), level._total) for level in levels], held


# Below the private L2, between the L2s and the Epyc LLC, between the LLC
# and the ARM SLC, and past the SLC: evictions at every level.
COMMIT_BUF_SIZES = (4096, 1 << 18, 1 << 20, 6 << 20, 12 << 20, 40 << 20)


@pytest.mark.parametrize("system", ("epyc-1p", "epyc-2p", "arm-n1"))
def test_one_call_commit_matches_reads_then_write(system):
    """Random copies and reduces through ``record_transfer``, and reads
    and writes through its one-span cases ``record_read`` and
    ``record_write``, leave a full machine's caches in exactly the state
    the reference's ``record_read`` per read, then ``record_write``,
    leaves: the same high waters in the same LRU order, totals and
    holders order. A few hot cores (across LLC groups and sockets) keep
    the levels under capacity pressure; a destination may also be one
    of the reads."""
    topo = get_system(system)
    model = model_for(topo)
    got = CacheSystem(topo, model)
    want = _RefSystem(topo, model)
    space = Node(topo, options=RunOptions(data_movement=False)) \
        .new_address_space(0, 0)
    bufs = [space.alloc(f"b{i}", size)
            for i, size in enumerate(COMMIT_BUF_SIZES)]
    rng = random.Random(f"commit:{system}")
    hot = rng.sample(range(topo.n_cores), 6)

    def span():
        buf = rng.choice(bufs)
        upto = rng.choice((0, buf.size + 64, rng.randint(1, buf.size),
                           buf.size * rng.randint(1, 16) // 16))
        return buf, upto

    for step in range(800):
        core = (rng.choice(hot) if rng.random() < 0.8
                else rng.randrange(topo.n_cores))
        kind = rng.choice(("copy", "reduce", "read", "write"))
        reads = [span() for _ in range({"copy": 1, "read": 1, "write": 0,
                                        "reduce": rng.randint(2, 4)}[kind])]
        for buf, upto in reads:
            want.record_read(core, buf, upto)
        if kind == "read":
            got.record_read(core, *reads[0])
        elif kind == "write":
            dst = span()
            want.record_write(core, *dst)
            got.record_write(core, *dst)
        else:
            dst = span()
            want.record_write(core, *dst)
            got.record_transfer(core, reads + [dst])
        if step % 25 == 24:
            assert _residency(got) == _residency(want), (system, step)
    assert _residency(got) == _residency(want)
    assert any(level._hw for level in got._all_levels())
