"""Property/fuzz tests across subsystem boundaries."""

from typing import Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.memory.cache import CacheKind, CacheLevel
from repro.mpi import FLOAT, SUM, World
from repro.mpi.colls import Tuned
from repro.node import Node
from repro.options import RunOptions
from repro.sim import primitives as P
from repro.topology import Distance, classify_distance, get_system
from repro.xhc import Xhc

from conftest import small_topo

FUZZ = settings(max_examples=15, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(sizes=st.lists(st.integers(1, 120_000), min_size=1, max_size=6),
       data=st.data())
def test_p2p_random_message_streams(sizes, data):
    """Random sizes across the eager/rendezvous boundary, multiple tags."""
    node = Node(small_topo())
    world = World(node, 2)
    comm = world.communicator(Tuned())
    tags = [data.draw(st.integers(0, 2)) for _ in sizes]
    received = []

    def program(comm_, ctx):
        me = comm_.rank_of(ctx)
        for i, (size, tag) in enumerate(zip(sizes, tags)):
            buf = ctx.alloc(f"b{i}", size)
            if me == 0:
                buf.data[:] = (i * 37 + 11) % 251
                yield from comm_.send(ctx, buf.whole(), 1, tag)
            else:
                yield from comm_.recv(ctx, buf.whole(), 0, tag)
                received.append(int(buf.data[0]))
    comm.run(program)
    assert received == [(i * 37 + 11) % 251 for i in range(len(sizes))]


@FUZZ
@given(
    writes=st.lists(
        st.tuples(st.integers(0, 15),            # writer core
                  st.integers(1, 1 << 18)),      # prefix extent
        min_size=1, max_size=12),
)
def test_cache_directory_consistency(writes):
    """After arbitrary read/write traffic, the holders directory agrees
    with per-cache contents and totals never exceed capacity."""
    node = Node(small_topo(), options=RunOptions(data_movement=False))
    sp = node.new_address_space(0, 0)
    bufs = [sp.alloc(f"b{i}", 1 << 18) for i in range(3)]
    caches = node.caches
    for i, (core, upto) in enumerate(writes):
        buf = bufs[i % 3]
        if i % 2:
            caches.record_write(core, buf, upto)
        else:
            caches.record_read(core, buf, upto)
    for buf in bufs:
        for level in caches.holders_of(buf):
            assert level.high_water(buf) > 0
    for level in caches._all_levels():
        assert 0 <= level.used
        for buf in bufs:
            if level.high_water(buf) > 0:
                assert level in caches.holders_of(buf)


class _ReferenceSelection:
    """Source selection as it was before the single-walk rewrite, kept
    verbatim as the differential test's reference: ``self`` offers the
    node's caches and distances straight from ``classify_distance``."""

    def __init__(self, node: Node) -> None:
        self.caches = node.caches
        self.topo = node.topo

    def distance(self, core_a: int, core_b: int) -> Distance:
        return classify_distance(self.topo, core_a, core_b)

    def _cache_source_span(
        self, core: int, buf, off: int, length: int
    ) -> tuple[Optional[CacheLevel], int]:
        private = self.caches.private[core]
        best: Optional[CacheLevel] = None
        best_dist: Optional[Distance] = None
        best_hit = 0
        hit = private.hit_bytes(buf, off, length)
        if hit > 0:
            best, best_dist, best_hit = private, Distance.SELF, hit
        for level in self.caches.holders_of(buf):
            if level is private:
                continue
            hit = level.hit_bytes(buf, off, length)
            if hit <= 0:
                continue
            if core in level.home_cores:
                dist = (Distance.SELF if level.kind is CacheKind.PRIVATE
                        else Distance.CACHE_LOCAL)
            else:
                dist = self.distance(core, level.home_cores[0])
            better = (
                best is None
                or hit > best_hit
                or (hit == best_hit and dist < best_dist)
            )
            # Prefer the nearest source unless a farther one covers more.
            if best is not None and dist > best_dist and hit <= best_hit:
                better = False
            if better:
                best, best_dist, best_hit = level, dist, hit
                if best_hit >= length and best_dist <= Distance.CACHE_LOCAL:
                    # A full-coverage local source cannot be beaten.
                    break
        return best, best_hit


def _assert_same_source(node: Node, buf, off: int, length: int) -> None:
    ref = _ReferenceSelection(node)
    for core in range(node.topo.n_cores):
        want = ref._cache_source_span(core, buf, off, length)
        got = node._cache_source_span(core, buf, off, length)
        assert got[0] is want[0] and got[1] == want[1], (
            f"core {core}, {buf.name}[{off}:+{length}]: {got} != {want}")


# The full machines: multi-LLC groups (Epyc), socket-level caches (ARM).
FULL_SYSTEMS = {name: get_system(name)
                for name in ("epyc-1p", "epyc-2p", "arm-n1")}
# Below the private L2, between L2 and the Epyc LLC, between the LLC
# and the ARM SLC, and past the SLC: trailing windows at every level.
SOURCE_BUF_SIZES = (1 << 18, 1 << 21, 12 << 20, 48 << 20)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(system=st.sampled_from(sorted(FULL_SYSTEMS)), data=st.data())
def test_source_selection_matches_reference(system, data):
    """After random read/write traffic, every core selects the same
    ``(level, hit_bytes)`` source as the reference algorithm. Prefix
    marks and spans sit on a sixteenth-of-buffer grid, so many holders
    end at the same high water: equal-hit ties and full-coverage spans
    are the common case, not the corner."""
    topo = FULL_SYSTEMS[system]
    node = Node(topo, options=RunOptions(data_movement=False))
    sp = node.new_address_space(0, 0)
    bufs = [sp.alloc(f"b{i}", size)
            for i, size in enumerate(SOURCE_BUF_SIZES)]
    core = st.integers(0, topo.n_cores - 1)
    which = st.integers(0, len(bufs) - 1)
    traffic = data.draw(st.lists(
        st.tuples(st.booleans(), core, which, st.integers(1, 16)),
        min_size=1, max_size=24))
    for write, c, b, marks in traffic:
        buf = bufs[b]
        record = node.caches.record_write if write else \
            node.caches.record_read
        record(c, buf, buf.size * marks // 16)
    spans = data.draw(st.lists(
        st.tuples(which, st.integers(0, 15), st.integers(1, 16)),
        min_size=1, max_size=6))
    for b, start, marks in spans:
        buf = bufs[b]
        off = buf.size * start // 16
        length = min(buf.size * marks // 16, buf.size - off)
        _assert_same_source(node, buf, off, length)


def test_source_selection_ties_and_private_first():
    """Equal hits go to the nearest holder, then to the first in
    directory order; a same-LLC holder covering the span ends the walk;
    a full private hit wins over a same-LLC group listed before it."""
    topo = FULL_SYSTEMS["epyc-2p"]
    node = Node(topo, options=RunOptions(data_movement=False))
    caches = node.caches
    buf = node.new_address_space(0, 0).alloc("t", 64 * 1024)
    q = 0

    def peer(dist, skip=()):
        return next(c for c in range(topo.n_cores)
                    if node.distance(q, c) is dist and c not in skip)

    far = peer(Distance.CROSS_NUMA)
    far_llc = set(topo.llc_of_core(far).cores())
    far2 = peer(Distance.CROSS_NUMA,
                skip={c.index for c in far_llc})
    near = peer(Distance.INTRA_NUMA)
    mate = peer(Distance.CACHE_LOCAL)

    def source():
        _assert_same_source(node, buf, 0, buf.size)
        return node._cache_source_span(q, buf, 0, buf.size)

    assert source() == (None, 0)
    caches.record_read(far, buf, buf.size)
    caches.record_read(far2, buf, buf.size)
    assert source() == (caches.private[far], buf.size)    # first of ties
    caches.record_read(near, buf, buf.size)
    assert source() == (caches.private[near], buf.size)   # nearest
    caches.record_read(mate, buf, buf.size)
    assert source() == (caches.private[mate], buf.size)   # ends the walk
    caches.record_read(q, buf, buf.size)
    holders = list(caches.holders_of(buf))
    assert holders.index(caches.shared_cache_of(q)) < \
        holders.index(caches.private[q])
    assert source() == (caches.private[q], buf.size)      # private first
    # A partial private hit loses to a remote holder covering more.
    caches.record_write(far, buf, buf.size)
    caches.record_read(q, buf, buf.size // 2)
    assert source() == (caches.private[far], buf.size)


@FUZZ
@given(nranks=st.integers(2, 16),
       size=st.integers(4, 50_000).map(lambda v: v - v % 4),
       chunk=st.sampled_from([512, 4096, 16384]),
       threshold=st.sampled_from([0, 256, 8192]),
       ring=st.sampled_from([2, 4]))
def test_xhc_config_space_correctness(nranks, size, chunk, threshold, ring):
    """Any point in XHC's configuration space gives correct allreduce."""
    size = max(size, 4)
    node = Node(small_topo())
    world = World(node, nranks)
    comm = world.communicator(Xhc(chunk_size=chunk,
                                  cico_threshold=threshold,
                                  cico_ring=ring))

    def program(comm_, ctx):
        me = comm_.rank_of(ctx)
        s = ctx.alloc("s", size)
        r = ctx.alloc("r", size)
        s.view().as_dtype(np.float32)[:] = me + 1
        yield from comm_.allreduce(ctx, s.whole(), r.whole(), SUM, FLOAT)
        assert np.all(r.view().as_dtype(np.float32)
                      == sum(range(1, nranks + 1)))
    comm.run(program)


@FUZZ
@given(delays=st.lists(st.integers(0, 200), min_size=4, max_size=4))
def test_barrier_under_arbitrary_skew(delays):
    """No arrival pattern lets a rank escape a barrier early."""
    node = Node(small_topo(), options=RunOptions(data_movement=False))
    world = World(node, 4)
    comm = world.communicator(Xhc())
    after = {}

    def program(comm_, ctx):
        me = comm_.rank_of(ctx)
        yield P.Compute(delays[me] * 1e-6 + 1e-9)
        yield from comm_.barrier(ctx)
        after[me] = ctx.now
    comm.run(program)
    slowest_arrival = max(delays) * 1e-6
    assert min(after.values()) >= slowest_arrival
