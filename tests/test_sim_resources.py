"""Bandwidth resources and contention accounting."""

import heapq
import random

import pytest

from repro.errors import SimulationError
from repro.memory.model import model_for
from repro.node import Node
from repro.options import RunOptions
from repro.sim import primitives as P
from repro.sim.resources import Occupancy, Resource, ResourcePool
from repro.sim.syncobj import Line
from repro.topology import get_system
from repro.topology.distance import Distance

from conftest import small_topo


def test_acquire_release():
    res = Resource("r", 1e9)
    res.acquire(); res.acquire()
    assert res.active == 2
    res.release()
    assert res.active == 1
    res.release()
    with pytest.raises(SimulationError):
        res.release()


def test_zero_bandwidth_rejected():
    with pytest.raises(SimulationError):
        Resource("bad", 0)


def test_pool_structure_epyc():
    topo = get_system("epyc-2p")
    pool = ResourcePool(topo, model_for(topo))
    assert len(pool.dram) == 8
    assert len(pool.llc_port) == 16
    assert len(pool.fabric) == 2
    assert not pool.slc
    assert pool.xlink.bw > 0


def test_pool_structure_arm():
    topo = get_system("arm-n1")
    pool = ResourcePool(topo, model_for(topo))
    assert not pool.llc_port
    assert len(pool.slc) == 2
    assert len(pool.dram) == 8


def test_contention_slows_concurrent_readers():
    """Many readers of one source take longer per-reader than one reader."""
    def read_time(n_readers):
        node = Node(small_topo(), options=RunOptions(data_movement=False))
        src_space = node.new_address_space(0, 0)
        src = src_space.alloc("src", 1 << 20)
        times = {}
        def prog(r):
            sp = node.new_address_space(r, r)
            dst = sp.alloc("dst", 1 << 20)
            t0 = node.engine.now
            yield P.Copy(src=src.whole(), dst=dst.whole())
            times[r] = node.engine.now - t0
        for r in range(1, n_readers + 1):
            node.engine.spawn(prog(r), core=r)
        node.engine.run()
        return max(times.values())
    assert read_time(8) > read_time(1) * 1.5


# -- array-mode occupancy: differential tests against the linear scans ----
#
# The two references below are the accounting the occupancy index and the
# start-ordered line port replaced, kept verbatim but for the resource
# scan's peak-concurrency counter, which nothing read: a heap of (end,
# start) windows expired by the dispatch epoch and scanned in full per
# sample, and a home-core port whose bookings are sorted again on every
# fetch.


class _ScanResource:
    """``Resource.arr_book``/``arr_sample`` as a linear scan (the kernel
    pool's copy was the same scan)."""

    def __init__(self):
        self.arr_ivals = []

    def arr_book(self, start, end):
        heapq.heappush(self.arr_ivals, (end, start))

    def arr_sample(self, t, epoch):
        ivals = self.arr_ivals
        while ivals and ivals[0][0] <= epoch:
            heapq.heappop(ivals)
        n = 0
        for end, start in ivals:
            if start <= t < end:
                n += 1
        return n


def _sorted_walk_line_read(node, ports, core, line, t, epoch):
    """``Node.arr_line_read`` with the per-fetch sort (verbatim;
    ``ports`` stands in for ``node._arr_port``)."""
    model = node.model
    if core in line.holders:
        return t + model.poll_delay
    llc_index = node._llc_index[core]
    if llc_index is not None and llc_index in line.shared_holders:
        line.holders.add(core)
        return t + model.lat[Distance.CACHE_LOCAL]
    owner = line.owner_core
    ivals = ports.get(owner)
    if ivals is None:
        ivals = ports[owner] = []
    while ivals and ivals[0][0] <= epoch:
        heapq.heappop(ivals)
    start = t
    if len(ivals) == 1:
        e0, s0 = ivals[0]
        if s0 <= start < e0:
            start = e0
    elif ivals:
        for s, e in sorted((s, e) for e, s in ivals):
            if s <= start < e:
                start = e
    heapq.heappush(ivals, (start + model.line_occupancy, start))
    line.holders.add(core)
    if llc_index is not None:
        line.shared_holders.add(llc_index)
    return start + model.lat[node.distance(core, owner)]


def _occupancy_ops(rng, n_ops):
    """A random book/sample/advance sequence on a quarter-unit time grid
    (exact in binary floating point, so ties really happen): zero-length
    windows, windows straddling or behind the epoch, samples exactly at
    the epoch and at booked starts and ends, and epoch moves past
    windows still in flight."""
    epoch = 0.0
    seen = [0.0]
    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.45:
            start = epoch + 0.25 * rng.randint(-4, 24)
            end = start + 0.25 * rng.choice((0, 0, 1, 2, 3, 8, 20))
            seen += (start, end)
            yield "book", start, end
        elif roll < 0.55:
            epoch += 0.25 * rng.choice((0, 1, 2, 5, 12))
            yield "epoch", epoch, None
        else:
            pick = rng.random()
            if pick < 0.25:
                t = epoch
            elif pick < 0.7:
                t = max(epoch, rng.choice(seen))
            else:
                t = epoch + 0.25 * rng.randint(0, 40)
            yield "sample", t, epoch


@pytest.mark.parametrize("seed", range(6))
def test_occupancy_matches_linear_scan(seed):
    rng = random.Random(seed)
    topo = get_system("epyc-2p")
    pool = ResourcePool(topo, model_for(topo))
    res = pool.dram[0]
    kernel = pool.kernel_occupancy
    ref_res, ref_kernel = _ScanResource(), _ScanResource()
    samples = busy = 0
    for kind, a, b in _occupancy_ops(rng, 3000):
        if kind == "book":
            res.arr_book(a, b)
            ref_res.arr_book(a, b)
            kernel.arr_book(a, b)
            ref_kernel.arr_book(a, b)
        elif kind == "sample":
            want = ref_res.arr_sample(a, b)
            assert res.arr_sample(a, b) == want
            assert kernel.arr_sample(a, b) == ref_kernel.arr_sample(a, b)
            samples += 1
            busy += want > 1
    assert samples > 1000
    assert busy, "the stream must overlap windows"


def test_occupancy_counts_zero_length_and_boundaries():
    occ = Occupancy()
    occ.arr_book(1.0, 1.0)          # zero length: never occupied
    occ.arr_book(1.0, 2.0)
    occ.arr_book(2.0, 3.0)
    assert [occ.arr_sample(t, 0.0) for t in (0.5, 1.0, 1.5, 2.0, 3.0)] \
        == [0, 1, 1, 1, 0]
    # The epoch moves past [2, 3) while it is in flight.
    assert occ.arr_sample(2.5, 2.5) == 1


def test_occupancy_sample_before_epoch_raises():
    occ = Occupancy()
    occ.arr_book(0.0, 4.0)
    assert occ.arr_sample(2.0, 2.0) == 1
    with pytest.raises(SimulationError):
        occ.arr_sample(1.0, 0.5)
    res = Resource("r", 1e9)
    with pytest.raises(SimulationError):
        res.arr_sample(1.0, 2.0)


@pytest.mark.parametrize("system", ("arm-n1", "epyc-1p"))
@pytest.mark.parametrize("seed", range(4))
def test_arr_line_read_matches_sorted_walk(system, seed):
    """Random fetch sequences homed at one core: the start-ordered port
    returns the sorted walk's times exactly, hits and LLC-shared reads
    included."""
    rng = random.Random(seed)
    node = Node(get_system(system), options=RunOptions(data_movement=False))
    occ = node.model.line_occupancy
    home = 0
    readers = list(range(1, 24))
    lines = [Line(home) for _ in range(4)]
    ref_lines = [Line(home) for _ in range(4)]
    ref_ports = {}
    epoch = 0.0
    ends = [0.0]
    queued = 0
    for _ in range(2500):
        roll = rng.random()
        if roll < 0.08:
            epoch += occ * rng.choice((0.5, 1, 3, 10))
            continue
        k = rng.randrange(len(lines))
        if roll < 0.16:
            # The home core rewrites the line: every copy is invalidated.
            lines[k].on_write(home)
            ref_lines[k].on_write(home)
            continue
        pick = rng.random()
        if pick < 0.2:
            t = epoch
        elif pick < 0.5:
            t = max(epoch, rng.choice(ends))
        else:
            t = epoch + occ * 0.25 * rng.randint(0, 60)
        core = rng.choice(readers)
        got = node.arr_line_read(core, lines[k], t, epoch)
        want = _sorted_walk_line_read(node, ref_ports, core, ref_lines[k],
                                      t, epoch)
        assert got == want
        lat = node.model.lat[node.distance(core, home)]
        if got - lat > t:
            queued += 1
            ends.append(got - lat + occ)
    assert queued > 100
    starts, port_ends = node._arr_port[home]
    assert sorted(zip(starts, port_ends)) == sorted(
        (s, e) for e, s in ref_ports[home])
    assert starts == sorted(starts) and port_ends == sorted(port_ends)
