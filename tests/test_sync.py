"""Synchronization substrate: flag placement, barriers, atomics allocator."""

import pytest

from repro.errors import DeadlockError
from repro.node import Node
from repro.options import RunOptions
from repro.sim import primitives as P
from repro.sync import AtomicAllocator, FlagAllocator, flat_barrier, rmb, wmb
from repro.sync.barriers import FlatBarrierState

from conftest import small_topo


def test_flag_group_shared_line():
    alloc = FlagAllocator("t.")
    flags = alloc.flag_group(["a", "b", "c"], owner_core=0,
                             placement="shared")
    assert len({f.line.id for f in flags}) == 1
    assert all(f.owner_core == 0 for f in flags)
    assert flags[0].name.startswith("t.")


def test_flag_group_separate_lines():
    alloc = FlagAllocator()
    flags = alloc.flag_group(["a", "b", "c"], owner_core=0,
                             placement="separate")
    assert len({f.line.id for f in flags}) == 3


def test_unknown_placement():
    with pytest.raises(ValueError):
        FlagAllocator().flag_group(["a"], 0, placement="diagonal")


def test_shared_line_write_invalidates_sibling_readers():
    """Writing one flag of a shared line evicts readers of all of them."""
    node = Node(small_topo(), options=RunOptions(data_movement=False))
    a, b = FlagAllocator().flag_group(["a", "b"], owner_core=0,
                                      placement="shared")
    done = []
    def reader():
        yield P.WaitFlag(a, 1)
        # b shares the line: reading it now is a fresh fetch either way,
        # but the line state must be coherent.
        yield P.WaitFlag(b, 0)
        done.append(node.engine.now)
    def writer():
        yield P.Compute(1e-6)
        yield P.SetFlag(a, 1)
    node.engine.spawn(reader(), core=5)
    node.engine.spawn(writer(), core=0)
    node.engine.run()
    assert done and 5 in a.line.holders


def test_memory_barriers_are_cheap_compute():
    assert isinstance(wmb(), P.Compute)
    assert rmb().seconds < 1e-7


def test_flat_barrier_synchronizes():
    node = Node(small_topo(), options=RunOptions(data_movement=False))
    cores = list(range(6))
    state = FlatBarrierState(cores)
    after = {}
    def prog(i):
        yield P.Compute((i + 1) * 1e-6)  # staggered arrivals
        yield from flat_barrier(state, i, episode=0)
        after[i] = node.engine.now
    for i in cores:
        node.engine.spawn(prog(i), core=i)
    node.engine.run()
    # Nobody leaves before the last arrival (6us).
    assert min(after.values()) >= 6e-6


def test_flat_barrier_multiple_episodes():
    node = Node(small_topo(), options=RunOptions(data_movement=False))
    cores = [0, 1, 2]
    state = FlatBarrierState(cores)
    def prog(i):
        for ep in range(3):
            yield from flat_barrier(state, i, episode=ep)
    for i in cores:
        node.engine.spawn(prog(i), core=i)
    node.engine.run()  # no deadlock


def test_atomic_allocator_namespacing():
    atom = AtomicAllocator("ns.").atomic("ctr", home_core=2)
    assert atom.name == "ns.ctr"
    assert atom.line.owner_core == 2
