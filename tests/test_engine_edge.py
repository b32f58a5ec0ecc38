"""Engine edge cases and less-traveled primitive paths."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.mpi import FLOAT, SUM
from repro.node import Node
from repro.options import RunOptions
from repro.sim import primitives as P
from repro.sim.syncobj import Atomic, Flag, Line

from conftest import small_topo


def fresh():
    return Node(small_topo())


def test_waits_take_no_comparison_and_sync_objects_no_reset():
    """Flags and atomics carry monotonic counters: a wait is only ever
    ``value >= threshold``, and nothing resets a flag or an atomic."""
    flag = Flag("f", owner_core=0)
    atom = Atomic("a", home_core=0)
    with pytest.raises(TypeError):
        P.WaitFlag(flag, 2, cmp="==")
    with pytest.raises(TypeError):
        P.WaitAtomic(atom, 2, cmp=">=")
    assert not hasattr(flag, "reset") and not hasattr(atom, "reset")


@pytest.mark.parametrize("engine", ["event", "array"])
def test_run_takes_no_bound(engine):
    """A run drains the queue; there is no bounded form."""
    node = Node(small_topo(), options=RunOptions(engine=engine))

    def prog():
        yield P.Compute(10e-6)

    node.engine.spawn(prog(), core=0)
    with pytest.raises(TypeError):
        node.engine.run(until=5e-6)
    assert node.engine.run() == pytest.approx(10e-6)
    assert not node.engine.alive()


def test_engine_not_reentrant():
    node = fresh()

    def prog():
        yield P.Compute(1e-9)
        node.engine.run()  # illegal: called from inside the loop

    node.engine.spawn(prog(), core=0)
    with pytest.raises(SimulationError, match="reentrant"):
        node.engine.run()


def test_spawn_during_run():
    node = fresh()
    order = []

    def child():
        yield P.Compute(1e-6)
        order.append("child")

    def parent():
        yield P.Compute(1e-6)
        node.engine.spawn(child(), core=1)
        yield P.Compute(5e-6)
        order.append("parent")

    node.engine.spawn(parent(), core=0)
    node.engine.run()
    assert order == ["child", "parent"]


def test_same_time_events_run_in_fifo_order():
    """Events that share a time run in the order they were queued."""
    node = fresh()
    order = []

    def prog(name):
        yield P.Compute(10e-6)
        order.append(name)

    node.engine.spawn(prog("a"), core=0)
    node.engine.spawn(prog("b"), core=1)
    assert node.engine.run() == pytest.approx(10e-6)
    assert order == ["a", "b"]


def test_zero_byte_copy_is_free():
    node = fresh()
    sp = node.new_address_space(0, 0)
    a = sp.alloc("a", 64)
    b = sp.alloc("b", 64)

    def prog():
        yield P.Copy(src=a.view(0, 0), dst=b.view(0, 0))
    node.engine.spawn(prog(), core=0)
    assert node.engine.run() == 0.0


def test_set_flag_group_single_writer_enforced():
    node = fresh()
    mine = Flag("mine", owner_core=0)
    theirs = Flag("theirs", owner_core=3)

    def prog():
        yield P.SetFlagGroup((mine, theirs), 1)
    node.engine.spawn(prog(), core=0)
    with pytest.raises(SimulationError, match="single-writer"):
        node.engine.run()


def test_set_flag_group_wakes_all():
    node = fresh()
    flags = [Flag(f"f{i}", owner_core=0, line=None) for i in range(3)]
    woke = []

    def reader(i):
        yield P.WaitFlag(flags[i], 1)
        woke.append(i)

    def writer():
        yield P.Compute(10e-6)
        yield P.SetFlagGroup(tuple(flags), 1)

    for i in range(3):
        node.engine.spawn(reader(i), core=i + 1)
    node.engine.spawn(writer(), core=0)
    node.engine.run()
    assert sorted(woke) == [0, 1, 2]


def test_reduce_accumulate_data_plane():
    node = fresh()
    sp = node.new_address_space(0, 0)
    a = sp.alloc("a", 64)
    dst = sp.alloc("dst", 64)
    a.view().as_dtype(np.float32)[:] = 3.0
    dst.view().as_dtype(np.float32)[:] = 10.0

    def prog():
        yield P.Reduce(srcs=(a.whole(),), dst=dst.whole(), op=SUM,
                       dtype=FLOAT, accumulate=True)
    node.engine.spawn(prog(), core=0)
    node.engine.run()
    assert np.all(dst.view().as_dtype(np.float32) == 13.0)


def test_reduce_empty_sources_is_noop():
    node = fresh()
    sp = node.new_address_space(0, 0)
    dst = sp.alloc("dst", 64)

    def prog():
        yield P.Reduce(srcs=(), dst=dst.whole())
    node.engine.spawn(prog(), core=0)
    assert node.engine.run() == 0.0


def test_atomic_line_sharing_with_flag():
    """An atomic and a flag may share a line; coherence state is common."""
    line = Line(owner_core=0)
    flag = Flag("f", owner_core=0, line=line)
    atom = Atomic("a", home_core=0, line=line)
    assert flag.line is atom.line


def test_shared_line_write_invalidates_sibling_readers():
    """Writing one flag of a shared line evicts readers of all of them."""
    node = fresh()
    line = Line(owner_core=0)
    a, b = Flag("a", 0, line), Flag("b", 0, line)
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


def test_negative_compute_rejected():
    node = fresh()

    def prog():
        yield P.Compute(-1.0)
    node.engine.spawn(prog(), core=0)
    with pytest.raises(SimulationError, match="negative"):
        node.engine.run()
