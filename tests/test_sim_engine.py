"""Engine semantics: scheduling, flags, atomics, determinism, deadlock."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.node import Node
from repro.options import RunOptions
from repro.sim import primitives as P
from repro.sim.syncobj import Atomic, Flag

from conftest import small_topo


def fresh_node():
    return Node(small_topo(), options=RunOptions(data_movement=True))


def test_compute_advances_time():
    node = fresh_node()
    def prog():
        yield P.Compute(1e-6)
        yield P.Compute(2e-6)
    node.engine.spawn(prog(), core=0)
    assert node.engine.run() == pytest.approx(3e-6)


def test_same_core_compute_serializes_across_processes():
    node = fresh_node()
    def prog():
        yield P.Compute(10e-6)
    node.engine.spawn(prog(), core=0)
    node.engine.spawn(prog(), core=0)
    assert node.engine.run() == pytest.approx(20e-6)


def test_tiny_ops_interleave_for_free():
    """Sub-microsecond work slips between booked slices (no queueing)."""
    node = fresh_node()
    def big():
        yield P.Compute(100e-6)
    def tiny():
        for _ in range(10):
            yield P.Compute(0.1e-6)
    node.engine.spawn(big(), core=0)
    node.engine.spawn(tiny(), core=0)
    assert node.engine.run() == pytest.approx(100e-6, rel=0.05)


def test_different_cores_run_in_parallel():
    node = fresh_node()
    def prog():
        yield P.Compute(1e-6)
    node.engine.spawn(prog(), core=0)
    node.engine.spawn(prog(), core=1)
    assert node.engine.run() == pytest.approx(1e-6)


def test_copy_moves_data():
    node = fresh_node()
    sp = node.new_address_space(0, 0)
    a = sp.alloc("a", 128)
    b = sp.alloc("b", 128)
    a.fill(42)
    def prog():
        yield P.Copy(src=a.whole(), dst=b.whole())
    node.engine.spawn(prog(), core=0)
    node.engine.run()
    assert (b.data == 42).all()


def test_large_copy_is_quantized_but_equivalent():
    """A >64K copy is internally split; the data still lands whole."""
    node = fresh_node()
    sp = node.new_address_space(0, 0)
    a = sp.alloc("a", 300_000)
    b = sp.alloc("b", 300_000)
    a.data[:] = (np_arange := __import__("numpy").arange(300_000) % 251)
    def prog():
        yield P.Copy(src=a.whole(), dst=b.whole())
    node.engine.spawn(prog(), core=0)
    t = node.engine.run()
    assert (b.data == a.data).all()
    assert t > 0


def test_flag_wait_and_wake():
    node = fresh_node()
    flag = Flag("f", owner_core=0)
    order = []
    def writer():
        yield P.Compute(5e-6)
        yield P.SetFlag(flag, 3)
        order.append("set")
    def reader():
        yield P.WaitFlag(flag, 3)
        order.append("woke")
    node.engine.spawn(reader(), core=1)
    node.engine.spawn(writer(), core=0)
    node.engine.run()
    assert order == ["set", "woke"]


def test_wait_flag_already_satisfied():
    node = fresh_node()
    flag = Flag("f", owner_core=0)
    flag.value = 10
    def reader():
        yield P.WaitFlag(flag, 5)
    node.engine.spawn(reader(), core=1)
    node.engine.run()  # terminates


def test_single_writer_violation_raises():
    node = fresh_node()
    flag = Flag("f", owner_core=0)
    def intruder():
        yield P.SetFlag(flag, 1)
    node.engine.spawn(intruder(), core=3)
    with pytest.raises(SimulationError, match="single-writer"):
        node.engine.run()


def test_atomic_returns_old_value_and_orders():
    node = fresh_node()
    atom = Atomic("a", home_core=0)
    seen = []
    def prog(core):
        old = yield P.AtomicRMW(atom, 1)
        seen.append(old)
    for core in range(4):
        node.engine.spawn(prog(core), core=core)
    node.engine.run()
    assert sorted(seen) == [0, 1, 2, 3]
    assert atom.value == 4


def test_wait_atomic():
    node = fresh_node()
    atom = Atomic("a", home_core=0)
    done = []
    def waiter():
        yield P.WaitAtomic(atom, 3)
        done.append(True)
    def adder(core):
        yield P.Compute(1e-6)
        yield P.AtomicRMW(atom, 1)
    node.engine.spawn(waiter(), core=0)
    for core in (1, 2, 3):
        node.engine.spawn(adder(core), core=core)
    node.engine.run()
    assert done == [True]


def test_deadlock_detection():
    node = fresh_node()
    flag = Flag("never", owner_core=0)
    def stuck():
        yield P.WaitFlag(flag, 1)
    node.engine.spawn(stuck(), core=1, name="stuck-proc")
    with pytest.raises(DeadlockError, match="stuck-proc"):
        node.engine.run()


def test_non_primitive_yield_rejected():
    node = fresh_node()
    def bad():
        yield "not a primitive"
    node.engine.spawn(bad(), core=0)
    with pytest.raises(SimulationError, match="non-primitive"):
        node.engine.run()


def test_trace_records():
    node = fresh_node()
    def prog():
        yield P.Trace("message", {"src": 1, "dst": 2})
    node.engine.spawn(prog(), core=0)
    node.engine.run()
    assert node.engine.trace == [(0.0, "message", {"src": 1, "dst": 2})]


def test_run_until():
    node = fresh_node()
    def prog():
        yield P.Compute(10e-6)
    node.engine.spawn(prog(), core=0)
    t = node.engine.run(until=1e-6)
    assert t == pytest.approx(1e-6)
    assert node.engine.alive()
    node.engine.run()
    assert not node.engine.alive()


def test_determinism():
    """Two identical scenarios produce identical event timelines."""
    def scenario():
        node = fresh_node()
        flag = Flag("f", owner_core=0)
        times = []
        def writer():
            yield P.Compute(1e-6)
            yield P.SetFlag(flag, 1)
        def reader(core):
            yield P.WaitFlag(flag, 1)
            yield P.Compute(0.5e-6)
            times.append((core, node.engine.now))
        node.engine.spawn(writer(), core=0)
        for core in range(1, 8):
            node.engine.spawn(reader(core), core=core)
        end = node.engine.run()
        return end, times
    assert scenario() == scenario()


def test_process_return_value():
    node = fresh_node()
    def prog():
        yield P.Compute(1e-9)
        return "result!"
    proc = node.engine.spawn(prog(), core=0)
    node.engine.run()
    assert proc.result == "result!"
    assert proc.finish_time is not None


def test_syscall_and_page_fault_costs():
    node = fresh_node()
    def prog():
        yield P.Syscall("generic")
        yield P.PageFaults(10)
    node.engine.spawn(prog(), core=0)
    t = node.engine.run()
    expected = node.model.syscall_cost + 10 * node.model.page_fault_cost
    assert t == pytest.approx(expected)
