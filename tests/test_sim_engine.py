"""Engine semantics: scheduling, flags, atomics, determinism, deadlock."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.node import Node
from repro.options import RunOptions
from repro.sim import primitives as P
from repro.sim.resources import Resource
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


def test_trace_is_recorded_as_an_observer_instant():
    def prog():
        yield P.Compute(1e-6)
        yield P.Trace("message", {"src": 1, "dst": 2})

    node = Node(small_topo(), options=RunOptions(observe="spans"))
    proc = node.engine.spawn(prog(), core=0)
    node.engine.run()
    assert node.obs.instants == [(pytest.approx(1e-6), proc.pid, "message",
                                  {"src": 1, "dst": 2})]
    # Unobserved, the annotation costs its event and records nothing.
    plain = fresh_node()
    plain.engine.spawn(prog(), core=0)
    plain.engine.run()
    assert plain.engine.events_processed == node.engine.events_processed
    assert plain.obs.instants == ()


# A run of zero-time primitives longer than the interpreter's recursion
# limit: each used to resume the generator through a nested _resume.
ZERO_TIME_RUN = 5000


def _zero_time_program(step):
    yield P.Compute(1e-6)
    for _ in range(ZERO_TIME_RUN):
        yield step
    yield P.Compute(1e-6)
    return "done"


@pytest.mark.parametrize("observe", [None, "spans"])
def test_long_run_of_traces_resumes_in_a_loop(observe):
    """5,000 Traces in a row take no time and no events of their own;
    each advances the generator once, and an observed run holds one
    instant per Trace."""
    node = Node(small_topo(), options=RunOptions(observe=observe))
    proc = node.engine.spawn(_zero_time_program(P.Trace("tick")), core=0)
    assert node.engine.run() == pytest.approx(2e-6)
    assert proc.result == "done"
    assert node.engine.events_processed == 3
    assert node.engine._progress == ZERO_TIME_RUN + 3
    if observe:
        assert node.obs.instants == [(pytest.approx(1e-6), proc.pid, "tick",
                                      {})] * ZERO_TIME_RUN
    else:
        assert node.obs.instants == ()


def test_long_run_of_empty_chunk_runs_resumes_in_a_loop():
    """An empty ChunkRun resumes its generator at once, in the same loop."""
    node = fresh_node()
    proc = node.engine.spawn(
        _zero_time_program(P.ChunkRun(start=0, stop=0, chunk=64)), core=0)
    assert node.engine.run() == pytest.approx(2e-6)
    assert proc.result == "done"
    assert node.engine.events_processed == 3
    assert node.engine._progress == ZERO_TIME_RUN + 3


def test_long_run_of_bodiless_chunk_runs_resumes_in_a_loop():
    """A one-chunk ChunkRun with no wait, lookup, body or set takes no
    time: it resumes its generator at once, in the same loop."""
    node = fresh_node()
    proc = node.engine.spawn(
        _zero_time_program(P.ChunkRun(start=0, stop=64, chunk=64)), core=0)
    assert node.engine.run() == pytest.approx(2e-6)
    assert proc.result == "done"
    assert node.engine.events_processed == 3
    assert node.engine._progress == 2 * ZERO_TIME_RUN + 3


@pytest.mark.parametrize("first_ready", [False, True])
def test_long_bodiless_chunk_run_iterates(first_ready):
    """The chunks of a bodiless ChunkRun follow one another in a loop."""
    def prog():
        yield P.Compute(1e-6)
        yield P.ChunkRun(start=0, stop=64 * ZERO_TIME_RUN, chunk=64,
                         first_ready=first_ready)
        yield P.Compute(1e-6)
        return "done"

    node = fresh_node()
    proc = node.engine.spawn(prog(), core=0)
    assert node.engine.run() == pytest.approx(2e-6)
    assert proc.result == "done"
    assert node.engine.events_processed == 3
    assert node.engine._progress == ZERO_TIME_RUN + 4


def test_releasing_an_idle_resource_raises():
    """A transfer holds its route's resources while it runs; a release
    that finds one idle raises."""
    node = fresh_node()
    res = Resource("probe", 1e9)
    node.plan_copy_span = lambda *args: (1e-6, [res], None)
    sp = node.new_address_space(0, 0)
    a, b = sp.alloc("a", 64), sp.alloc("b", 64)
    held = []

    def copier():
        yield P.Copy(src=a.whole(), dst=b.whole())

    def watcher(meddle):
        yield P.Compute(0.5e-6)
        held.append(res.active)
        if meddle:
            res.active = 0

    node.engine.spawn(copier(), core=0)
    node.engine.spawn(watcher(False), core=1)
    node.engine.run()
    assert held == [1] and res.active == 0
    node.engine.spawn(copier(), core=0)
    node.engine.spawn(watcher(True), core=1)
    with pytest.raises(SimulationError,
                       match="release of idle resource 'probe'"):
        node.engine.run()


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
