"""Deadlock detection: wait-for cycles at drain, proactively under
check='deadlock', and via the run-loop watchdog (no more hung pytest)."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.node import Node
from repro.options import RunOptions
from repro.sim import primitives as P
from repro.sim.syncobj import Flag

from conftest import small_topo


def _circular_wait(node):
    """Two ranks, each waiting on the flag the other should set."""
    f0 = Flag("dl.f0", owner_core=0)
    f1 = Flag("dl.f1", owner_core=1)

    def p0():
        yield P.WaitFlag(f1, 1)
        yield P.SetFlag(f0, 1)

    def p1():
        yield P.WaitFlag(f0, 1)
        yield P.SetFlag(f1, 1)

    node.engine.spawn(p0(), core=0, name="rank0")
    node.engine.spawn(p1(), core=1, name="rank1")


def test_drain_reports_cycle_even_unchecked():
    """check=None still names the wait-for cycle at queue drain."""
    node = Node(small_topo(), options=RunOptions(data_movement=False))
    _circular_wait(node)
    with pytest.raises(DeadlockError, match="wait-for cycle") as exc_info:
        node.engine.run()
    exc = exc_info.value
    assert set(exc.cycle) == {"rank0", "rank1"}
    assert "rank0" in str(exc) and "rank1" in str(exc)
    assert "dl.f0" in str(exc) or "dl.f1" in str(exc)


def test_proactive_raises_at_block_time():
    """check='deadlock' raises when the cycle closes, not at drain — a
    third process with pending work does not mask it."""
    node = Node(small_topo(),
                options=RunOptions(data_movement=False, check="deadlock"))
    _circular_wait(node)

    def busy():
        yield P.Compute(1.0)

    node.engine.spawn(busy(), core=2, name="busy")
    with pytest.raises(DeadlockError, match="wait-for cycle") as exc_info:
        node.engine.run()
    assert set(exc_info.value.cycle) == {"rank0", "rank1"}
    # Raised the moment the second rank blocked, long before the busy
    # process's 1 s of compute drained.
    assert node.engine.now < 0.5


def test_no_false_positive_when_waker_alive():
    """A pending (not yet blocked) writer on the owner core keeps the
    proactive analysis quiet."""
    node = Node(small_topo(),
                options=RunOptions(data_movement=False, check="deadlock"))
    flag = Flag("ok.f", owner_core=0)

    def writer():
        yield P.Compute(1e-5)
        yield P.SetFlag(flag, 1)

    def waiter():
        yield P.WaitFlag(flag, 1)

    node.engine.spawn(writer(), core=0, name="writer")
    node.engine.spawn(waiter(), core=1, name="waiter")
    node.engine.run()
    assert all(p.state.name == "DONE" for p in node.engine.processes)


def test_watchdog_flags_livelock_spin():
    """An unbounded compute slices forever; the watchdog turns the former
    pytest hang into a SimulationError."""
    node = Node(small_topo(), options=RunOptions(data_movement=False))
    node.engine.watchdog_every = 5_000

    def spinner():
        yield P.Compute(float("inf"))

    node.engine.spawn(spinner(), core=0, name="spinner")
    with pytest.raises(SimulationError, match="watchdog"):
        node.engine.run()


def test_watchdog_reports_deadlock_behind_a_spin():
    """Blocked-forever processes are reported as a DeadlockError with the
    cycle even while an unrelated event chain keeps the queue busy."""
    node = Node(small_topo(), options=RunOptions(data_movement=False))
    node.engine.watchdog_every = 5_000
    _circular_wait(node)
    with pytest.raises(DeadlockError, match="wait-for cycle") as exc_info:
        def spinner():
            yield P.Compute(float("inf"))
        node.engine.spawn(spinner(), core=2, name="spinner")
        node.engine.run()
    assert set(exc_info.value.cycle) == {"rank0", "rank1"}


def test_dead_end_wait_is_reported():
    """A wait whose owner core has no alive process: no cycle, but still
    a deadlock (dead-end chain)."""
    node = Node(small_topo(), options=RunOptions(data_movement=False))
    flag = Flag("never.f", owner_core=5)

    def waiter():
        yield P.WaitFlag(flag, 1)

    node.engine.spawn(waiter(), core=1, name="lonely")
    with pytest.raises(DeadlockError, match="lonely"):
        node.engine.run()


def test_in_flight_wakeup_is_not_a_deadlock():
    """A proc whose satisfying write already scheduled its resume is
    BLOCKED+waking; the analysis must not count it as stuck."""
    from repro.check.deadlock import find_deadlock

    node = Node(small_topo(),
                options=RunOptions(data_movement=False, check="deadlock"))
    flag = Flag("wk.f", owner_core=0)
    seen = []

    def writer():
        yield P.SetFlag(flag, 1)
        # At this instant the waiter is still BLOCKED but waking.
        seen.append(find_deadlock(node.engine))
        yield P.Compute(1e-6)

    def waiter():
        yield P.WaitFlag(flag, 1)

    node.engine.spawn(waiter(), core=1, name="waiter")
    node.engine.spawn(writer(), core=0, name="writer")
    node.engine.run()
    assert seen == [None]
    assert all(p.state.name == "DONE" for p in node.engine.processes)
