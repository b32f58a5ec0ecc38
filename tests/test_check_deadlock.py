"""Deadlock detection: wait-for cycles at drain, proactively under
check='deadlock', and via the run-loop watchdog (no more hung pytest)."""

import random

import pytest

from repro.check import deadlock
from repro.check.deadlock import DeadlockInfo
from repro.errors import DeadlockError, SimulationError
from repro.node import Node
from repro.options import RunOptions
from repro.sim import primitives as P
from repro.sim.engine import ProcState, SimProcess
from repro.sim.syncobj import Atomic, Flag

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


# -- stuck-set semantics -----------------------------------------------------
#
# ``find_deadlock`` computes the stuck set as the complement of a least
# fixpoint in one worklist pass. The greatest-fixpoint loop it replaced is
# kept below, verbatim apart from the ``_ref`` names, as the reference
# the differential test compares against.


def _ref_candidate_wakers(engine, proc):
    """Alive processes that could satisfy ``proc``'s pending wait."""
    obj = proc.blocked_obj
    owner_core = getattr(obj, "owner_core", None)
    out = []
    for p in engine.processes:
        if p is proc or p.state.name == "DONE":
            continue
        if owner_core is not None and p.core != owner_core:
            continue
        out.append(p)
    return out


def _ref_find_deadlock(engine):
    """Greatest-fixpoint stuck-set analysis; ``None`` when every blocked
    process still has a reachable waker."""
    blocked = [
        p for p in engine.processes
        if p.state.name == "BLOCKED" and not p.waking
    ]
    if not blocked:
        return None
    stuck = set(blocked)
    changed = True
    while changed:
        changed = False
        for p in list(stuck):
            for cand in _ref_candidate_wakers(engine, p):
                if cand not in stuck:
                    stuck.discard(p)
                    changed = True
                    break
    if not stuck:
        return None
    ordered = sorted(stuck, key=lambda p: p.pid)
    return DeadlockInfo(ordered, _ref_extract_cycle(engine, stuck))


def _ref_extract_cycle(engine, stuck):
    """Walk p -> (its lowest-pid stuck candidate waker) until a node
    repeats; the tail from the repeat is a cycle. A walk that dead-ends
    (a wait with no candidates at all) returns the chain instead."""
    start = min(stuck, key=lambda p: p.pid)
    order = []
    index = {}
    p = start
    while p is not None and p.pid not in index:
        index[p.pid] = len(order)
        order.append(p)
        nxt = [c for c in _ref_candidate_wakers(engine, p) if c in stuck]
        p = min(nxt, key=lambda c: c.pid) if nxt else None
    if p is None:
        return order
    return order[index[p.pid]:]


class _Procs:
    """The part of an engine the analysis reads: its process list."""

    def __init__(self, processes):
        self.processes = processes


def _proc(name, core, state=ProcState.READY, on=None, waking=False):
    p = SimProcess(name, core, None)
    p.state = state
    if on is not None:
        p.blocked_obj = on
        p.blocked_value = 1
    p.waking = waking
    return p


def _blocked(name, core, on, waking=False):
    return _proc(name, core, ProcState.BLOCKED, on, waking)


def _outcome(info):
    if info is None:
        return None
    return ([p.name for p in info.stuck], info.cycle_names, info.describe())


def _random_state(rng):
    n_cores = rng.randint(1, 6)
    procs = []
    for i in range(rng.randint(1, 12)):
        core = rng.randrange(n_cores)
        state = rng.choice(
            (ProcState.READY, ProcState.BLOCKED, ProcState.DONE))
        if state is ProcState.BLOCKED:
            if rng.random() < 0.2:
                on = Atomic(f"a{i}", home_core=core)
            else:
                # One core past the last may hold no process at all.
                on = Flag(f"f{i}", owner_core=rng.randrange(n_cores + 1))
            procs.append(_blocked(f"p{i}", core, on,
                                  waking=rng.random() < 0.1))
        else:
            procs.append(_proc(f"p{i}", core, state))
    rng.shuffle(procs)
    return _Procs(procs)


def test_worklist_matches_greatest_fixpoint_on_random_states():
    rng = random.Random(20221016)
    deadlocked = 0
    for _ in range(3000):
        engine = _random_state(rng)
        want = _outcome(_ref_find_deadlock(engine))
        assert _outcome(deadlock.find_deadlock(engine)) == want
        deadlocked += want is not None
    # The generator exercises both outcomes in earnest.
    assert 900 < deadlocked < 2100, deadlocked


def test_atomic_waiter_is_woken_by_any_other_alive_process():
    """Any alive process but the waiter itself may bump an atomic, on any
    core; a finished process may not."""
    a0 = Atomic("at.a0", home_core=0)
    a1 = Atomic("at.a1", home_core=1)
    waiter = _blocked("waiter", 0, a0)
    runner = _proc("runner", 7)
    assert deadlock.find_deadlock(_Procs([waiter, runner])) is None

    other = _blocked("other", 1, a1)
    done = _proc("done", 0, ProcState.DONE)
    info = deadlock.find_deadlock(_Procs([waiter, other, done]))
    assert [p.name for p in info.stuck] == ["waiter", "other"]
    assert info.cycle_names == ["waiter", "other"]

    lone = deadlock.find_deadlock(_Procs([waiter, done]))
    assert [p.name for p in lone.stuck] == ["waiter"]
    assert lone.cycle_names == ["waiter"]


def test_waiter_is_never_its_own_waker():
    """A wait on a flag owned by the waiter's own core is stuck when no
    other process lives on that core, whatever runs elsewhere."""
    flag = Flag("own.f", owner_core=2)
    waiter = _blocked("waiter", 2, flag)
    elsewhere = _proc("elsewhere", 3)
    info = deadlock.find_deadlock(_Procs([waiter, elsewhere]))
    assert [p.name for p in info.stuck] == ["waiter"]
    assert info.cycle_names == ["waiter"]
    assert info.describe() == ("wait-for cycle: waiter(core 2, on flag "
                               "own.f>=1) -> back to waiter")

    sibling = _proc("sibling", 2)
    assert deadlock.find_deadlock(_Procs([waiter, elsewhere, sibling])) \
        is None


def _chain(hops):
    """``hop<i>`` on core i waits on a flag owned by core i+1."""
    return [_blocked(f"hop{i}", i, Flag(f"chain.f{i}", owner_core=i + 1))
            for i in range(hops)]


def test_long_chain_is_freed_by_one_runnable_head():
    hops = _chain(50)
    head = _proc("head", 50)
    # Listed tail first, so each greatest-fixpoint pass frees one hop.
    assert deadlock.find_deadlock(_Procs([head] + hops)) is None
    assert deadlock.find_deadlock(_Procs(hops[::-1] + [head])) is None


def test_long_chain_behind_an_empty_core_is_all_stuck():
    hops = _chain(50)
    gone = _proc("gone", 50, ProcState.DONE)
    info = deadlock.find_deadlock(_Procs(hops[::-1] + [gone]))
    names = [f"hop{i}" for i in range(50)]
    assert [p.name for p in info.stuck] == names
    # No cycle: the walk dead-ends at hop49, whose owner core is empty.
    assert info.cycle_names == names
    assert info.describe().startswith(
        "wait-for cycle: hop0(core 0, on flag chain.f0>=1) -> hop1(")


def test_probe_raises_at_next_block_after_the_only_waker_finishes():
    """The waiter's only possible writer finishes without setting the
    flag; the probe reports it when another process blocks, long before
    the queue drains."""
    node = Node(small_topo(),
                options=RunOptions(data_movement=False, check="deadlock"))
    never = Flag("gone.f", owner_core=0)
    later = Flag("later.f", owner_core=3)

    def waiter():
        yield P.WaitFlag(never, 1)

    def quitter():
        yield P.Compute(2e-6)

    def other():
        yield P.Compute(5e-6)
        yield P.WaitFlag(later, 1)

    def setter():
        yield P.Compute(1e-5)
        yield P.SetFlag(later, 1)

    node.engine.spawn(waiter(), core=1, name="waiter")
    node.engine.spawn(quitter(), core=0, name="quitter")
    node.engine.spawn(other(), core=2, name="other")
    node.engine.spawn(setter(), core=3, name="setter")
    with pytest.raises(DeadlockError, match="gone.f") as exc_info:
        node.engine.run()
    assert node.engine.now == 5e-06
    assert exc_info.value.cycle == ["waiter"]
