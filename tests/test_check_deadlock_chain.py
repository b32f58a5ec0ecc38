"""Differential test of the per-block deadlock probe.

Under ``check='deadlock'`` the engine asks :class:`WaitChainProbe` at
every block, and the probe walks only the new waiter's wait-for chain
unless a process finished since its last full analysis. At every block
of every registered component's bcast and allreduce, and of seeded
random spawn/block/finish programs, the walk's verdict must equal
``find_deadlock(engine) is None``, and the probe must raise exactly when
``find_deadlock`` finds a stuck set.
"""

import random

import pytest

from repro.bench.components import COMPONENTS, make_component
from repro.check.deadlock import WaitChainProbe, find_deadlock
from repro.errors import DeadlockError
from repro.mpi import FLOAT, SUM, World
from repro.node import Node
from repro.options import RunOptions
from repro.sim import primitives as P
from repro.sim.engine import ProcState, SimProcess
from repro.sim.syncobj import Atomic, Flag

from conftest import small_topo


class _Tally:
    def __init__(self):
        self.walked = 0      # blocks the walk decided
        self.full = 0        # blocks after a finish: full analysis
        self.stuck = 0       # blocks that found a stuck set


@pytest.fixture
def tally(monkeypatch):
    """Check every probe against ``find_deadlock`` and count the blocks."""
    counts = _Tally()
    real = WaitChainProbe.probe

    def probe(self, engine, obj):
        free = find_deadlock(engine) is None
        if self.stale:
            counts.full += 1
            # A stuck set may hold others than the waiter, but a waiter
            # the walk cannot wake is always stuck.
            assert self.wakeable(engine, obj) or not free
        else:
            counts.walked += 1
            assert self.wakeable(engine, obj) == free
        info = real(self, engine, obj)
        assert (info is None) == free
        counts.stuck += not free
        return info

    monkeypatch.setattr(WaitChainProbe, "probe", probe)
    return counts


def _collective(name, coll, size, nranks=8):
    node = Node(small_topo(),
                options=RunOptions(data_movement=False, check="deadlock"))
    world = World(node, nranks)
    comm = world.communicator(make_component(name))

    def program(comm_, ctx):
        a = ctx.alloc("a", size)
        b = ctx.alloc("b", size)
        for _ in range(2):
            if coll == "bcast":
                yield from comm_.bcast(ctx, a.whole(), 0)
            else:
                yield from comm_.allreduce(ctx, a.whole(), b.whole(),
                                           SUM, FLOAT)

    comm.run(program)
    return node


@pytest.mark.parametrize("name,coll", [
    (name, coll) for name in sorted(COMPONENTS)
    for coll in ("bcast", "allreduce")
    # xbrc implements reductions only.
    if (name, coll) != ("xbrc", "bcast")])
def test_walk_agrees_with_full_analysis_on_every_component(name, coll,
                                                           tally):
    for size in (64, 16384):
        _collective(name, coll, size)
    assert tally.walked > 0
    assert tally.stuck == 0


def _program(rng, core, flags, atoms, depth):
    """A fixed random list of steps for one process on ``core``."""
    steps = []
    own = [f for f in flags if f.owner_core == core]
    for _ in range(rng.randint(0, 10)):
        r = rng.random()
        if r < 0.25:
            steps.append(("compute", rng.choice((1e-7, 1e-6, 4e-6))))
        elif r < 0.45:
            threshold = 2 if rng.random() < 0.2 else 1
            steps.append(("wait", rng.choice(flags), threshold))
        elif r < 0.7 and own:
            steps.append(("set", rng.choice(own)))
        elif r < 0.8 and atoms:
            steps.append(("await", rng.choice(atoms), rng.randint(1, 2)))
        elif r < 0.9 and atoms:
            steps.append(("rmw", rng.choice(atoms)))
        elif depth < 2:
            steps.append(("spawn", _program(rng, core, flags, atoms,
                                            depth + 1)))
    if rng.random() < 0.7:
        # Usually publish every flag this core owns before finishing.
        steps += [("set", f) for f in own for _ in range(2)]
    return steps


def _run_steps(engine, core, steps):
    for step in steps:
        kind = step[0]
        if kind == "compute":
            yield P.Compute(step[1])
        elif kind == "wait":
            yield P.WaitFlag(step[1], step[2])
        elif kind == "set":
            yield P.SetFlag(step[1], step[1].value + 1)
        elif kind == "await":
            yield P.WaitAtomic(step[1], step[2])
        elif kind == "rmw":
            yield P.AtomicRMW(step[1], 1)
        else:
            engine.spawn(_run_steps(engine, core, step[1]), core=core)


def test_walk_agrees_with_full_analysis_on_random_programs(tally):
    rng = random.Random(20261019)
    outcomes = {"clean": 0, "deadlock": 0}
    for _ in range(800):
        node = Node(small_topo(),
                    options=RunOptions(data_movement=False,
                                       check="deadlock"))
        engine = node.engine
        n_cores = rng.randint(1, 5)
        cores = [rng.randrange(n_cores) for _ in range(rng.randint(1, 7))]
        # Some flags belong to a core that holds no process at all.
        flags = [Flag(f"f{i}", owner_core=(rng.choice(cores)
                                           if rng.random() < 0.9
                                           else n_cores))
                 for i in range(rng.randint(1, 5))]
        atoms = [Atomic(f"a{i}", home_core=0)
                 for i in range(rng.randint(0, 2))]
        for core in cores:
            steps = _program(rng, core, flags, atoms, 0)
            engine.spawn(_run_steps(engine, core, steps), core=core)
        try:
            engine.run()
        except DeadlockError:
            outcomes["deadlock"] += 1
        else:
            outcomes["clean"] += 1
    # Both outcomes, and blocks of every kind, in earnest.
    assert outcomes["clean"] > 200 and outcomes["deadlock"] > 200, outcomes
    assert tally.walked > 700 and tally.full > 700 and tally.stuck > 200


class _Procs:
    """The part of an engine the probe reads: its process list."""

    def __init__(self, processes):
        self.processes = processes


def _proc(name, core, state=ProcState.READY, on=None, waking=False):
    p = SimProcess(name, core, None)
    p.state = state
    p.blocked_obj = on
    p.waking = waking
    return p


def test_walk_follows_a_long_chain_to_its_runnable_head():
    hops = [_proc(f"hop{i}", i, ProcState.BLOCKED,
                  Flag(f"chain.f{i}", owner_core=i + 1)) for i in range(50)]
    head = _proc("head", 50)
    engine = _Procs(hops[::-1] + [head])
    probe = WaitChainProbe()
    assert probe.wakeable(engine, hops[0].blocked_obj)
    head.state = ProcState.DONE
    assert not probe.wakeable(engine, hops[0].blocked_obj)
    head.state = ProcState.BLOCKED
    head.blocked_obj = Atomic("chain.a", home_core=0)
    assert not probe.wakeable(engine, hops[0].blocked_obj)
    # Another process anywhere frees the atomic waiter at the head.
    engine.processes.append(_proc("elsewhere", 99))
    assert probe.wakeable(engine, hops[0].blocked_obj)


def test_a_pending_wakeup_ends_the_walk():
    flag = Flag("wk.f", owner_core=1)
    waiter = _proc("waiter", 0, ProcState.BLOCKED, flag)
    woken = _proc("woken", 1, ProcState.BLOCKED,
                  Flag("other.f", owner_core=7), waking=True)
    probe = WaitChainProbe()
    assert probe.wakeable(_Procs([waiter, woken]), flag)
    woken.waking = False
    assert not probe.wakeable(_Procs([waiter, woken]), flag)


def test_probe_runs_the_full_analysis_until_it_finds_no_stuck_set():
    flag = Flag("gone.f", owner_core=0)
    waiter = _proc("waiter", 1, ProcState.BLOCKED, flag)
    runner = _proc("runner", 2)
    engine = _Procs([waiter, runner])
    probe = WaitChainProbe()
    assert probe.stale
    info = probe.probe(engine, flag)
    assert [p.name for p in info.stuck] == ["waiter"]
    assert probe.stale
    engine.processes.append(_proc("writer", 0))
    assert probe.probe(engine, flag) is None
    assert not probe.stale
