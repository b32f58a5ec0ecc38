"""A finished run's object graph is freed by reference counting.

Each point of a sweep builds a fresh Node/World/component graph. The
ownership edges form a tree: the engine's ``pricer`` and the observer's
and checker's ``engine`` are held strongly only while ``Engine.run``
executes, the XPMEM service refers to the engine rather than the node,
a ``RankCtx`` to its node rather than its world, and a component keeps
no reference to its communicator. So once a run has finished and its
last outside reference drops, nothing is left for the cyclic collector.

Every case runs with the collector disabled, so that an automatic
collection cannot free a cycle before the test counts it.
"""

import gc
import weakref
from contextlib import contextmanager

import pytest

from repro.bench.components import COMPONENTS
from repro.errors import SimulationError
from repro.exec.api import run_inline
from repro.exec.request import RunRequest
from repro.exec.worker import execute
from repro.mpi import World
from repro.node import Node
from repro.obs.critical_path import critical_path
from repro.options import RunOptions
from repro.topology import get_system

from conftest import small_topo

ENGINES = ("event", "array")
SIZES = (64, 65536)
# Every registered component; xbrc implements only the reductions.
CASES = ([("bcast", name) for name in sorted(COMPONENTS) if name != "xbrc"]
         + [("allreduce", name) for name in sorted(COMPONENTS)])


@contextmanager
def collector_off():
    """Collect what earlier code left, then keep the collector off."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _request(collective, component, size, **options):
    return RunRequest(system="epyc-1p", collective=collective, size=size,
                      nranks=8, component=component, warmup=1, iters=2,
                      options=RunOptions(data_movement=False, **options))


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("collective, component", CASES,
                         ids=[f"{c}-{n}" for c, n in CASES])
def test_execute_leaves_no_cyclic_garbage(collective, component, size,
                                          engine):
    with collector_off():
        result = execute(_request(collective, component, size,
                                  engine=engine))
        assert result.latency_s is not None and result.latency_s > 0
        assert result.node is None
        assert gc.collect() == 0


@pytest.mark.parametrize("options", [
    {},
    {"observe": "spans", "check": "full"},
], ids=["plain", "observed-checked"])
def test_run_inline_result_is_freed_when_dropped(options):
    with collector_off():
        res = run_inline(_request("allreduce", "xhc-tree", 1024, **options))
        if options:
            path = critical_path(res.node)
            assert path.total > 0
            assert not res.findings
            del path
        node = weakref.ref(res.node)
        del res
        assert node() is None
        assert gc.collect() == 0


def test_hand_built_world_is_freed_when_dropped():
    """A script that builds Node + World + Communicator itself, the way
    tests/conftest.py does, frees the graph once its names go. The
    topology is built first and outlives the run: topologies are shared
    by every Node built over them (the exec worker memoizes one per
    system), and their parent/child links are cyclic by design."""
    topo = small_topo()
    with collector_off():
        node = Node(topo, options=RunOptions(data_movement=True))
        world = World(node, 8)
        comm = world.communicator(COMPONENTS["xhc-tree"]())

        def program(comm_, ctx):
            buf = ctx.alloc("buf", 4096)
            yield from comm_.bcast(ctx, buf.whole(), 0)

        procs = comm.run(program)
        assert all(p.finish_time is not None for p in procs)
        alive = weakref.ref(node)
        del node, world, comm, procs, program
        assert alive() is None
        assert gc.collect() == 0


def test_engine_holds_its_node_weakly_outside_run():
    """Outside ``run()`` the engine's back-references are proxies, and a
    run on an engine whose node is gone fails clearly."""
    node = Node(get_system("epyc-1p"))
    engine = node.engine
    assert isinstance(engine.pricer, weakref.ProxyType)
    assert engine.pricer.topo is node.topo
    del node
    with pytest.raises(SimulationError, match="keep a reference"):
        engine.run()


def test_nodeless_osu_helpers_reuse_the_memoized_topology():
    """``run_collective`` and ``osu_latency`` without ``node=`` take their
    topology from the exec worker's memo instead of building a fresh,
    cyclic one per call, so with the memo warm a call leaves nothing for
    the collector."""
    from repro.bench.osu import osu_latency, run_collective
    from repro.exec.worker import get_topology

    get_topology("epyc-1p")
    with collector_off():
        assert run_collective("bcast", "epyc-1p", 8, COMPONENTS["xhc-tree"],
                              1024, iters=2) > 0
        assert gc.collect() == 0
        assert osu_latency("epyc-1p", (0, 1), 1024, iters=2) > 0
        assert gc.collect() == 0
