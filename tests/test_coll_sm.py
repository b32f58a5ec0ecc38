"""sm component: atomic-based sync, fragment windows, barrier."""

import pytest

from repro.mpi import World
from repro.mpi.colls import SmColl, Smhc
from repro.node import Node
from repro.sim import primitives as P

from conftest import (assert_allreduce_correct, assert_bcast_correct,
                      run_allreduce, run_bcast, small_topo, xpmem_attaches)


def test_bcast_fragments_large_messages():
    out, node = run_bcast(SmColl, nranks=4, size=100_000, iters=1,
                          observe="spans")
    assert_bcast_correct(out, 4, 100)
    # No single-copy involvement whatsoever: pure CICO.
    assert xpmem_attaches(node) == 0


def test_custom_fragment_size():
    out, _ = run_bcast(lambda: SmColl(fragment=1024), nranks=4, size=10_000)
    assert_bcast_correct(out, 4, 101)


def test_atomics_are_used():
    _, node = run_bcast(SmColl, nranks=8, size=64, iters=1)
    # The done-counter is an Atomic hit by every non-root rank.
    comp_free_lines = [p for p in node.engine.processes]
    # Indirect but robust check: contention statistics on the line.
    # (7 children each did one fetch-add.)
    # Re-run explicitly and inspect the component.
    node2 = Node(small_topo())
    from repro.mpi import World
    world = World(node2, 8)
    comp = SmColl()
    comm = world.communicator(comp)

    def program(comm_, ctx):
        buf = ctx.alloc("b", 64)
        yield from comm_.bcast(ctx, buf.whole(), 0)
    comm.run(program)
    assert comp.done[0].value == 7


def test_allreduce_and_reduce():
    out, _ = run_allreduce(SmColl, nranks=6, size=50_000, iters=2)
    assert_allreduce_correct(out, 6)


def test_barrier_counts_episodes():
    node = Node(small_topo())
    world = World(node, 5)
    comp = SmColl()
    comm = world.communicator(comp)

    def program(comm_, ctx):
        for _ in range(3):
            yield from comm_.barrier(ctx)
    comm.run(program)
    assert comp.bar_arrive.value == 3 * 4
    assert comp.bar_release.value == 3


def test_slower_than_single_writer_at_scale():
    """The Fig. 4 relationship on a dense machine (ARM-N1, 40 ranks)."""
    from repro.topology import get_system
    def latency(factory):
        out, _ = run_bcast(factory, topo=get_system("arm-n1"), nranks=40,
                           size=4, iters=3, data_movement=False)
        import numpy as np
        return float(np.mean([r["latency"] for r in out.values()]))
    atomics = latency(SmColl)
    single_writer = latency(lambda: Smhc(tree=False))
    assert atomics > single_writer * 2
