"""tuned-specific behaviour: algorithm selection, p2p usage, scaling."""

import pytest

from repro.mpi.colls import Tuned
from repro.mpi.colls.tuned import (ALLREDUCE_RD_MAX, BCAST_BINOMIAL_MAX,
                                   BCAST_SEGMENTED_MAX)
from repro.mpi import World
from repro.node import Node
from repro.sim import primitives as P
from repro.sim.trace import messages

from conftest import (assert_allreduce_correct, run_allreduce, run_bcast,
                      small_topo)


def test_small_bcast_uses_binomial_eager():
    out, node = run_bcast(Tuned, nranks=8, size=64, iters=1,
                          observe="spans")
    msgs = messages(node.engine)
    # Binomial tree over 8 ranks: exactly 7 messages, all eager.
    assert len(msgs) == 7
    assert all(m["proto"] == "eager" for m in msgs)


def test_medium_bcast_is_segmented():
    size = BCAST_SEGMENTED_MAX  # 4 segments of 32 KiB
    out, node = run_bcast(Tuned, nranks=4, size=size, iters=1,
                          observe="spans")
    msgs = messages(node.engine)
    # More messages than tree edges: segments flow separately.
    assert len(msgs) == 4 * 3


def test_large_bcast_uses_chain():
    size = BCAST_SEGMENTED_MAX * 2
    out, node = run_bcast(Tuned, nranks=6, size=size, iters=1,
                          observe="spans")
    msgs = messages(node.engine)
    edges = {(m["src_rank"], m["dst_rank"]) for m in msgs}
    # A chain: rank r sends only to r+1.
    assert edges == {(r, r + 1) for r in range(5)}


def test_allreduce_rd_vs_ring_selection():
    # Small payload: recursive doubling (messages between distant ranks).
    out, node = run_allreduce(Tuned, nranks=8, size=256, iters=1,
                              observe="spans")
    assert_allreduce_correct(out, 8, iters=1)
    edges_small = {(m["src_rank"], m["dst_rank"]) for m in messages(node.engine)}
    assert (0, 4) in edges_small  # a doubling exchange
    # Large payload: ring (only neighbour traffic).
    out, node = run_allreduce(Tuned, nranks=8, size=ALLREDUCE_RD_MAX * 8,
                              iters=1, observe="spans")
    assert_allreduce_correct(out, 8, iters=1)
    edges_large = {(m["src_rank"], m["dst_rank"]) for m in messages(node.engine)}
    assert all((d - s) % 8 == 1 for s, d in edges_large)


def test_allreduce_non_power_of_two():
    out, _ = run_allreduce(Tuned, nranks=6, size=512, iters=2)
    assert_allreduce_correct(out, 6)


def test_reduce_collects_at_root():
    import numpy as np
    from repro.mpi import FLOAT, SUM
    node = Node(small_topo())
    world = World(node, 8)
    comm = world.communicator(Tuned())
    out = {}

    def program(comm_, ctx):
        me = comm_.rank_of(ctx)
        sbuf = ctx.alloc("s", 1024)
        rbuf = ctx.alloc("r", 1024) if me == 2 else None
        sbuf.view().as_dtype(np.float32)[:] = me
        yield from comm_.reduce(ctx, sbuf.whole(),
                                None if rbuf is None else rbuf.whole(),
                                SUM, FLOAT, root=2)
        if me == 2:
            out["sum"] = rbuf.view().as_dtype(np.float32).copy()
    comm.run(program)
    assert (out["sum"] == sum(range(8))).all()


def test_barrier_synchronizes():
    node = Node(small_topo())
    world = World(node, 8)
    comm = world.communicator(Tuned())
    after = {}

    def program(comm_, ctx):
        me = comm_.rank_of(ctx)
        yield P.Compute((me + 1) * 1e-6)
        yield from comm_.barrier(ctx)
        after[me] = ctx.now
    comm.run(program)
    assert min(after.values()) >= 8e-6


def test_component_rebind_rejected():
    from repro.errors import MPIError
    node = Node(small_topo())
    world = World(node, 2)
    comp = Tuned()
    world.communicator(comp)
    with pytest.raises(MPIError, match="already bound"):
        world.communicator(comp)
