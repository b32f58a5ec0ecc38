"""ucc component: knomial schedules, ring allreduce, direct reduce."""

import numpy as np
import pytest

from repro.mpi import FLOAT, SUM, World
from repro.mpi.colls import Ucc
from repro.node import Node
from repro.sim import primitives as P

from conftest import (assert_allreduce_correct, assert_bcast_correct,
                      run_allreduce, run_bcast, small_topo, xpmem_attaches)


def test_small_bcast_stays_in_shared_memory():
    out, node = run_bcast(Ucc, nranks=8, size=512, iters=2, observe="spans")
    assert_bcast_correct(out, 8, 101)
    assert xpmem_attaches(node) == 0  # cico slots only


def test_large_bcast_single_copy():
    out, node = run_bcast(Ucc, nranks=8, size=200_000, iters=1,
                          observe="spans")
    assert_bcast_correct(out, 8, 100)
    assert xpmem_attaches(node) > 0


def test_radix_configurable():
    out, _ = run_bcast(lambda: Ucc(radix=2), nranks=9, size=64)
    assert_bcast_correct(out, 9, 101)
    out, _ = run_bcast(lambda: Ucc(radix=8), nranks=9, size=64)
    assert_bcast_correct(out, 9, 101)


def test_ring_allreduce_used_for_large():
    out, _ = run_allreduce(Ucc, nranks=8, size=64 * 1024, iters=2)
    assert_allreduce_correct(out, 8)


def test_small_and_sub_rank_element_counts_fall_back():
    # 8 ranks but only 5 floats: ring slices would degenerate.
    out, _ = run_allreduce(Ucc, nranks=8, size=20, iters=1)
    assert_allreduce_correct(out, 8, iters=1)


def test_reduce_direct():
    node = Node(small_topo())
    world = World(node, 8)
    comm = world.communicator(Ucc())
    got = {}

    def program(comm_, ctx):
        me = comm_.rank_of(ctx)
        sbuf = ctx.alloc("s", 4096)
        rbuf = ctx.alloc("r", 4096) if me == 0 else None
        sbuf.view().as_dtype(np.float32)[:] = me + 1
        for _ in range(2):
            yield from comm_.reduce(ctx, sbuf.whole(),
                                    None if rbuf is None else rbuf.whole(),
                                    SUM, FLOAT, root=0)
        if me == 0:
            got["v"] = rbuf.view().as_dtype(np.float32).copy()
    comm.run(program)
    assert (got["v"] == sum(range(1, 9))).all()


def test_barrier():
    node = Node(small_topo())
    world = World(node, 7)
    comm = world.communicator(Ucc())
    after = {}

    def program(comm_, ctx):
        me = comm_.rank_of(ctx)
        yield P.Compute((me + 1) * 1e-6)
        for _ in range(2):
            yield from comm_.barrier(ctx)
        after[me] = ctx.now
    comm.run(program)
    assert min(after.values()) >= 7e-6
