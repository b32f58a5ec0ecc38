"""smhc component: socket-aware staging, CICO-only data path."""

import numpy as np

from repro.mpi import World
from repro.mpi.colls import Smhc
from repro.node import Node

from conftest import (assert_allreduce_correct, assert_bcast_correct,
                      run_allreduce, run_bcast, small_topo, xpmem_attaches)


def test_flat_and_tree_bcast():
    for tree in (False, True):
        out, node = run_bcast(lambda: Smhc(tree=tree), nranks=16,
                              size=70_000, iters=2, observe="spans")
        assert_bcast_correct(out, 16, 101)
        assert xpmem_attaches(node) == 0  # never single-copy


def test_tree_roles_socket_leaders():
    node = Node(small_topo())
    world = World(node, 16)
    comp = Smhc(tree=True)
    world.communicator(comp)
    # Two sockets of 8 ranks each.
    assert comp.sockets == [list(range(8)), list(range(8, 16))]
    parent, consumers = comp._roles(0, root=0)
    assert parent is None
    assert 8 in consumers          # the other socket's leader
    assert set(range(1, 8)) <= set(consumers)
    parent8, consumers8 = comp._roles(8, root=0)
    assert parent8 == 0
    assert consumers8 == list(range(9, 16))
    parent9, consumers9 = comp._roles(9, root=0)
    assert parent9 == 8 and consumers9 == []


def test_tree_roles_follow_the_root():
    node = Node(small_topo())
    world = World(node, 16)
    comp = Smhc(tree=True)
    world.communicator(comp)
    parent, consumers = comp._roles(10, root=10)
    assert parent is None
    # Root serves its whole socket plus the other socket's leader.
    assert 0 in consumers and set(range(8, 16)) - {10} <= set(consumers)


def test_allreduce_flat_and_tree():
    for tree in (False, True):
        out, _ = run_allreduce(lambda: Smhc(tree=tree), nranks=16,
                               size=50_000, iters=2)
        assert_allreduce_correct(out, 16)


def test_reduce():
    from repro.mpi import FLOAT, SUM
    node = Node(small_topo())
    world = World(node, 8)
    comm = world.communicator(Smhc(tree=True))
    got = {}

    def program(comm_, ctx):
        me = comm_.rank_of(ctx)
        sbuf = ctx.alloc("s", 4096)
        rbuf = ctx.alloc("r", 4096)
        sbuf.view().as_dtype(np.float32)[:] = me
        for _ in range(2):
            yield from comm_.reduce(ctx, sbuf.whole(), rbuf.whole(),
                                    SUM, FLOAT, root=1)
        if me == 1:
            got["v"] = rbuf.view().as_dtype(np.float32).copy()
    comm.run(program)
    assert (got["v"] == sum(range(8))).all()


def test_barrier():
    node = Node(small_topo())
    world = World(node, 6)
    comm = world.communicator(Smhc(tree=True))

    def program(comm_, ctx):
        for _ in range(3):
            yield from comm_.barrier(ctx)
    comm.run(program)  # terminates without deadlock


def test_collective_spans_carry_the_registry_name():
    """smhc-flat and smhc-tree name themselves in their ``coll.*`` spans;
    the messages they emit keep the protocol label ``smhc``."""
    from repro.bench.components import make_component
    from repro.options import RunOptions

    for name in ("smhc-flat", "smhc-tree"):
        node = Node(small_topo(), options=RunOptions(observe="spans"))
        world = World(node, 8)
        comm = world.communicator(make_component(name))

        def program(comm_, ctx):
            buf = ctx.alloc("b", 4096)
            yield from comm_.bcast(ctx, buf.whole(), 0)
        comm.run(program)
        comps = [rec.args["comp"] for rec in node.obs.spans
                 if rec.name == "coll.bcast"]
        assert len(comps) == 8 and set(comps) == {name}
        protos = {meta["proto"] for _t, _track, label, meta
                  in node.obs.instants if label == "message"}
        assert protos == {"smhc"}
    assert Smhc().name == "smhc"
