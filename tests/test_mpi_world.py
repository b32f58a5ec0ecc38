"""World/Communicator plumbing."""

import pytest

from repro.errors import MPIError
from repro.mpi import World
from repro.mpi.colls import Tuned
from repro.node import Node
from repro.sim import primitives as P

from conftest import small_topo


def test_world_pins_ranks():
    node = Node(small_topo())
    world = World(node, 6, mapping="numa")
    assert [ctx.core for ctx in world.ranks] == [0, 4, 8, 12, 1, 5]
    assert world.ranks[2].space.home_numa == 2


def test_world_needs_ranks():
    with pytest.raises(MPIError):
        World(Node(small_topo()), 0)


def test_sub_communicator():
    node = Node(small_topo())
    world = World(node, 8)
    comm = world.communicator(Tuned(), ranks=[1, 3, 5])
    assert comm.size == 3
    assert comm.core_of(2) == 5
    assert comm.rank_of(world.ranks[3]) == 1


def test_rank_of_non_member():
    node = Node(small_topo())
    world = World(node, 8)
    comm = world.communicator(Tuned(), ranks=[0, 1])
    with pytest.raises(MPIError):
        comm.rank_of(world.ranks[5])


def test_root_range_checked():
    node = Node(small_topo())
    world = World(node, 4)
    comm = world.communicator(Tuned())

    def program(comm_, ctx):
        buf = ctx.alloc("b", 8)
        yield from comm_.bcast(ctx, buf.whole(), 7)
    with pytest.raises(MPIError, match="root"):
        comm.run(program)


def test_allreduce_length_mismatch():
    node = Node(small_topo())
    world = World(node, 2)
    comm = world.communicator(Tuned())

    def program(comm_, ctx):
        s = ctx.alloc("s", 16)
        r = ctx.alloc("r", 32)
        yield from comm_.allreduce(ctx, s.whole(), r.whole())
    with pytest.raises(MPIError, match="mismatch"):
        comm.run(program)


def test_two_communicators_coexist():
    import numpy as np
    node = Node(small_topo())
    world = World(node, 8)
    comm_a = world.communicator(Tuned(), ranks=[0, 1, 2, 3])
    comm_b = world.communicator(Tuned(), ranks=[4, 5, 6, 7])
    results = {}

    def program_for(comm, tagval):
        def program(comm_, ctx):
            buf = ctx.alloc("b", 64)
            me = comm_.rank_of(ctx)
            if me == 0:
                buf.fill(tagval)
            yield from comm_.bcast(ctx, buf.whole(), 0)
            results[(tagval, me)] = int(buf.data[0])
        return program

    comm_a.launch(program_for(comm_a, 11))
    comm_b.launch(program_for(comm_b, 22))
    world.run()
    assert all(v == 11 for (tag, _), v in results.items() if tag == 11)
    assert all(v == 22 for (tag, _), v in results.items() if tag == 22)


def test_split_by_numa():
    import numpy as np
    from repro.xhc import Xhc
    node = Node(small_topo())
    world = World(node, 16)
    comms = world.split(Xhc, lambda ctx:
                        node.topo.numa_of_core(ctx.core).index)
    assert len(comms) == 4
    assert all(c.size == 4 for c in comms.values())
    results = {}

    def program_for(color, comm):
        def program(comm_, ctx):
            buf = ctx.alloc("b", 64)
            me = comm_.rank_of(ctx)
            if me == 0:
                buf.fill(color + 1)
            yield from comm_.bcast(ctx, buf.whole(), 0)
            results[(color, me)] = int(buf.data[0])
        return program

    for color, comm in comms.items():
        comm.launch(program_for(color, comm))
    world.run()
    for (color, me), v in results.items():
        assert v == color + 1


def test_split_requires_fresh_components():
    from repro.xhc import Xhc
    node = Node(small_topo())
    world = World(node, 8)
    comms = world.split(Xhc, lambda ctx: ctx.core % 2)
    assert comms[0].component is not comms[1].component


def test_rank_of_rejects_a_split_siblings_rank():
    """A split communicator indexes only its own members: every rank of
    its sibling is a non-member, while its own map to 0..size-1."""
    node = Node(small_topo())
    world = World(node, 8)
    comms = world.split(Tuned, lambda ctx: ctx.core % 2)
    even, odd = comms[0], comms[1]
    for ctx in odd.ranks:
        with pytest.raises(MPIError, match="not a member"):
            even.rank_of(ctx)
    assert [odd.rank_of(ctx) for ctx in odd.ranks] == list(range(4))


def test_channel_caching():
    node = Node(small_topo())
    world = World(node, 4)
    comm = world.communicator(Tuned())
    ch1 = comm.channel(0, 1, 0)
    ch2 = comm.channel(0, 1, 0)
    ch3 = comm.channel(0, 1, 9)
    assert ch1 is ch2 and ch1 is not ch3
