"""Point-to-point layer: eager, rendezvous, sendrecv, isend, CICO fallback."""

import numpy as np
import pytest

from repro.errors import MPIError
from repro.mpi import World
from repro.mpi.colls import Tuned
from repro.mpi import p2p
from repro.node import Node
from repro.options import RunOptions
from repro.shmem.smsc import SmscConfig
from repro.sim.trace import messages

from conftest import small_topo, xpmem_attaches


def make_comm(nranks=4, smsc=None, observe=None):
    node = Node(small_topo(), options=RunOptions(observe=observe))
    world = World(node, nranks, smsc=smsc)
    comm = world.communicator(Tuned())
    return node, world, comm


def exchange(comm, size, tag=0):
    """Rank 0 sends `size` bytes to rank 1; returns received payload."""
    result = {}

    def program(comm_, ctx):
        me = comm_.rank_of(ctx)
        buf = ctx.alloc("buf", size)
        if me == 0:
            buf.fill(7)
            yield from comm_.send(ctx, buf.whole(), 1, tag)
        elif me == 1:
            yield from comm_.recv(ctx, buf.whole(), 0, tag)
            result["data"] = buf.data.copy()
    comm.run(program)
    return result["data"]


def test_eager_path():
    node, world, comm = make_comm(2, observe="spans")
    data = exchange(comm, 1024)
    assert (data == 7).all()
    # Eager messages go through the shared slot, no xpmem attach.
    assert xpmem_attaches(node) == 0


def test_rendezvous_path():
    node, world, comm = make_comm(2, observe="spans")
    data = exchange(comm, 128 * 1024)
    assert (data == 7).all()
    assert xpmem_attaches(node) == 1  # receiver mapped the sender's buffer


def test_rendezvous_cico_fallback():
    node, world, comm = make_comm(2, smsc=SmscConfig(mechanism=None),
                                  observe="spans")
    data = exchange(comm, 200 * 1024)
    assert (data == 7).all()
    assert xpmem_attaches(node) == 0  # pipelined through the shared slot


def test_many_messages_in_order():
    node, world, comm = make_comm(2)
    log = []

    def program(comm_, ctx):
        me = comm_.rank_of(ctx)
        buf = ctx.alloc("buf", 64)
        for i in range(5):
            if me == 0:
                buf.fill(i)
                yield from comm_.send(ctx, buf.whole(), 1)
            else:
                yield from comm_.recv(ctx, buf.whole(), 0)
                log.append(int(buf.data[0]))
    comm.run(program)
    assert log == [0, 1, 2, 3, 4]


def test_mixed_sizes_on_one_channel():
    """Eager and rendezvous interleave with separate sequence spaces."""
    node, world, comm = make_comm(2)
    sizes = [64, 100_000, 32, 70_000, 128]
    received = []

    def program(comm_, ctx):
        me = comm_.rank_of(ctx)
        for i, size in enumerate(sizes):
            buf = ctx.alloc(f"b{i}", size)
            if me == 0:
                buf.fill(i + 1)
                yield from comm_.send(ctx, buf.whole(), 1)
            else:
                yield from comm_.recv(ctx, buf.whole(), 0)
                received.append(int(buf.data[0]))
    comm.run(program)
    assert received == [1, 2, 3, 4, 5]


def test_sendrecv_exchange_no_deadlock():
    node, world, comm = make_comm(2)
    out = {}

    def program(comm_, ctx):
        me = comm_.rank_of(ctx)
        sbuf = ctx.alloc("s", 64 * 1024)
        rbuf = ctx.alloc("r", 64 * 1024)
        sbuf.fill(me + 1)
        peer = 1 - me
        yield from p2p.sendrecv(ctx, comm_, sbuf.whole(), peer,
                                rbuf.whole(), peer)
        out[me] = int(rbuf.data[0])
    comm.run(program)
    assert out == {0: 2, 1: 1}


def test_isend_overlaps_and_completes():
    node, world, comm = make_comm(3)
    got = []

    def program(comm_, ctx):
        me = comm_.rank_of(ctx)
        if me == 0:
            bufs = [ctx.alloc(f"b{i}", 32 * 1024) for i in range(2)]
            reqs = []
            for i, dst in enumerate((1, 2)):
                bufs[i].fill(dst)
                reqs.append(p2p.isend(ctx, comm_, bufs[i].whole(), dst))
            for req in reqs:
                yield from req.wait()
        else:
            buf = ctx.alloc("b", 32 * 1024)
            yield from comm_.recv(ctx, buf.whole(), 0)
            got.append(int(buf.data[0]))
    comm.run(program)
    assert sorted(got) == [1, 2]


def test_truncation_detected():
    node, world, comm = make_comm(2)

    def program(comm_, ctx):
        me = comm_.rank_of(ctx)
        if me == 0:
            buf = ctx.alloc("b", 1024)
            yield from comm_.send(ctx, buf.whole(), 1)
        else:
            small = ctx.alloc("b", 512)
            yield from comm_.recv(ctx, small.whole(), 0)
    with pytest.raises(MPIError, match="truncation"):
        comm.run(program)


def test_self_send_rejected():
    node, world, comm = make_comm(2)

    def program(comm_, ctx):
        if comm_.rank_of(ctx) == 0:
            buf = ctx.alloc("b", 8)
            yield from comm_.send(ctx, buf.whole(), 0)
    with pytest.raises(MPIError, match="self-send"):
        comm.run(program)


def test_message_trace_emitted():
    node, world, comm = make_comm(2, observe="spans")
    exchange(comm, 256)
    msgs = messages(node.engine)
    assert len(msgs) == 1
    assert msgs[0]["src_rank"] == 0 and msgs[0]["dst_rank"] == 1
    assert msgs[0]["proto"] == "eager"
