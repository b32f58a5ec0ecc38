"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import socket
import threading

import numpy as np
import pytest

from repro.mpi import FLOAT, SUM, World
from repro.node import Node
from repro.options import RunOptions
from repro.shmem.smsc import SmscConfig
from repro.sim import primitives as P
from repro.topology import build_symmetric, get_system


def daemon_listening(socket_path: str, tries: int = 200) -> bool:
    """Wait until a serve daemon accepts connections on ``socket_path``.

    The socket file appears when the daemon binds it, a moment before
    the daemon listens on it, and a client connecting in between is
    refused; so a probe must connect, not only find the file."""
    for _ in range(tries):
        if os.path.exists(socket_path):
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(socket_path)
                return True
            except OSError:
                pass
            finally:
                probe.close()
        threading.Event().wait(0.02)
    return False


def small_topo(name="mini", sockets=2, numa_per_socket=2, cores_per_numa=4,
               cores_per_llc=2):
    """A small hierarchical machine for fast tests (16 cores)."""
    return build_symmetric(name, sockets, numa_per_socket, cores_per_numa,
                           cores_per_llc)


def run_bcast(component_factory, *, topo=None, nranks=8, size=256, root=0,
              iters=2, mapping="core", smsc=None, data_movement=True,
              pattern=None, observe=None):
    """Run ``iters`` broadcasts and return per-rank payloads + timings.

    The root's buffer is rewritten (simulated) before every iteration so
    cache state behaves like a real application. Pass ``observe`` to
    read messages and XPMEM counts from ``node.obs`` afterwards.
    """
    topo = topo if topo is not None else small_topo()
    node = Node(topo, options=RunOptions(data_movement=data_movement,
                                         observe=observe))
    world = World(node, nranks, mapping=mapping, smsc=smsc)
    comm = world.communicator(component_factory())
    out = {}

    def program(comm_, ctx):
        me = comm_.rank_of(ctx)
        buf = ctx.alloc("buf", size)
        scratch = ctx.alloc("scratch", size)
        for it in range(iters):
            if me == root:
                yield P.Copy(src=scratch.whole(), dst=buf.whole())
                if pattern is None:
                    buf.fill(100 + it)
                else:
                    pattern(buf, it)
            t0 = ctx.now
            yield from comm_.bcast(ctx, buf.whole(), root)
            out[me] = dict(latency=ctx.now - t0,
                           data=None if buf.data is None else buf.data.copy())
    comm.run(program)
    return out, node


def run_allreduce(component_factory, *, topo=None, nranks=8, size=256,
                  iters=2, mapping="core", smsc=None, data_movement=True,
                  op=SUM, dtype=FLOAT, engine="event", observe=None):
    topo = topo if topo is not None else small_topo()
    node = Node(topo, options=RunOptions(data_movement=data_movement,
                                         engine=engine, observe=observe))
    world = World(node, nranks, mapping=mapping, smsc=smsc)
    comm = world.communicator(component_factory())
    out = {}

    def program(comm_, ctx):
        me = comm_.rank_of(ctx)
        sbuf = ctx.alloc("s", size)
        rbuf = ctx.alloc("r", size)
        scratch = ctx.alloc("scr", size)
        for it in range(iters):
            yield P.Copy(src=scratch.whole(), dst=sbuf.whole())
            if sbuf.data is not None:
                sbuf.view().as_dtype(dtype.np_dtype)[:] = me + 1 + it
            t0 = ctx.now
            yield from comm_.allreduce(ctx, sbuf.whole(), rbuf.whole(),
                                       op, dtype)
            out[me] = dict(
                latency=ctx.now - t0,
                data=None if rbuf.data is None
                else rbuf.view().as_dtype(dtype.np_dtype).copy(),
            )
    comm.run(program)
    return out, node


def xpmem_attaches(node):
    """XPMEM attaches of an observed run (the observer's metric is the
    only count)."""
    assert node.obs.enabled, "run with observe= to count attaches"
    return node.obs.metrics.value("xpmem.attaches")


def assert_bcast_correct(out, nranks, expected_value):
    assert len(out) == nranks
    for rank, rec in out.items():
        assert np.all(rec["data"] == expected_value), f"rank {rank} corrupt"


def assert_allreduce_correct(out, nranks, iters=2):
    expect = sum(range(1, nranks + 1)) + (iters - 1) * nranks
    assert len(out) == nranks
    for rank, rec in out.items():
        assert np.all(rec["data"] == expect), f"rank {rank} wrong sum"


@pytest.fixture
def mini_topo():
    return small_topo()


@pytest.fixture
def mini_node(mini_topo):
    return Node(mini_topo)


@pytest.fixture
def epyc1p():
    return get_system("epyc-1p")
