"""All tier-1 collectives run clean under Node(check='full'): the XHC
protocols' release/acquire chains cover every shared access (zero false
positives), and the scatter release fix keeps the root's buffer protected
until every rank has read it."""

import numpy as np
import pytest

from repro.mpi import World
from repro.mpi.colls import Tuned
from repro.node import Node
from repro.options import RunOptions
from repro.xhc import Xhc

from conftest import small_topo

COLLS = ["bcast", "allreduce", "reduce", "gather", "scatter", "allgather",
         "alltoall", "reduce_scatter", "barrier"]


def _program(kind, nranks, block, root, iters):
    def program(comm, ctx):
        me = comm.rank_of(ctx)
        for it in range(iters):
            if kind == "bcast":
                buf = ctx.alloc(f"b{it}", block)
                yield from comm.bcast(ctx, buf.whole(), root)
            elif kind == "allreduce":
                s = ctx.alloc(f"s{it}", block)
                r = ctx.alloc(f"r{it}", block)
                yield from comm.allreduce(ctx, s.whole(), r.whole())
            elif kind == "reduce":
                s = ctx.alloc(f"s{it}", block)
                r = ctx.alloc(f"r{it}", block) if me == root else None
                yield from comm.reduce(ctx, s.whole(),
                                       None if r is None else r.whole(),
                                       root=root)
            elif kind == "gather":
                s = ctx.alloc(f"s{it}", block)
                r = ctx.alloc(f"r{it}", block * nranks) \
                    if me == root else None
                yield from comm.gather(ctx, s.whole(),
                                       None if r is None else r.whole(),
                                       root)
            elif kind == "scatter":
                s = ctx.alloc(f"s{it}", block * nranks) \
                    if me == root else None
                r = ctx.alloc(f"r{it}", block)
                yield from comm.scatter(ctx,
                                        None if s is None else s.whole(),
                                        r.whole(), root)
            elif kind == "allgather":
                s = ctx.alloc(f"s{it}", block)
                r = ctx.alloc(f"r{it}", block * nranks)
                yield from comm.allgather(ctx, s.whole(), r.whole())
            elif kind == "alltoall":
                s = ctx.alloc(f"s{it}", block * nranks)
                r = ctx.alloc(f"r{it}", block * nranks)
                yield from comm.alltoall(ctx, s.whole(), r.whole())
            elif kind == "reduce_scatter":
                s = ctx.alloc(f"s{it}", block * nranks)
                r = ctx.alloc(f"r{it}", block)
                yield from comm.reduce_scatter_block(ctx, s.whole(),
                                                     r.whole())
            else:  # barrier
                yield from comm.barrier(ctx)
    return program


def _run_checked(kind, factory, block, nranks=8, root=0, iters=2):
    node = Node(small_topo(),
                options=RunOptions(data_movement=False, observe="spans",
                                   check="full"))
    world = World(node, nranks)
    comm = world.communicator(factory())
    comm.run(_program(kind, nranks, block, root, iters))
    return node


# Small exercises the CICO path, large the single-copy (XPMEM) path.
@pytest.mark.parametrize("block", [256, 32 * 1024],
                         ids=["cico", "single-copy"])
@pytest.mark.parametrize("kind", COLLS)
def test_xhc_collectives_clean_under_full_check(kind, block):
    node = _run_checked(kind, Xhc, block)
    report = node.check_report
    assert report.ok, "\n".join(str(f) for f in report)


@pytest.mark.parametrize("kind", ["bcast", "allreduce", "gather"])
def test_tuned_collectives_clean_under_full_check(kind):
    node = _run_checked(kind, Tuned, 4096)
    report = node.check_report
    assert report.ok, "\n".join(str(f) for f in report)


def test_nonzero_root_clean():
    node = _run_checked("scatter", Xhc, 512, root=5)
    assert node.check_report.ok


def test_scatter_release_regression():
    """The root's send buffer must not be reusable before *every* rank
    (grandchildren included) has read its block: with checking on, the
    root's post-scatter overwrite of its send buffer stays race-free, and
    the data every rank received is correct."""
    nranks = 8
    node = Node(small_topo(), options=RunOptions(check="full"))
    world = World(node, nranks)
    comm = world.communicator(Xhc())
    got = {}

    def program(comm_, ctx):
        me = comm_.rank_of(ctx)
        block = 2048
        s = ctx.alloc("s", block * nranks) if me == 0 else None
        scratch = ctx.alloc("scratch", block * nranks) if me == 0 else None
        r = ctx.alloc("r", block)
        for it in range(2):
            if me == 0:
                # Engine-level rewrite of the send buffer each iteration —
                # only legal because scatter's release orders it after
                # every rank's read.
                scratch.fill(it + 1)
                from repro.sim import primitives as P
                yield P.Copy(src=scratch.whole(), dst=s.whole())
            yield from comm_.scatter(ctx,
                                     None if s is None else s.whole(),
                                     r.whole(), 0)
            got.setdefault(it, {})[me] = r.data.copy()

    comm.run(program)
    report = node.check_report
    assert report.ok, "\n".join(str(f) for f in report)
    for it, per_rank in got.items():
        for me, data in per_rank.items():
            assert np.all(data == it + 1), (it, me)


def test_overhead_paths_disabled_by_default():
    """check=None leaves no per-event checker work behind the flag."""
    node = Node(small_topo(), options=RunOptions(data_movement=False))
    assert node.engine.checker is None
    assert node.engine._race is False
    assert node.engine._dl_proactive is False
