"""Cross-component correctness battery.

Every collectives component must deliver MPI-correct results for every
size class (CICO/eager vs single-copy/rendezvous paths), rank count
(powers of two and odd), root, and mapping policy.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mpi import DOUBLE, MAX, SUM, World
from repro.mpi.colls import SmColl, Smhc, Tuned, TunedXhc, Ucc, Xbrc
from repro.node import Node
from repro.options import RunOptions
from repro.sim import primitives as P
from repro.tune.table import DecisionTable
from repro.xhc import Xhc, XhcConfig

from conftest import (assert_allreduce_correct, assert_bcast_correct,
                      run_allreduce, run_bcast, small_topo)


def _tuned_xhc():
    """TunedXhc over an inline mini-system table spanning the size
    classes, so small and large messages exercise different delegates."""
    table = DecisionTable()
    table.record("mini", "bcast", 1024, XhcConfig(hierarchy="flat"), 1e-6)
    table.record("mini", "bcast", 100_000,
                 XhcConfig(hierarchy="l3+numa", chunk_size=16384), 1e-6)
    table.record("mini", "allreduce", 100_000,
                 XhcConfig(hierarchy="numa", chunk_size=16384), 1e-6)
    return TunedXhc(table=table)


BCAST_COMPONENTS = {
    "tuned": Tuned,
    "sm": SmColl,
    "ucc": Ucc,
    "smhc-flat": lambda: Smhc(tree=False),
    "smhc-tree": lambda: Smhc(tree=True),
    "xhc-flat": lambda: Xhc(hierarchy="flat"),
    "xhc-tree": Xhc,
    "xhc-tuned": _tuned_xhc,
}

ALLREDUCE_COMPONENTS = dict(BCAST_COMPONENTS, xbrc=Xbrc)
del ALLREDUCE_COMPONENTS["smhc-tree"]  # covered in its own module

SIZE_CLASSES = [8, 1024, 9000, 100_000]


@pytest.mark.parametrize("name", sorted(BCAST_COMPONENTS))
@pytest.mark.parametrize("size", SIZE_CLASSES)
def test_bcast_correct(name, size):
    out, _ = run_bcast(BCAST_COMPONENTS[name], nranks=8, size=size, iters=2)
    assert_bcast_correct(out, 8, 101)


@pytest.mark.parametrize("name", sorted(ALLREDUCE_COMPONENTS))
@pytest.mark.parametrize("size", SIZE_CLASSES)
def test_allreduce_correct(name, size):
    out, _ = run_allreduce(ALLREDUCE_COMPONENTS[name], nranks=8, size=size,
                           iters=2)
    assert_allreduce_correct(out, 8, iters=2)


@pytest.mark.parametrize("name", sorted(BCAST_COMPONENTS))
@pytest.mark.parametrize("nranks", [1, 2, 5, 13, 16])
def test_bcast_rank_counts(name, nranks):
    out, _ = run_bcast(BCAST_COMPONENTS[name], nranks=nranks, size=2048)
    assert_bcast_correct(out, nranks, 101)


@pytest.mark.parametrize("name", sorted(ALLREDUCE_COMPONENTS))
@pytest.mark.parametrize("nranks", [1, 2, 7, 16])
def test_allreduce_rank_counts(name, nranks):
    out, _ = run_allreduce(ALLREDUCE_COMPONENTS[name], nranks=nranks,
                           size=2048)
    assert_allreduce_correct(out, nranks)


@pytest.mark.parametrize("name", sorted(BCAST_COMPONENTS))
@pytest.mark.parametrize("root", [3, 15])
def test_bcast_nonzero_root(name, root):
    out, _ = run_bcast(BCAST_COMPONENTS[name], nranks=16, size=4096,
                       root=root)
    assert_bcast_correct(out, 16, 101)


@pytest.mark.parametrize("name", ["tuned", "ucc", "xhc-tree"])
def test_bcast_map_numa(name):
    out, _ = run_bcast(BCAST_COMPONENTS[name], nranks=16, size=4096,
                       mapping="numa")
    assert_bcast_correct(out, 16, 101)


@pytest.mark.parametrize("name", ["tuned", "ucc", "xbrc", "xhc-tree"])
def test_allreduce_max_double(name):
    """Non-SUM op and 8-byte dtype."""
    out, _ = run_allreduce(ALLREDUCE_COMPONENTS[name], nranks=8, size=1024,
                           op=MAX, dtype=DOUBLE, iters=1)
    for rank, rec in out.items():
        assert np.all(rec["data"] == 8)  # max over ranks of (rank+1)


@pytest.mark.parametrize("name", sorted(BCAST_COMPONENTS))
def test_bcast_pattern_survives(name):
    """Payload integrity: a position-dependent pattern, not a constant."""
    def pattern(buf, it):
        buf.data[:] = (np.arange(buf.size) * (it + 3)) % 251

    out, _ = run_bcast(BCAST_COMPONENTS[name], nranks=8, size=5000,
                       pattern=pattern, iters=2)
    expect = (np.arange(5000) * 4) % 251
    for rank, rec in out.items():
        assert np.array_equal(rec["data"], expect), f"rank {rank}"


def _run_staggered_barriers(name, nranks, delays):
    """Run one barrier per row of ``delays`` (seconds each rank computes
    before arriving); return per-episode arrival and departure times."""
    node = Node(small_topo(), options=RunOptions(data_movement=False))
    comm = World(node, nranks).communicator(BCAST_COMPONENTS[name]())
    arrived = [{} for _ in delays]
    left = [{} for _ in delays]

    def program(comm_, ctx):
        me = comm_.rank_of(ctx)
        for ep, row in enumerate(delays):
            yield P.Compute(row[me] + 1e-9)
            arrived[ep][me] = ctx.now
            yield from comm_.barrier(ctx)
            left[ep][me] = ctx.now
    comm.run(program)
    return arrived, left


@pytest.mark.parametrize("name", sorted(BCAST_COMPONENTS))
@pytest.mark.parametrize("nranks", [5, 16])
def test_barrier_holds_until_last_arrival(name, nranks):
    """No rank leaves a barrier before the last one reaches it; the
    slowest rank is neither the first nor the last."""
    delays = [[((7 * me) % nranks + 1) * 1e-6 for me in range(nranks)]]
    arrived, left = _run_staggered_barriers(name, nranks, delays)
    assert min(left[0].values()) >= max(arrived[0].values())


@pytest.mark.parametrize("name", sorted(BCAST_COMPONENTS))
def test_barrier_episodes_stay_separate(name):
    """Back-to-back barriers with a different straggler each time: every
    episode holds its ranks until its own last arrival."""
    nranks = 7
    delays = [[2e-6 if me == (3 * ep + 1) % nranks else 0.0
               for me in range(nranks)] for ep in range(3)]
    arrived, left = _run_staggered_barriers(name, nranks, delays)
    for ep in range(3):
        assert min(left[ep].values()) >= max(arrived[ep].values()), ep


@settings(max_examples=12, deadline=None)
@given(size=st.integers(4, 60_000).map(lambda x: x - x % 4),
       nranks=st.integers(2, 12))
def test_xhc_allreduce_random_shapes(size, nranks):
    """Property: XHC allreduce is correct for arbitrary sizes/rank counts."""
    size = max(size, 4)
    out, _ = run_allreduce(Xhc, nranks=nranks, size=size, iters=1)
    assert_allreduce_correct(out, nranks, iters=1)


@settings(max_examples=12, deadline=None)
@given(size=st.integers(1, 60_000), nranks=st.integers(2, 12),
       root=st.integers(0, 11))
def test_xhc_bcast_random_shapes(size, nranks, root):
    out, _ = run_bcast(Xhc, nranks=nranks, size=size, root=root % nranks,
                       iters=1)
    assert_bcast_correct(out, nranks, 100)
