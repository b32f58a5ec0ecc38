"""Edge paths not covered elsewhere."""

import numpy as np
import pytest

from repro.errors import MPIError, ShmemError
from repro.mpi import World
from repro.mpi.colls import Tuned
from repro.node import Node
from repro.sim import primitives as P
from repro.xhc import Xhc

from conftest import small_topo


def test_xhc_cico_entry_skips_via_ack_seen():
    """After one deferred wait, the remembered flag value suppresses
    further fetches until the slack is consumed again."""
    node = Node(small_topo())
    world = World(node, 4)
    comp = Xhc(cico_ring=2)
    comm = world.communicator(comp)

    def program(comm_, ctx):
        buf = ctx.alloc("b", 64)
        me = comm_.rank_of(ctx)
        for it in range(8):
            if me == 0:
                buf.fill(it)
            yield from comm_.bcast(ctx, buf.whole(), 0)
    comm.run(program)
    # Observed ack values are per rank, kept beside the shared ledger.
    assert any(v > 0 for v in comp._ack_seen[0].values()), \
        "the root should have recorded observed ack values"


def test_hierarchy_describe_and_repr():
    from repro.xhc import XhcConfig, build_hierarchy
    topo = small_topo()
    h = build_hierarchy(topo, list(range(16)), XhcConfig().tokens(), 0)
    text = h.describe()
    assert "L0" in text and "group" in text
    assert "leader" in repr(h.levels[0][0])


def test_world_now_property():
    node = Node(small_topo())
    world = World(node, 2)
    comm = world.communicator(Tuned())
    seen = {}

    def program(comm_, ctx):
        yield P.Compute(5e-6)
        seen[comm_.rank_of(ctx)] = ctx.now
    comm.run(program)
    assert all(v >= 5e-6 for v in seen.values())


def test_cli_bench_allreduce_and_custom_sizes(capsys):
    from repro.cli import main
    code = main(["bench", "allreduce", "--system", "epyc-1p",
                 "--nranks", "8", "--components", "xhc-tree",
                 "--sizes", "128", "--iters", "2"])
    out = capsys.readouterr().out
    assert code == 0 and "xhc-tree" in out


def test_scatter_root_view_none_non_root():
    node = Node(small_topo())
    world = World(node, 4)
    comm = world.communicator(Xhc())
    got = {}

    def program(comm_, ctx):
        me = comm_.rank_of(ctx)
        r = ctx.alloc("r", 128)
        s = ctx.alloc("s", 512) if me == 2 else None
        if me == 2:
            for q in range(4):
                s.data[q * 128:(q + 1) * 128] = q + 10
        yield from comm_.scatter(ctx, None if s is None else s.whole(),
                                 r.whole(), root=2)
        got[me] = int(r.data[0])
    comm.run(program)
    assert got == {0: 10, 1: 11, 2: 12, 3: 13}


def test_tuned_gather_root_zero_uses_rview_directly():
    node = Node(small_topo())
    world = World(node, 4)
    comm = world.communicator(Tuned())
    got = {}

    def program(comm_, ctx):
        me = comm_.rank_of(ctx)
        s = ctx.alloc("s", 64)
        s.fill(me + 1)
        r = ctx.alloc("r", 256) if me == 0 else None
        yield from comm_.gather(ctx, s.whole(),
                                None if r is None else r.whole(), 0)
        if me == 0:
            got["data"] = r.data.copy()
    comm.run(program)
    for q in range(4):
        assert np.all(got["data"][q * 64:(q + 1) * 64] == q + 1)


def test_segment_region_accessors():
    from repro.shmem.segment import SharedSegment
    node = Node(small_topo())
    seg = SharedSegment(node.new_address_space(0, 0), "s", 256)
    with pytest.raises(ShmemError):
        seg.region("missing")
    assert not seg.has_region("missing")
