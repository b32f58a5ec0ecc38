"""XHC Broadcast: paths, pipelining, acknowledgments, flag layouts."""

import numpy as np
import pytest

from repro.mpi import World
from repro.node import Node
from repro.sim import primitives as P
from repro.xhc import Xhc, XhcConfig

from conftest import (assert_bcast_correct, run_bcast, small_topo,
                      xpmem_attaches)


def test_cico_path_below_threshold():
    out, node = run_bcast(Xhc, nranks=8, size=1024, iters=2,
                          observe="spans")
    assert_bcast_correct(out, 8, 101)
    assert xpmem_attaches(node) == 0


def test_single_copy_path_above_threshold():
    out, node = run_bcast(Xhc, nranks=8, size=1025, iters=2,
                          observe="spans")
    assert_bcast_correct(out, 8, 101)
    assert xpmem_attaches(node) > 0


def test_threshold_configurable():
    out, node = run_bcast(lambda: Xhc(cico_threshold=4096), nranks=8,
                          size=4000, iters=1, observe="spans")
    assert_bcast_correct(out, 8, 100)
    assert xpmem_attaches(node) == 0


def test_pipelining_with_tiny_chunks():
    out, _ = run_bcast(lambda: Xhc(chunk_size=512), nranks=8, size=10_000,
                       iters=2)
    assert_bcast_correct(out, 8, 101)


def test_per_level_chunk_sizes():
    # 16 ranks on the mini topology build 3 levels (numa, socket, top).
    out, _ = run_bcast(lambda: Xhc(chunk_size=(1024, 4096, 16384)),
                       nranks=16, size=20_000, iters=2)
    assert_bcast_correct(out, 16, 101)


def test_chunk_tuple_depth_mismatch_rejected():
    """Regression: a per-level tuple that does not match the built
    hierarchy's depth must fail loudly at setup, not misbehave inside
    the collective."""
    from repro.errors import ConfigError

    node = Node(small_topo())
    world = World(node, 16)
    with pytest.raises(ConfigError, match="per-level"):
        world.communicator(Xhc(chunk_size=(1024, 4096)))


def test_flag_layout_variants_correct():
    for layout in ("single", "multi-shared", "multi-separate"):
        for hierarchy in ("flat", "numa+socket"):
            out, _ = run_bcast(
                lambda: Xhc(hierarchy=hierarchy, flag_layout=layout),
                nranks=8, size=256, iters=3)
            assert_bcast_correct(out, 8, 102)


def test_multi_shared_uses_one_line_per_leader():
    node = Node(small_topo())
    world = World(node, 8)
    comp = Xhc(hierarchy="flat", flag_layout="multi-shared")
    comm = world.communicator(comp)

    def program(comm_, ctx):
        buf = ctx.alloc("b", 64)
        yield from comm_.bcast(ctx, buf.whole(), 0)
    comm.run(program)
    lines = {f.line.id for f in comp._avail_multi.values()}
    assert len(lines) == 1


def test_multi_separate_uses_one_line_per_child():
    node = Node(small_topo())
    world = World(node, 8)
    comp = Xhc(hierarchy="flat", flag_layout="multi-separate")
    comm = world.communicator(comp)

    def program(comm_, ctx):
        buf = ctx.alloc("b", 64)
        yield from comm_.bcast(ctx, buf.whole(), 0)
    comm.run(program)
    lines = {f.line.id for f in comp._avail_multi.values()}
    assert len(lines) == 7


def test_message_pattern_is_root_invariant():
    """Table II: XHC-tree's edge distances do not change with the root."""
    from repro.sim.trace import count_message_distances

    def pattern(root):
        out, node = run_bcast(Xhc, nranks=16, size=2048, iters=1, root=root,
                              observe="spans")
        return count_message_distances(node, unique_edges=False)
    assert pattern(0) == pattern(9)


def test_varying_sizes_across_ops():
    """CICO and single-copy ops interleave on one communicator."""
    node = Node(small_topo())
    world = World(node, 8)
    comm = world.communicator(Xhc())

    def program(comm_, ctx):
        me = comm_.rank_of(ctx)
        for it, size in enumerate([64, 40_000, 512, 9_000, 100]):
            buf = ctx.alloc(f"b{it}", size)
            if me == 0:
                buf.fill(it + 1)
            yield from comm_.bcast(ctx, buf.whole(), 0)
            assert np.all(buf.data == it + 1)
    comm.run(program)


def test_deferred_ack_ring_reuses_slots_safely():
    """More back-to-back CICO ops than ring slots, values must not tear."""
    node = Node(small_topo())
    world = World(node, 8)
    comm = world.communicator(Xhc(cico_ring=2))

    def program(comm_, ctx):
        me = comm_.rank_of(ctx)
        buf = ctx.alloc("b", 128)
        for it in range(10):
            if me == 0:
                buf.fill(it)
            yield from comm_.bcast(ctx, buf.whole(), 0)
            assert np.all(buf.data == it), f"iteration {it} torn"
    comm.run(program)


def test_zero_and_single_rank_degenerate():
    node = Node(small_topo())
    world = World(node, 1)
    comm = world.communicator(Xhc())

    def program(comm_, ctx):
        buf = ctx.alloc("b", 64)
        yield from comm_.bcast(ctx, buf.whole(), 0)
        yield P.Compute(0)
    comm.run(program)


# -- the registry name travels with the instance ---------------------------

@pytest.mark.parametrize("name", ["xhc-tree", "xhc-flat", "xhc-tuned"])
def test_refusal_names_the_registry_component(name):
    from repro.bench.components import make_component
    from repro.errors import ConfigError
    from repro.shmem.smsc import SmscConfig

    node = Node(small_topo())
    world = World(node, 8, smsc=SmscConfig(mechanism=None))
    comm = world.communicator(make_component(name))

    def program(comm_, ctx):
        buf = ctx.alloc("b", 65536)
        yield from comm_.bcast(ctx, buf.whole(), 0)
    with pytest.raises(ConfigError,
                       match=f"^{name} bcast of 65536 bytes needs"):
        comm.run(program)


@pytest.mark.parametrize("name", ["xhc-tree", "xhc-flat", "xhc-tuned"])
def test_collective_spans_carry_the_registry_name(name):
    from repro.bench.components import make_component
    from repro.options import RunOptions

    node = Node(small_topo(), options=RunOptions(observe="spans"))
    world = World(node, 4)
    comm = world.communicator(make_component(name))

    def program(comm_, ctx):
        buf = ctx.alloc("b", 4096)
        yield from comm_.bcast(ctx, buf.whole(), 0)
    comm.run(program)
    comps = {rec.args["comp"] for rec in node.obs.spans
             if rec.name == "coll.bcast"}
    assert comps == {name}


def test_explicit_config_keeps_the_generic_name():
    from repro.exec.worker import resolve_component
    assert Xhc().name == "xhc"
    assert resolve_component("xhc", {"hierarchy": "flat"})().name == "xhc"
    assert resolve_component(
        "xhc-flat", {"hierarchy": "flat"})().name == "xhc-flat"
