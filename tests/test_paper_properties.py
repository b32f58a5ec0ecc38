"""End-to-end shape assertions for the paper's headline claims.

These run the actual figure drivers in quick mode and assert the
qualitative relationships the paper reports — who wins, in which regime,
and roughly by how much. EXPERIMENTS.md records the quantitative runs.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.bench import (fig1a_domains, fig1b_congestion, fig4_atomics,
                         table2_message_counts)
from repro.bench.components import COMPONENTS
from repro.bench.osu import run_collective

pytestmark = pytest.mark.slow


def test_fig1a_distance_ordering():
    res = fig1a_domains(quick=True)
    for system in ("epyc-1p", "epyc-2p"):
        assert res.data[(system, "cache-local")] \
            < res.data[(system, "intra-numa")] \
            < res.data[(system, "cross-numa")]
    assert res.data[("epyc-2p", "cross-numa")] \
        < res.data[("epyc-2p", "cross-socket")]
    # ARM-N1: intra- and cross-NUMA effectively identical (SSIII-A).
    arm_ratio = (res.data[("arm-n1", "cross-numa")]
                 / res.data[("arm-n1", "intra-numa")])
    assert arm_ratio < 1.05


def test_fig1b_flat_congests_hierarchy_does_not():
    res = fig1b_congestion(quick=True)
    flat_growth = res.data[("flat", 32)] / res.data[("flat", 8)]
    hier_growth = (res.data[("hierarchical", 32)]
                   / res.data[("hierarchical", 8)])
    assert flat_growth > 3.0
    assert hier_growth < 2.0


def test_fig4_atomics_collapse():
    res = fig4_atomics(quick=True)
    ratio_at_160 = res.data[("atomics", 160)] / res.data[("single-writer", 160)]
    ratio_at_10 = res.data[("atomics", 10)] / res.data[("single-writer", 10)]
    assert ratio_at_160 > 8      # paper: 23x; shape = drastic divergence
    assert ratio_at_160 > ratio_at_10 * 2


def test_table2_xhc_invariance_and_tuned_sensitivity():
    res = table2_message_counts(quick=True)
    xhc_rows = [res.data[("xhc-tree", s)] for s in
                ("map-core", "map-numa", "root=10")]
    assert all(r == xhc_rows[0] for r in xhc_rows)
    assert xhc_rows[0] == {"intra-numa": 56, "inter-numa": 6,
                           "inter-socket": 1}
    tuned_core = res.data[("tuned", "map-core")]
    tuned_numa = res.data[("tuned", "map-numa")]
    assert tuned_numa["inter-socket"] > tuned_core["inter-socket"]
    assert tuned_numa["inter-numa"] > tuned_core["inter-numa"]
    # Read from the observer's message instants, the table renders
    # exactly what the benchmarks committed.
    root = Path(__file__).resolve().parent.parent
    committed = (root / "results" / "table2.txt").read_text(encoding="utf-8")
    assert res.text + "\n" == committed


def test_small_message_flat_vs_tree_epyc_vs_arm():
    """SSV-D1: on the Epycs, the LLC-assisted flag propagation keeps
    XHC-flat competitive with XHC-tree for small messages (the paper even
    finds it slightly ahead; our model reproduces the near-parity, see
    EXPERIMENTS.md); on ARM-N1 flat collapses outright (no shared LLC —
    every reader queues at the single home of the root's flag)."""
    def lat(system, nranks, comp):
        return run_collective("bcast", system, nranks, COMPONENTS[comp], 4,
                              warmup=2, iters=6)
    flat_epyc = lat("epyc-1p", 32, "xhc-flat")
    tree_epyc = lat("epyc-1p", 32, "xhc-tree")
    assert flat_epyc < tree_epyc * 2
    flat_arm = lat("arm-n1", 160, "xhc-flat")
    tree_arm = lat("arm-n1", 160, "xhc-tree")
    assert tree_arm < flat_arm
    assert flat_arm / tree_arm > 3
    # The divergence is the machine's, not the algorithm's: flat degrades
    # far more on ARM-N1 than on Epyc-1P relative to its tree variant.
    assert (flat_arm / tree_arm) > (flat_epyc / tree_epyc) * 2


def test_fig10_flag_cacheline_placement():
    """Fig. 10: packing per-member flags on one line keeps the flat tree
    fast (hardware assist); separating the lines serializes the fan-in at
    the leader; the hierarchical tree barely cares either way."""
    from repro.xhc import Xhc

    def lat(hierarchy, layout):
        return run_collective(
            "bcast", "epyc-1p", 32,
            lambda: Xhc(hierarchy=hierarchy, flag_layout=layout),
            4, warmup=2, iters=6)
    flat_shared = lat("flat", "multi-shared")
    flat_sep = lat("flat", "multi-separate")
    tree_shared = lat("numa+socket", "multi-shared")
    tree_sep = lat("numa+socket", "multi-separate")
    assert flat_sep > flat_shared * 1.1
    assert abs(tree_sep - tree_shared) / tree_shared < 0.25


def test_bcast_xhc_tree_beats_shared_memory_schemes():
    """Fig. 8: single-copy + hierarchy vs CICO schemes at large sizes."""
    size = 1 << 20
    xhc = run_collective("bcast", "epyc-1p", 32, COMPONENTS["xhc-tree"],
                         size, warmup=1, iters=3)
    smhc = run_collective("bcast", "epyc-1p", 32, COMPONENTS["smhc-flat"],
                          size, warmup=1, iters=3)
    sm = run_collective("bcast", "epyc-1p", 32, COMPONENTS["sm"],
                        size, warmup=1, iters=3)
    assert xhc < smhc / 2
    assert xhc < sm / 3


def test_allreduce_xhc_tree_leads_midrange():
    """Fig. 11: XHC-tree ahead of tuned/ucc/xbrc at 64 KiB."""
    size = 64 * 1024
    lats = {
        comp: run_collective("allreduce", "epyc-2p", 64, COMPONENTS[comp],
                             size, warmup=1, iters=3)
        for comp in ("tuned", "ucc", "xbrc", "xhc-flat", "xhc-tree")
    }
    assert lats["xhc-tree"] == min(lats.values())
    assert lats["xbrc"] > lats["xhc-tree"] * 2
    # XBRC behaves like XHC-flat (both flat, single-copy; SSV-D2).
    assert 0.3 < lats["xbrc"] / lats["xhc-flat"] < 3


def test_sm_catastrophic_on_arm():
    """Fig. 8c/11c: atomics-based sm is prohibitive on the dense node."""
    sm = run_collective("bcast", "arm-n1", 160, COMPONENTS["sm"], 4,
                        warmup=1, iters=2)
    tuned = run_collective("bcast", "arm-n1", 160, COMPONENTS["tuned"], 4,
                           warmup=1, iters=2)
    assert sm > tuned * 20


def test_regcache_hit_ratio_high_in_apps():
    """SSV-D3: stable buffers make the registration cache >99% effective."""
    from repro.mpi import World, SUM, FLOAT
    from repro.node import Node
    from repro.options import RunOptions
    from repro.topology import get_system
    from repro.sim import primitives as P
    node = Node(get_system("epyc-1p"), options=RunOptions(data_movement=False))
    world = World(node, 16)
    from repro.xhc import Xhc
    comm = world.communicator(Xhc())

    def program(comm_, ctx):
        s = ctx.alloc("s", 64 * 1024)
        r = ctx.alloc("r", 64 * 1024)
        for _ in range(30):
            yield from comm_.allreduce(ctx, s.whole(), r.whole(), SUM, FLOAT)
    comm.run(program)
    ratios = [ctx.smsc.regcache.hit_ratio for ctx in world.ranks
              if ctx.smsc.regcache.hits + ctx.smsc.regcache.misses > 0]
    assert ratios and min(ratios) > 0.9
