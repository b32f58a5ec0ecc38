"""Analytical estimates vs the event simulation: agreement bands."""

import pytest

from repro.analysis import (chain_bcast_estimate, flat_bcast_estimate,
                            hierarchical_bcast_estimate, loggp_of,
                            p2p_estimate, ring_allreduce_estimate)
from repro.memory.model import model_for
from repro.node import Node
from repro.options import RunOptions
from repro.sim import primitives as P
from repro.topology import Distance, get_system

from conftest import small_topo


def simulate_copy(topo, reader_core, src_core, nbytes):
    node = Node(topo, options=RunOptions(data_movement=False))
    src = node.new_address_space(0, src_core).alloc("src", nbytes)
    dst = node.new_address_space(1, reader_core).alloc("dst", nbytes)
    out = {}

    def prog():
        t0 = node.engine.now
        yield P.Copy(src=src.whole(), dst=dst.whole())
        out["t"] = node.engine.now - t0
    node.engine.spawn(prog(), core=reader_core)
    node.engine.run()
    return out["t"]


@pytest.mark.parametrize("pair", [(0, 2), (0, 4), (0, 8)])
def test_p2p_agreement(pair):
    """Uncontended point-to-point within 40% of the closed form."""
    topo = small_topo()
    model = model_for(topo)
    nbytes = 1 << 20
    predicted = p2p_estimate(topo, model, pair[0], pair[1], nbytes)
    simulated = simulate_copy(topo, pair[1], pair[0], nbytes)
    assert predicted == pytest.approx(simulated, rel=0.4)


def test_flat_fanout_agreement():
    """Concurrent readers: simulation lands within 2x of the bound."""
    topo = get_system("epyc-1p")
    model = model_for(topo)
    nbytes = 1 << 20
    node = Node(topo, options=RunOptions(data_movement=False))
    src = node.new_address_space(0, 0).alloc("src", nbytes)
    finish = {}

    def prog(r):
        sp = node.new_address_space(r, r)
        dst = sp.alloc("dst", nbytes)
        yield P.Copy(src=src.whole(), dst=dst.whole())
        finish[r] = node.engine.now
    for r in range(1, 32):
        node.engine.spawn(prog(r), core=r)
    node.engine.run()
    simulated = max(finish.values())
    predicted = flat_bcast_estimate(topo, model, list(range(32)), 0, nbytes)
    assert predicted / 2 < simulated < predicted * 2.5


def test_chain_estimate_monotonic_and_ordered():
    topo = get_system("epyc-2p")
    model = model_for(topo)
    cores = list(range(16))
    small = chain_bcast_estimate(topo, model, cores, 1 << 16, 1 << 15)
    big = chain_bcast_estimate(topo, model, cores, 1 << 20, 1 << 15)
    assert big > small
    # Finer segments shorten the fill-dominated regime.
    coarse = chain_bcast_estimate(topo, model, cores, 1 << 20, 1 << 20)
    fine = chain_bcast_estimate(topo, model, cores, 1 << 20, 1 << 14)
    assert fine < coarse


def test_hierarchical_estimate_vs_flat():
    """The hierarchy's analytical bound beats the flat bound at scale —
    the Fig. 1b statement, in closed form."""
    topo = get_system("epyc-2p")
    model = model_for(topo)
    nbytes = 1 << 20
    flat = flat_bcast_estimate(topo, model, list(range(64)), 0, nbytes)
    hier = hierarchical_bcast_estimate(
        topo, model,
        [Distance.CROSS_SOCKET, Distance.CROSS_NUMA, Distance.INTRA_NUMA],
        nbytes, 16 * 1024)
    assert hier < flat


def test_ring_estimate_scales_with_steps():
    topo = get_system("epyc-1p")
    model = model_for(topo)
    t8 = ring_allreduce_estimate(topo, model, list(range(8)), 1 << 20)
    t32 = ring_allreduce_estimate(topo, model, list(range(32)), 1 << 20)
    assert t8 > 0 and t32 > 0
    # More ranks -> smaller slices but more steps; with per-step overhead
    # the large ring costs more.
    t32_oh = ring_allreduce_estimate(topo, model, list(range(32)), 1 << 20,
                                     overhead_per_step=2e-6)
    assert t32_oh > t32


def test_loggp_extraction():
    model = model_for(get_system("epyc-1p"))
    p = loggp_of(model, Distance.INTRA_NUMA)
    assert p.L == model.lat[Distance.INTRA_NUMA]
    assert p.transfer(0) == p.L
    # 12e9 bytes at 12 GB/s is one second of gap time.
    assert p.transfer(12_000_000_000) == pytest.approx(p.L + 1.0, rel=0.01)


def test_degenerate_inputs():
    topo = small_topo()
    model = model_for(topo)
    assert flat_bcast_estimate(topo, model, [0], 0, 100) == 0.0
    assert chain_bcast_estimate(topo, model, [0], 100, 10) == 0.0
    assert ring_allreduce_estimate(topo, model, [3], 100) == 0.0
    assert hierarchical_bcast_estimate(topo, model, [], 100, 10) == 0.0
