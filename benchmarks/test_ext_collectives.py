"""Extension — Gather/Scatter/Allgather, single-copy vs p2p trees.

The paper's conclusions sketch extending XHC to further primitives
(SSVII); the follow-up literature ([47]) builds shared-address-space
versions of exactly these. This target compares our XHC extensions against
the `tuned` baselines.
"""

from repro.bench.figures import FigureResult
from repro.bench.report import render_rows
from repro.mpi import World
from repro.node import Node
from repro.options import RunOptions
from repro.topology import get_system
from repro.bench.components import COMPONENTS

from conftest import QUICK, regenerate


def _latency(kind: str, comp: str, nranks: int, block: int,
             iters: int) -> float:
    node = Node(get_system("epyc-1p"), options=RunOptions(data_movement=False))
    world = World(node, nranks)
    comm = world.communicator(COMPONENTS[comp]())
    import numpy as np
    samples = []

    def program(comm_, ctx):
        me = comm_.rank_of(ctx)
        s = ctx.alloc("s", block)
        big = ctx.alloc("big", block * nranks)
        for it in range(iters + 1):
            t0 = ctx.now
            if kind == "gather":
                yield from comm_.gather(
                    ctx, s.whole(), big.whole() if me == 0 else None, 0)
            elif kind == "scatter":
                yield from comm_.scatter(
                    ctx, big.whole() if me == 0 else None, s.whole(), 0)
            else:
                yield from comm_.allgather(ctx, s.whole(), big.whole())
            if it > 0:
                samples.append(ctx.now - t0)

    comm.run(program)
    return float(np.mean(samples))


def _run(quick=False):
    nranks = 16 if quick else 32
    iters = 2 if quick else 4
    rows = []
    data = {}
    for kind in ("gather", "scatter", "allgather"):
        for block in (256, 65536):
            for comp in ("tuned", "xhc-tree"):
                lat = _latency(kind, comp, nranks, block, iters)
                rows.append([kind, block, comp, lat * 1e6])
                data[(kind, block, comp)] = lat
    text = render_rows(
        "Extension — Gather/Scatter/Allgather: single-copy vs p2p "
        "(Epyc-1P)",
        ["collective", "block", "component", "latency_us"], rows)
    return FigureResult("ext_collectives", text, data)


def test_ext_collectives(benchmark, record_figure):
    res = regenerate(benchmark, _run, record_figure, quick=QUICK)
    d = res.data
    # Large blocks: direct single-copy reads beat store-and-forward trees
    # for the rooted collectives (one producer or one consumer)...
    for kind in ("gather", "scatter"):
        assert d[(kind, 65536, "xhc-tree")] < d[(kind, 65536, "tuned")], kind
    # ...but NOT for allgather at full scale: the direct scheme's N^2
    # fan-in loses to the bandwidth-optimal ring at large blocks — an
    # honest negative result that motivates hierarchical staging for
    # allgather (cf. Ma et al. [23], who make exactly that case).
    assert d[("allgather", 256, "xhc-tree")] < d[("allgather", 256, "tuned")]
