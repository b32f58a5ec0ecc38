"""Ablation — Iallreduce vs Allreduce in the CNTK loop (SSV-D3).

The paper replaces CNTK's non-blocking Iallreduce with the blocking
Allreduce after determining the swap does not sacrifice performance (CNTK
waits on the request immediately, so there is nothing to overlap). This
target verifies that claim holds in the reproduction — and that when
compute *is* overlapped, the non-blocking form does win, i.e. the
machinery itself is sound.
"""

import numpy as np

from repro.bench.figures import FigureResult
from repro.bench.report import render_rows
from repro.mpi import FLOAT, SUM, World
from repro.node import Node
from repro.options import RunOptions
from repro.sim import primitives as P
from repro.topology import get_system
from repro.xhc import Xhc

from conftest import QUICK, regenerate

GRAD = 2 << 20
STEPS = 4
COMPUTE = 2e-3


def _epoch(mode: str, nranks: int) -> float:
    """mode: 'blocking' | 'iallreduce-wait' (CNTK's actual pattern) |
    'iallreduce-overlap' (what the primitive could do)."""
    node = Node(get_system("epyc-2p"), options=RunOptions(data_movement=False))
    world = World(node, nranks)
    comm = world.communicator(Xhc())

    def program(comm_, ctx):
        s = ctx.alloc("s", GRAD)
        r = ctx.alloc("r", GRAD)
        scratch = ctx.alloc("scr", GRAD)
        yield from comm_.allreduce(ctx, s.whole(), r.whole(), SUM, FLOAT)
        for _ in range(STEPS):
            yield P.Copy(src=scratch.whole(), dst=s.whole())
            if mode == "blocking":
                yield from comm_.allreduce(ctx, s.whole(), r.whole(),
                                           SUM, FLOAT)
                yield P.Compute(COMPUTE)
            elif mode == "iallreduce-wait":
                req = comm_.iallreduce(ctx, s.whole(), r.whole(), SUM, FLOAT)
                yield from req.wait()       # CNTK waits immediately
                yield P.Compute(COMPUTE)
            else:  # iallreduce-overlap
                req = comm_.iallreduce(ctx, s.whole(), r.whole(), SUM, FLOAT)
                yield P.Compute(COMPUTE)    # overlapped forward pass
                yield from req.wait()

    procs = comm.run(program)
    return max(p.finish_time for p in procs)


def _run(quick=False):
    nranks = 32 if quick else 64
    rows = []
    data = {}
    for mode in ("blocking", "iallreduce-wait", "iallreduce-overlap"):
        t = _epoch(mode, nranks)
        rows.append([mode, t * 1e3])
        data[mode] = t
    text = render_rows("Ablation — CNTK's Iallreduce replacement "
                       "(Epyc-2P)", ["mode", "epoch_ms"], rows)
    return FigureResult("ablation_iallreduce", text, data)


def test_ablation_iallreduce(benchmark, record_figure):
    res = regenerate(benchmark, _run, record_figure, quick=QUICK)
    d = res.data
    # The paper's claim: wait-immediately Iallreduce == blocking Allreduce.
    assert abs(d["iallreduce-wait"] - d["blocking"]) / d["blocking"] < 0.1
    # And genuine overlap does help, so the equivalence above is a
    # property of CNTK's call pattern, not of a broken primitive.
    assert d["iallreduce-overlap"] < d["blocking"] * 0.95
