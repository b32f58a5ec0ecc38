#!/usr/bin/env python3
"""Data-parallel SGD on a simulated node (the Fig. 14 scenario).

Runs a CNTK-style training loop — compute a minibatch, allreduce the
gradients — against two collective stacks and reports where the time goes,
including the XPMEM registration-cache statistics that explain why
single-copy transport suits iterative applications (SSV-D3: hit ratios
above 99%).

Run:  python examples/ml_training.py
"""

import numpy as np

from repro.mpi import FLOAT, SUM, World
from repro.mpi.colls import Tuned
from repro.node import Node
from repro.options import RunOptions
from repro.sim import primitives as P
from repro.topology import get_system
from repro.xhc import Xhc

GRADIENT_BYTES = 4 << 20
MINIBATCHES = 4
COMPUTE = 6e-3


def train(component_factory, label):
    node = Node(get_system("arm-n1"), options=RunOptions(data_movement=False))
    world = World(node, 160)
    comm = world.communicator(component_factory())
    spent = []
    warm = []

    def program(comm_, ctx):
        grads = ctx.alloc("grads", GRADIENT_BYTES)
        avg = ctx.alloc("avg", GRADIENT_BYTES)
        scratch = ctx.alloc("scratch", GRADIENT_BYTES)
        inside = 0.0
        # Warm-up step: establish the mappings real training amortizes.
        yield from comm_.allreduce(ctx, grads.whole(), avg.whole(),
                                   SUM, FLOAT)
        warm.append(ctx.now)
        for _ in range(MINIBATCHES):
            yield P.Compute(COMPUTE)                       # fwd+bwd pass
            yield P.Copy(src=scratch.whole(), dst=grads.whole())
            t0 = ctx.now
            yield from comm_.allreduce(ctx, grads.whole(), avg.whole(),
                                       SUM, FLOAT)
            inside += ctx.now - t0
        spent.append(inside)

    procs = comm.run(program)
    total = max(p.finish_time for p in procs) - max(warm)
    coll = float(np.mean(spent))
    hits = sum(c.smsc.regcache.hits for c in world.ranks)
    misses = sum(c.smsc.regcache.misses for c in world.ranks)
    ratio = hits / (hits + misses) if hits + misses else float("nan")
    print(f"{label:10}  epoch={total * 1e3:7.2f} ms   "
          f"allreduce={coll * 1e3:6.2f} ms ({100 * coll / total:4.1f}%)   "
          f"regcache hit ratio={ratio:.3f}")
    return total


def main() -> None:
    print(f"AlexNet-scale SGD: {MINIBATCHES} minibatches, "
          f"{GRADIENT_BYTES >> 20} MB gradients, 160 ranks on ARM-N1\n")
    t_tuned = train(Tuned, "tuned")
    t_xhc = train(Xhc, "xhc-tree")
    print(f"\nspeedup of xhc-tree over tuned: {t_tuned / t_xhc:.2f}x")


if __name__ == "__main__":
    main()
