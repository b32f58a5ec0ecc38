#!/usr/bin/env python3
"""Model your own machine and inspect XHC's hierarchy on it.

Builds a hypothetical future node (4 sockets, 4 NUMA domains each, 6-core
LLC groups), shows how XHC's sensitivity string shapes the communication
hierarchy, and counts the message distances of a broadcast — the Table II
methodology applied to a machine that does not exist yet.

Run:  python examples/custom_topology.py
"""

from collections import Counter

from repro.bench.report import render_rows
from repro.mpi import World
from repro.node import Node
from repro.options import RunOptions
from repro.topology import build_symmetric
from repro.topology.distance import message_distance_label
from repro.xhc import Xhc, XhcConfig, build_hierarchy


def main() -> None:
    topo = build_symmetric(
        "quad-socket-future",
        sockets=4,
        numa_per_socket=4,
        cores_per_numa=6,
        cores_per_llc=3,
    )
    print(f"Custom machine: {topo.describe()}\n")

    for sensitivity in ("flat", "numa", "numa+socket", "l3+numa+socket"):
        cfg = XhcConfig(hierarchy=sensitivity)
        hier = build_hierarchy(topo, list(range(topo.n_cores)),
                               cfg.tokens(), root=0)
        print(f"sensitivity={sensitivity!r:18} -> {hier.describe()}")

    print("\nBroadcast message distances per sensitivity (96 ranks, 1 MB):")
    rows = []
    for sensitivity in ("flat", "numa", "numa+socket"):
        node = Node(topo, options=RunOptions(data_movement=False))
        world = World(node, topo.n_cores)
        comm = world.communicator(Xhc(hierarchy=sensitivity))

        def program(comm_, ctx):
            buf = ctx.alloc("b", 1 << 20)
            yield from comm_.bcast(ctx, buf.whole(), 0)

        comm.run(program)
        counts = Counter()
        for _t, label, meta in node.engine.trace:
            if label == "message":
                counts[message_distance_label(topo, meta["src"],
                                              meta["dst"])] += 1
        rows.append([sensitivity, counts["inter-socket"],
                     counts["inter-numa"], counts["intra-numa"],
                     f"{node.engine.now * 1e6:.1f}"])
    print(render_rows("Distances and completion time",
                      ["sensitivity", "inter-socket", "inter-numa",
                       "intra-numa", "sim_us"], rows))


if __name__ == "__main__":
    main()
