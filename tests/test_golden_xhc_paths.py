"""Golden snapshots of XHC's pipelined chunk loops, variant by variant.

XHC's fan-out pull, per-member reduction and reduce monitor (SSIV-A/B,
Fig. 5) each run in one of three forms: the copy-in-copy-out loop at or
below ``cico_threshold``, a lowered :class:`~repro.sim.primitives.ChunkRun`
when the SMSC endpoint is XPMEM with an unbounded registration cache, and
a plain per-chunk ``copy_from``/``reduce_from`` loop otherwise. The event
engine must price all of them exactly as the per-chunk primitive stream
they stand for. ``tests/golden/latency_xhc_paths.json`` pins, per cell:

- the latency as ``float.hex`` and the engine's ``events_processed``;
- each rank's registration-cache ``(hits, misses, evictions)``;
- for observed, checked and data-moving cells, SHA-256 digests of the
  span and wait records (waker pids included, made relative to the
  run's first process), the critical path, the metrics, the sanitizer
  findings and every rank's result bytes.

The cells vary one dimension at a time around xhc-tree and xhc-flat on
a 16-core two-socket machine: flag layout, scalar or per-level chunk
size, SMSC mechanism (xpmem, xpmem without registration cache, cma,
knem, and caches bounded at 2 and 64 entries), collective and root, and
size (at and just above ``cico_threshold``, one chunk, several chunks
with an odd tail). A request the SMSC cannot serve is pinned as its
error class. Array-engine cells cover the default SMSC; they pin the
latency and event count, and their registration-cache counts must equal
the event engine's.

A span's ``comp`` argument (the component's registry name) is left out
of the span digest; tests/test_xhc_bcast.py pins it.

Regenerate with ``PYTHONPATH=src python tests/test_golden_xhc_paths.py
--record`` only when simulated semantics change on purpose (which also
needs a SIM_VERSION bump, see tests/test_golden_latency.py).
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import small_topo
from repro.bench.components import make_component
from repro.errors import ConfigError
from repro.mpi import FLOAT, SUM, World
from repro.node import Node
from repro.options import RunOptions
from repro.shmem.smsc import SmscConfig
from repro.sim import primitives as P
from repro.xhc import Xhc, XhcConfig

FIXTURE = Path(__file__).parent / "golden" / "latency_xhc_paths.json"

NRANKS = 16
CICO = XhcConfig().cico_threshold
# At the threshold (CICO), just above it (one chunk), one full chunk,
# and three chunks plus an odd tail.
SIZES = (CICO, CICO + 4, 16 * 1024, 3 * 16 * 1024 + 1028)
ABOVE = SIZES[1:]

COMPONENTS = {
    "xhc-tree": None,
    "xhc-flat": None,
    "xhc-tuned": None,
    "tree-multi-shared": {"hierarchy": "numa+socket",
                          "flag_layout": "multi-shared"},
    "tree-multi-separate": {"hierarchy": "numa+socket",
                            "flag_layout": "multi-separate"},
    "flat-multi-shared": {"hierarchy": "flat",
                          "flag_layout": "multi-shared"},
    "tree-per-level": {"hierarchy": "numa+socket",
                       "chunk_size": (4096, 8192, 16384)},
    "flat-per-level": {"hierarchy": "flat", "chunk_size": (4096,)},
}

SMSC = {
    "xpmem": None,
    "xpmem-norc": SmscConfig(use_regcache=False),
    "cma": SmscConfig(mechanism="cma"),
    "knem": SmscConfig(mechanism="knem"),
    "rc2": SmscConfig(regcache_capacity=2),
    "rc64": SmscConfig(regcache_capacity=64),
}

# (collective, root); allreduce has no root.
OPS = (("bcast", 0), ("bcast", NRANKS - 1), ("allreduce", 0),
       ("reduce", 0), ("reduce", NRANKS - 1))


def _cell(engine, comp, smsc, coll, root, size, mode="plain",
          nranks=NRANKS):
    return {"engine": engine, "comp": comp, "smsc": smsc, "coll": coll,
            "root": root, "size": size, "mode": mode, "nranks": nranks}


def _cells() -> list[dict]:
    cells = []
    # Every SMSC variant on the two registry components.
    for comp in ("xhc-tree", "xhc-flat"):
        for smsc in SMSC:
            for coll, root in OPS:
                for size in (SIZES if smsc == "xpmem" else ABOVE):
                    cells.append(_cell("event", comp, smsc, coll, root,
                                       size))
    # Flag layouts and per-level chunks on the default SMSC; ten ranks
    # leave one NUMA leader with a single child.
    for comp in COMPONENTS:
        if COMPONENTS[comp] is None:
            continue
        for coll, root in OPS:
            for size in (SIZES[0], SIZES[-1]):
                cells.append(_cell("event", comp, "xpmem", coll, root,
                                   size))
    for comp in ("tree-multi-shared", "tree-multi-separate"):
        for coll, root in (("bcast", 0), ("allreduce", 0)):
            cells.append(_cell("event", comp, "xpmem", coll, root,
                               SIZES[-1], nranks=10))
    # Observed, checked and data-moving runs.
    for comp in ("xhc-tree", "xhc-flat", "tree-multi-separate"):
        for coll, root in (("bcast", NRANKS - 1), ("allreduce", 0),
                           ("reduce", NRANKS - 1)):
            for size in (SIZES[0], SIZES[-1]):
                for mode in ("observe", "check", "data"):
                    cells.append(_cell("event", comp, "xpmem", coll, root,
                                       size, mode))
        for mode in ("observe", "check"):
            cells.append(_cell("event", comp, "xpmem-norc", "allreduce",
                               0, SIZES[-1], mode))
    # The array engine on the default SMSC.
    for comp in COMPONENTS:
        if comp == "xhc-tuned":
            continue
        for coll, root in OPS:
            sizes = SIZES if COMPONENTS[comp] is None \
                else (SIZES[0], SIZES[-1])
            for size in sizes:
                cells.append(_cell("array", comp, "xpmem", coll, root,
                                   size))
    return cells


def cell_id(cell: dict) -> str:
    return (f"{cell['engine']}/{cell['comp']}/{cell['smsc']}/"
            f"{cell['coll']}@{cell['root']}/{cell['size']}/"
            f"{cell['mode']}/n{cell['nranks']}")


CELLS = _cells()
TOPO = small_topo()


def _component(comp: str):
    config = COMPONENTS[comp]
    if config is None:
        return make_component(comp)
    return Xhc(config=XhcConfig(**config))


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _hex(x):
    return None if x is None else float.hex(x)


def _observed_digests(node, pid0: int) -> dict:
    from repro.obs.critical_path import critical_path

    def rel(track):
        return None if track is None or track < 0 else track - pid0

    obs = node.obs
    spans = []
    for rec in obs.spans:
        args = dict(rec.args or {})
        args.pop("comp", None)
        if "waker" in args:
            args["waker"] = rel(args["waker"])
        spans.append([rec.id, rec.name, rec.cat, rel(rec.track),
                      _hex(rec.start), _hex(rec.end), rec.parent,
                      sorted((k, repr(v)) for k, v in args.items())])
    waits = [[rel(w.track), w.target, w.kind, _hex(w.start), _hex(w.end),
              rel(w.waker), _hex(w.woke_at)] for w in obs.waits]
    report = critical_path(node).to_json()
    for step in report["steps"]:
        step["track"] = rel(step["track"])
        step["start_s"] = _hex(step["start_s"])
        step["end_s"] = _hex(step["end_s"])
    report["end_track"] = rel(report["end_track"])
    report["total_s"] = _hex(report["total_s"])
    for phase in report["phases"]:
        phase["seconds"] = _hex(phase["seconds"])
        phase["share"] = _hex(phase["share"])
    return {"spans": _digest(spans), "waits": _digest(waits),
            "critical_path": _digest(report),
            "metrics": _digest(obs.metrics.snapshot())}


def measure(cell: dict) -> dict:
    """Run one cell: warmup 0, two measured operations, every rank's
    send buffer rewritten (simulated) before each one. ``size`` is the
    payload of bcast and the reductions and the per-rank block of
    gather, scatter and allgather."""
    mode = cell["mode"]
    options = RunOptions(
        engine=cell["engine"], data_movement=mode == "data",
        observe="full" if mode == "observe" else None,
        check="full" if mode == "check" else None)
    node = Node(TOPO, options=options)
    world = World(node, cell["nranks"], smsc=SMSC[cell["smsc"]])
    comm = world.communicator(_component(cell["comp"]))
    coll, root, size = cell["coll"], cell["root"], cell["size"]
    samples = []
    results = {}

    def program(comm_, ctx):
        me = comm_.rank_of(ctx)
        n = comm_.size
        ssize = size * n if coll == "scatter" else size
        rsize = size * n if coll in ("gather", "allgather") else size
        scratch = ctx.alloc("t.scratch", ssize)
        sbuf = ctx.alloc("t.sbuf", ssize) \
            if coll != "scatter" or me == root else None
        rbuf = ctx.alloc("t.rbuf", rsize) \
            if coll not in ("reduce", "gather") or me == root else None
        for it in range(2):
            if sbuf is not None and (coll != "bcast" or me == root):
                yield P.Copy(src=scratch.whole(), dst=sbuf.whole())
                if sbuf.data is not None:
                    sbuf.view().as_dtype(np.float32)[:] = me + 1 + it
            t0 = ctx.now
            if coll in ("gather", "scatter"):
                yield from getattr(comm_, coll)(
                    ctx, None if sbuf is None else sbuf.whole(),
                    None if rbuf is None else rbuf.whole(), root)
            elif coll == "allgather":
                yield from comm_.allgather(ctx, sbuf.whole(), rbuf.whole())
            elif coll == "bcast":
                yield from comm_.bcast(ctx, sbuf.whole(), root)
            elif coll == "allreduce":
                yield from comm_.allreduce(ctx, sbuf.whole(), rbuf.whole(),
                                           SUM, FLOAT)
            else:
                yield from comm_.reduce(
                    ctx, sbuf.whole(),
                    None if rbuf is None else rbuf.whole(), SUM, FLOAT,
                    root)
            samples.append(ctx.now - t0)
        out = sbuf if coll == "bcast" else rbuf
        if out is not None and out.data is not None:
            results[me] = hashlib.sha256(out.data.tobytes()).hexdigest()

    comm.launch(program)
    pid0 = node.engine.processes[0].pid
    try:
        node.engine.run()
    except ConfigError:
        return {"error": "ConfigError"}
    rec = {
        "latency": float.hex(sum(samples) / len(samples)),
        "events": node.engine.events_processed,
        "regcache": [[r.smsc.regcache.hits, r.smsc.regcache.misses,
                      r.smsc.regcache.evictions] for r in world.ranks],
    }
    if mode == "observe":
        rec["digests"] = _observed_digests(node, pid0)
    elif mode == "check":
        rec["digests"] = {
            "findings": _digest(
                [f.to_dict() for f in node.check_report])}
    elif mode == "data":
        rec["digests"] = {"results": _digest(results)}
    return rec


def _fixture() -> dict:
    with open(FIXTURE, "r", encoding="utf-8") as fh:
        return json.load(fh)


GOLDEN = _fixture() if FIXTURE.exists() else {"cells": {}}


def test_fixture_covers_every_cell():
    assert sorted(GOLDEN["cells"]) == sorted(cell_id(c) for c in CELLS)


@pytest.mark.parametrize("cell", CELLS, ids=[cell_id(c) for c in CELLS])
def test_xhc_path_golden(cell):
    got = measure(cell)
    if cell["engine"] == "array":
        # The array engine's registration-cache counts are the event
        # engine's: one lookup per chunk and foreign operand.
        twin = GOLDEN["cells"][cell_id(dict(cell, engine="event"))]
        assert got.pop("regcache") == twin["regcache"]
    assert got == GOLDEN["cells"][cell_id(cell)]


def write_cells(path: Path, cells: dict, **header: str) -> None:
    """Write a fixture with one line per cell."""
    lines = [f" {json.dumps(k)}: {json.dumps(v)}," for k, v in
             sorted(header.items())]
    lines.append(' "cells": {')
    lines.append(",\n".join(f"  {json.dumps(k)}: "
                            f"{json.dumps(v, sort_keys=True)}"
                            for k, v in sorted(cells.items())))
    path.write_text("{\n" + "\n".join(lines) + "\n }\n}\n",
                    encoding="utf-8")


def record() -> None:
    cells = {cell_id(c): measure(c) for c in CELLS}
    for cid, rec in cells.items():
        if cid.startswith("array/"):
            rec.pop("regcache", None)
    write_cells(
        FIXTURE, cells,
        note="See tests/test_golden_xhc_paths.py. Latencies are float.hex; "
             "regcache is per rank [hits, misses, evictions]; array cells "
             "take their regcache counts from the event cell of the same "
             "parameters.",
        topology="small_topo(): 2 sockets x 2 NUMA x 4 cores")
    print(f"wrote {len(cells)} cells to {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        record()
    else:
        print(__doc__)
