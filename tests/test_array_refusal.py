"""The array engine refuses XHC requests it cannot lower.

Above ``cico_threshold``, XHC's fan-out and reduction loops reach the
array engine only as :class:`~repro.sim.primitives.ChunkRun`, which
needs an SMSC endpoint that is XPMEM with an unbounded registration
cache. Any other SMSC config (cma, knem, XPMEM without the cache, a
bounded cache) would need the plain per-chunk loop, whose array-engine
answers no golden or parity envelope covers, so bcast, allreduce and
reduce raise :class:`~repro.errors.ConfigError` before the operation
yields anything. Everything next to that set answers as before: the
same requests at or below the threshold, on the event engine, and the
single-copy gather, scatter and allgather. Their answers are pinned in
``tests/golden/latency_array_refusal.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from test_golden_xhc_paths import (
    CICO, SIZES, SMSC, TOPO, _cell, cell_id, measure, write_cells)

from repro.bench.components import make_component
from repro.errors import ConfigError
from repro.exec import RunRequest
from repro.exec.worker import execute
from repro.mpi import FLOAT, SUM, World
from repro.node import Node
from repro.options import RunOptions
from repro.shmem.smsc import SmscConfig

FIXTURE = Path(__file__).parent / "golden" / "latency_array_refusal.json"

COMPS = ("xhc-tree", "xhc-flat", "xhc-tuned")
UNLOWERABLE = ("cma", "knem", "xpmem-norc", "rc64")
LOOPS = (("bcast", 0), ("allreduce", 0), ("reduce", 0))


def _neighbours() -> list[dict]:
    cells = []
    for comp in COMPS:
        for smsc in UNLOWERABLE:
            for coll, root in LOOPS:
                cells.append(_cell("array", comp, smsc, coll, root, CICO))
                cells.append(_cell("event", comp, smsc, coll, root,
                                   SIZES[-1]))
            for coll in ("gather", "scatter", "allgather"):
                cells.append(_cell("array", comp, smsc, coll, 0, 4096))
    return cells


NEIGHBOURS = _neighbours()
REFUSED = [_cell("array", comp, smsc, coll, root, size)
           for comp in COMPS for smsc in UNLOWERABLE
           for coll, root in LOOPS for size in SIZES[1:]]


@pytest.mark.parametrize("cell", REFUSED, ids=[cell_id(c) for c in REFUSED])
def test_array_refuses_loops_it_cannot_lower(cell):
    """Refused before the operation yields: each rank calls the
    collective first thing, so not one event is processed."""
    node = Node(TOPO, options=RunOptions(engine="array"))
    world = World(node, 8, smsc=SMSC[cell["smsc"]])
    comm = world.communicator(make_component(cell["comp"]))
    coll, size = cell["coll"], cell["size"]

    def program(comm_, ctx):
        sbuf = ctx.alloc("s", size)
        rbuf = ctx.alloc("r", size)
        if coll == "bcast":
            yield from comm_.bcast(ctx, sbuf.whole(), 0)
        elif coll == "allreduce":
            yield from comm_.allreduce(ctx, sbuf.whole(), rbuf.whole(),
                                       SUM, FLOAT)
        else:
            yield from comm_.reduce(ctx, sbuf.whole(), rbuf.whole(), SUM,
                                    FLOAT, 0)
    with pytest.raises(ConfigError,
                       match=f"^{cell['comp']} {coll} of {size} bytes "):
        comm.run(program)
    assert node.engine.events_processed == 0


def test_refused_request_through_the_executor():
    request = RunRequest(
        "epyc-1p", "allreduce", 65536, 16, component="xhc-flat",
        smsc=SmscConfig(use_regcache=False),
        options=RunOptions(data_movement=False, engine="array"))
    with pytest.raises(ConfigError, match="on the array engine needs xpmem "
                                          "with an unbounded registration"):
        execute(request)


def _answer(cell: dict) -> str:
    rec = measure(cell)
    return rec.get("error") or rec["latency"]


def _fixture() -> dict:
    with open(FIXTURE, "r", encoding="utf-8") as fh:
        return json.load(fh)


GOLDEN = _fixture() if FIXTURE.exists() else {"cells": {}}


@pytest.mark.parametrize("cell", NEIGHBOURS,
                         ids=[cell_id(c) for c in NEIGHBOURS])
def test_neighbours_of_the_refusal_answer_as_before(cell):
    assert _answer(cell) == GOLDEN["cells"][cell_id(cell)]


def test_fixture_covers_every_neighbour():
    assert sorted(GOLDEN["cells"]) == sorted(cell_id(c) for c in NEIGHBOURS)


def record() -> None:
    cells = {cell_id(c): _answer(c) for c in NEIGHBOURS}
    write_cells(FIXTURE, cells)
    print(f"wrote {len(cells)} cells to {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        record()
    else:
        print(__doc__)
