"""The observer is a run's only recorder: the diagnostics read from it
must report what the engines' own bookkeeping used to.

``tests/golden/observer_diagnostics.json`` was recorded while both
engines still kept per-process wait totals and a per-copy log in
``engine.trace``: for every registered component x bcast/allreduce x
1 KiB/64 KiB on epyc-2p (32 ranks, warmup 1, iters 2), the
``collect_stats`` wait breakdown of an ``observe="spans"`` run, and the
bytes each core copied according to a ``record_copies=True`` run. Now
``collect_stats`` sums the observer's wait records and ``Timeline``
reads its copy spans; every wait family must come back with the same
key and a value within 1e-12 relative (summation order differs), and
the copy spans must cover the same cores with the same bytes.

Regenerate (a deliberate act: it means wait families or copy volumes
changed) with ``PYTHONPATH=src python tests/test_obs_diagnostics.py
--record``.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.bench.components import COMPONENTS
from repro.errors import ConfigError, MPIError
from repro.exec import RunRequest, run_inline
from repro.options import RunOptions
from repro.sim.stats import collect_stats
from repro.sim.trace import Timeline

FIXTURE = Path(__file__).parent / "golden" / "observer_diagnostics.json"
GOLDEN = json.loads(FIXTURE.read_text(encoding="utf-8"))

CELLS = [f"{comp}/{coll}/{size}" for comp in COMPONENTS
         for coll in ("bcast", "allreduce") for size in (1024, 65536)]
ANSWERED = [cid for cid in CELLS if cid not in GOLDEN["refused"]]


def _run(cid: str, observe: str):
    comp, coll, size = cid.split("/")
    result = run_inline(RunRequest(
        system=GOLDEN["system"], collective=coll, size=int(size),
        nranks=GOLDEN["nranks"], component=comp, warmup=GOLDEN["warmup"],
        iters=GOLDEN["iters"],
        options=RunOptions(data_movement=False, observe=observe)))
    assert result.error is None, result.error
    return result.node


def _copy_bytes(node) -> dict[int, int]:
    """Bytes per core over the observer's copy spans."""
    obs = node.obs
    out: dict[int, int] = {}
    for rec in obs.spans:
        if rec.cat == "copy":
            core = obs.track_core(rec.track)
            out[core] = out.get(core, 0) + rec.args["nbytes"]
    return out


def test_fixture_covers_every_cell():
    assert sorted(GOLDEN["cells"]) == sorted(ANSWERED)
    assert len(ANSWERED) == 34


@pytest.mark.parametrize("cid", GOLDEN["refused"])
def test_refused_cells_still_refused(cid):
    with pytest.raises((ConfigError, MPIError)):
        _run(cid, "spans")


@pytest.mark.parametrize("cid", ANSWERED)
def test_wait_breakdown_matches_engine_bookkeeping(cid):
    got = collect_stats(_run(cid, "spans")).wait_breakdown
    want = {k: float.fromhex(v)
            for k, v in GOLDEN["cells"][cid]["waits"].items()}
    assert sorted(got) == sorted(want)
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=1e-12, abs=0.0), key


@pytest.mark.parametrize("cid", ANSWERED)
def test_timeline_covers_the_legacy_copy_cores(cid):
    node = _run(cid, "full")
    want = {int(c): n for c, n in GOLDEN["cells"][cid]["copy_bytes"].items()}
    assert sorted(Timeline.from_engine(node.engine).spans) == sorted(want)
    assert _copy_bytes(node) == want


def record() -> None:
    cells = {}
    for cid in ANSWERED:
        waits = collect_stats(_run(cid, "spans")).wait_breakdown
        cells[cid] = {
            "waits": {k: float.hex(v) for k, v in sorted(waits.items())},
            "copy_bytes": {str(c): n for c, n in
                           sorted(_copy_bytes(_run(cid, "full")).items())},
        }
    header = {k: v for k, v in GOLDEN.items() if k != "cells"}
    header["note"] = ("Recorded from the observer's wait records and copy "
                      "spans. Waits are float.hex. See "
                      "tests/test_obs_diagnostics.py.")
    lines = [f" {json.dumps(k)}: {json.dumps(v)}," for k, v in
             sorted(header.items())]
    lines.append(' "cells": {')
    lines.append(",\n".join(f"  {json.dumps(k)}: "
                            f"{json.dumps(v, sort_keys=True)}"
                            for k, v in sorted(cells.items())))
    FIXTURE.write_text("{\n" + "\n".join(lines) + "\n }\n}\n",
                       encoding="utf-8")
    print(f"wrote {len(cells)} cells to {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        record()
    else:
        print(__doc__)
