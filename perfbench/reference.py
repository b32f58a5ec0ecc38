"""Regenerate ``perfbench/reference.json`` from the current tree.

    python3 perfbench/reference.py

Run this only on purpose: when SIM_VERSION changes, the benchmark
refuses to run until the table is re-recorded. Every cell of each
sweep's grid is answered through the sweeps' own request path
(:func:`sweeps.run_pass`), and every point of serve-mixed's batch pool
through ``repro.exec.execute``, in three passes in shuffled order. The
event-engine latency of each point is stored as ``float.hex``; the
median host seconds of each cell per mode, and of each pool point, are
stored as the sampling weights. Recording takes about ten minutes on
two cores.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import statistics
import tempfile
import time

import grid
import sweeps

PASSES = 3


class Recorder:
    """Stands in for the benchmark's scorer: keeps the first event-engine
    latency of each point and insists that every later answer for the
    point, instrumented or not, is identical and clean."""

    def __init__(self) -> None:
        self.latency: dict[tuple, float] = {}
        self.spans = self.findings = 0

    def point(self, point, latency, exact: bool, extra_ok: bool = True):
        if not exact:           # array-engine answers are not recorded
            ok = latency is not None and math.isfinite(latency)
        else:
            ok = extra_ok and self.latency.setdefault(point,
                                                      latency) == latency
        if not ok:
            raise SystemExit(f"{grid.point_key(point)}: {latency!r} "
                             f"disagrees with the event engine")

    require = point

    def note_error(self, where, exc: BaseException) -> None:
        raise exc


def main() -> None:
    grid.use_repo_source()
    from repro.exec import SIM_VERSION, execute

    recorder = Recorder()
    grid.ROOT.joinpath(".perfbench").mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="reference-",
                           dir=grid.ROOT / ".perfbench")
    try:
        for mode in ("array", "checked"):   # first-call costs
            sweeps.setup(mode, f"{tmp}/warm-{mode}", recorder)
        todo = {mode: grid.all_cells(classes)
                for mode, classes, _pinned in sweeps.SWEEPS.values()}
        pool = grid.batch_pool()
        costs: dict[tuple, list] = {}
        rng = random.Random("reference")
        for run in range(PASSES):
            for mode, cells in todo.items():
                raw = {}
                for cell in rng.sample(cells, len(cells)):
                    walls, _ = sweeps.run_pass(
                        [cell], mode, f"{tmp}/{run}-{mode}", recorder)
                    raw[(mode, cell)] = walls[0]
                if mode == "event":
                    for point in rng.sample(pool, len(pool)):
                        t0 = time.perf_counter()
                        res = execute(grid.make_request(point, mode))
                        raw[("pool", point)] = time.perf_counter() - t0
                        recorder.point(point, res.latency_s, True)
                for key, seconds in raw.items():
                    costs.setdefault(key, []).append(seconds)
                print(f"pass {run} {mode}: {sum(raw.values()):.1f} s",
                      flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    def cost(key):
        return round(statistics.median(costs[key]), 6)

    doc = {"sim_version": SIM_VERSION,
           "note": "points: event-engine latency (s) as float.hex and, "
                   "for serve-mixed's batch pool, host seconds; cells: "
                   "host seconds per sweep mode. Host seconds are used "
                   "only as sampling weights",
           "points": {grid.point_key(p): {"hex": float.hex(lat)}
                      for p, lat in sorted(recorder.latency.items())},
           "cells": {}}
    for (kind, item), _ in sorted(costs.items()):
        if kind == "pool":
            doc["points"][grid.point_key(item)]["cost_s"] = cost(
                (kind, item))
        else:
            doc["cells"].setdefault(grid.cell_key(item), {})[kind] = cost(
                (kind, item))
    with open(grid.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
