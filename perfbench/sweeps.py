"""The three sweep workloads: figure-sweep, array-sweep, checked-sweep.

All load runs in this process through the inline executor. A *pass*
answers the run's sampled cells in order, one ``Executor.run_many`` per
cell against a fresh on-disk store (figure/array), or one
``exec.run_inline`` plus ``obs.critical_path`` per point (checked).
"""

from __future__ import annotations

import time

import grid
from score import Scorer

#: Instrumented runs cost 5-30x plain ones on medium allreduce cells, so
#: checked-sweep keeps 4 KiB as its only medium size.
CHECKED_CLASSES = {"small": grid.SIZE_CLASSES["small"], "medium": (4096,)}
#: Executor mode, size classes and pinned cells (answered first by every
#: seed; peak memory is read after them) of each sweep.
SWEEPS = {
    "figure-sweep": ("event", grid.SIZE_CLASSES, grid.PINNED),
    "array-sweep": ("array", grid.SIZE_CLASSES, grid.PINNED),
    "checked-sweep": ("checked", CHECKED_CLASSES,
                      (("epyc-2p", "allreduce", 1024),)),
}


def setup(mode: str, store: str, scorer: Scorer) -> None:
    """Imports, topology builds and the warm-up pass: every component on
    every system at 64 B, which also fills the interactive store."""
    from repro.exec import Executor, get_topology, run_inline
    from repro.obs.critical_path import critical_path

    for system in grid.SYSTEMS:
        get_topology(system)
    points = grid.interactive_points()
    with Executor(workers=0, cache=store) as ex:
        results = ex.run_many([grid.make_request(p, "event")
                               for p in points])
    for point, res in zip(points, results):
        scorer.require(point, res.latency_s, exact=True)
    if mode == "array":
        results = Executor(workers=0).run_many(
            [grid.make_request(p, "array") for p in points])
        for point, res in zip(points, results):
            scorer.require(point, res.latency_s, exact=False)
    elif mode == "checked":
        for point in grid.cell_points(("epyc-1p", "allreduce",
                                       grid.INTERACTIVE_SIZE)):
            res = run_inline(grid.make_request(point, mode))
            critical_path(res.node)
            scorer.require(point, res.latency_s, exact=True)


def run_pass(cells: list, mode: str, store: str, scorer: Scorer,
             tracer=None) -> tuple[list[float], float]:
    """Answer every point of ``cells``; returns each cell's wall time and
    the store's hit ratio (0 for checked points, which bypass it)."""
    from repro.exec import Executor

    walls = []
    if mode == "checked":
        for index, cell in enumerate(cells):
            if tracer is not None:
                tracer.op = index
            t0 = time.perf_counter()
            for point in grid.cell_points(cell):
                _checked_point(point, scorer, tracer)
            walls.append(time.perf_counter() - t0)
        return walls, 0.0
    with Executor(workers=0, cache=store) as ex:
        for index, cell in enumerate(cells):
            if tracer is not None:
                tracer.op = index
            points = grid.cell_points(cell)
            t0 = time.perf_counter()
            try:
                results = ex.run_many([grid.make_request(p, mode)
                                       for p in points])
                ex.cache.save()
            except Exception as exc:  # a crashed cell fails its points
                scorer.note_error(cell, exc)
                results = [None] * len(points)
            walls.append(time.perf_counter() - t0)
            for point, res in zip(points, results):
                scorer.point(point, None if res is None else res.latency_s,
                             exact=mode == "event")
    return walls, ex.cache.stats().hit_rate


def _checked_point(point, scorer: Scorer, tracer) -> None:
    from repro.exec import run_inline
    from repro.obs.critical_path import critical_path

    try:
        res = run_inline(grid.make_request(point, "checked"))
        if tracer is None:
            report = critical_path(res.node)
        else:
            report = tracer.span("obs.critical_path", critical_path,
                                 res.node)
    except Exception as exc:
        scorer.note_error(point, exc)
        scorer.point(point, None, exact=True)
        return
    scorer.spans += len(res.node.obs.spans)
    scorer.findings += len(res.findings)
    clean = not res.findings and report.steps and res.error is None
    scorer.point(point, res.latency_s, exact=True, extra_ok=clean)


def interactive(store: str, jobs: list, scorer: Scorer) -> list[float]:
    """Warm queries of 8-16 interactive points, each through a fresh
    executor over the store (as a re-run of a swept figure would be);
    returns each query's latency in seconds."""
    from repro.exec import Executor

    latencies = []
    for points in jobs:
        requests = [grid.make_request(p, "event") for p in points]
        t0 = time.perf_counter()
        results = Executor(workers=0, cache=store).run_many(requests)
        latencies.append(time.perf_counter() - t0)
        for point, res in zip(points, results):
            scorer.require(point, res.latency_s, exact=True,
                           extra_ok=res.cached)
    return latencies
