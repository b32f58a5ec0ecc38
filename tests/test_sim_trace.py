"""Trace analysis utilities."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.mpi import World
from repro.node import Node
from repro.options import RunOptions
from repro.sim.stats import collect_stats
from repro.sim.trace import (Timeline, count_message_distances,
                             message_matrix, messages)
from repro.xhc import Xhc

from conftest import small_topo


def run_bcast(observe=None, nranks=8, size=4096):
    node = Node(small_topo(),
                options=RunOptions(data_movement=False, observe=observe))
    world = World(node, nranks)
    comm = world.communicator(Xhc())

    def program(comm_, ctx):
        buf = ctx.alloc("b", size)
        yield from comm_.bcast(ctx, buf.whole(), 0)
    comm.run(program)
    return node


def test_messages_and_matrix():
    node = run_bcast(observe="spans")
    msgs = messages(node.engine)
    assert len(msgs) == 7          # one pull edge per non-root rank
    matrix = message_matrix(node.engine, 8)
    assert sum(map(sum, matrix)) == 7
    assert all(matrix[r][r] == 0 for r in range(8))


def test_count_message_distances_matches_hierarchy():
    node = run_bcast(observe="spans")
    counts = count_message_distances(node)
    # mini topo (2 sockets x 2 numa x 4): L0 = 4 numa groups of 2 ranks?
    # With 8 ranks on cores 0-7 (socket 0): 2 numa groups of 4, socket
    # level collapses -> edges: 6 intra-numa + 1 inter-numa.
    assert sum(counts.values()) == 7
    assert counts["inter-socket"] == 0
    assert counts["inter-numa"] == 1
    assert counts["intra-numa"] == 6


def test_message_analysis_raises_on_unobserved_run():
    """An unobserved run recorded no messages; zeros would be a wrong
    Table II, so every message reader refuses it."""
    node = run_bcast()
    with pytest.raises(SimulationError, match="observe"):
        count_message_distances(node)
    with pytest.raises(SimulationError, match="observe"):
        message_matrix(node.engine, 8)
    with pytest.raises(SimulationError, match="observe"):
        messages(node.engine)


def test_timeline_rendering():
    node = run_bcast(observe="full", size=100_000)
    tl = Timeline.from_engine(node.engine)
    assert tl.end_time > 0
    assert tl.busy_events(1) > 0
    art = tl.render(width=40)
    assert "core" in art and "#" in art
    empty = Timeline.from_engine(run_bcast().engine)
    assert "no copy spans" in empty.render()
    # "spans" skips copy spans, so it has no timeline either.
    assert not Timeline.from_engine(run_bcast(observe="spans").engine).spans


def test_wait_time_accounted_per_process():
    node = run_bcast(observe="spans", size=100_000)
    leaves = {p.pid for p in node.engine.processes
              if p.name.startswith("rank") and p.name != "rank0"}
    per_track: dict[int, float] = {}
    for wait in node.obs.waits:
        per_track[wait.track] = (per_track.get(wait.track, 0.0)
                                 + wait.end - wait.start)
    assert any(per_track.get(pid, 0.0) > 0 for pid in leaves)
    waits = collect_stats(node).wait_breakdown
    assert abs(sum(waits.values()) - sum(per_track.values())) < 1e-12
    # Fan-out progress waits dominate a broadcast.
    assert max(waits, key=waits.get).startswith("flag xhc")
    # Without an observer nothing records where ranks waited.
    assert collect_stats(run_bcast(size=100_000)).wait_breakdown == {}


def test_observe_full_feeds_timeline():
    node = run_bcast(observe=True, size=100_000)
    tl = Timeline.from_engine(node.engine)
    assert tl.busy_events(1) > 0
    assert "#" in tl.render(width=30)
    # One timeline span per observer copy span (per re-pricing quantum).
    copy_spans = [s for s in node.obs.spans if s.cat == "copy"]
    assert copy_spans
    assert sum(tl.busy_events(c) for c in tl.spans) == len(copy_spans)
