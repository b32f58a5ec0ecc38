"""Trace analysis utilities."""

import numpy as np

from repro.mpi import World
from repro.node import Node
from repro.options import RunOptions
from repro.sim.trace import (Timeline, bytes_by_distance,
                             count_message_distances, message_matrix,
                             messages, resource_report)
from repro.xhc import Xhc

from conftest import small_topo


def run_bcast(record_copies=False, nranks=8, size=4096):
    node = Node(small_topo(),
                options=RunOptions(data_movement=False,
                                   record_copies=record_copies))
    world = World(node, nranks)
    comm = world.communicator(Xhc())

    def program(comm_, ctx):
        buf = ctx.alloc("b", size)
        yield from comm_.bcast(ctx, buf.whole(), 0)
    comm.run(program)
    return node


def test_messages_and_matrix():
    node = run_bcast()
    msgs = messages(node.engine)
    assert len(msgs) == 7          # one pull edge per non-root rank
    matrix = message_matrix(node.engine, 8)
    assert sum(map(sum, matrix)) == 7
    assert all(matrix[r][r] == 0 for r in range(8))


def test_count_message_distances_matches_hierarchy():
    node = run_bcast()
    counts = count_message_distances(node)
    # mini topo (2 sockets x 2 numa x 4): L0 = 4 numa groups of 2 ranks?
    # With 8 ranks on cores 0-7 (socket 0): 2 numa groups of 4, socket
    # level collapses -> edges: 6 intra-numa + 1 inter-numa.
    assert sum(counts.values()) == 7
    assert counts["inter-socket"] == 0
    assert counts["inter-numa"] == 1
    assert counts["intra-numa"] == 6


def test_bytes_by_distance():
    node = run_bcast(size=1000)
    by = bytes_by_distance(node)
    assert sum(by.values()) == 7 * 1000


def test_timeline_rendering():
    node = run_bcast(record_copies=True, size=100_000)
    tl = Timeline.from_engine(node.engine)
    assert tl.end_time > 0
    assert tl.busy_events(1) > 0
    art = tl.render(width=40)
    assert "core" in art and "#" in art
    empty = Timeline.from_engine(run_bcast(record_copies=False).engine)
    assert "no copy records" in empty.render()


def test_wait_report():
    from repro.sim.trace import wait_report
    node = run_bcast(size=100_000)
    report = wait_report(node.engine)
    assert report, "ranks must have waited on something"
    totals = [r["total_wait_s"] for r in report]
    assert totals == sorted(totals, reverse=True)
    targets = {r["target"] for r in report}
    # Fan-out progress waits dominate a broadcast.
    assert any(t.startswith("flag xhc") for t in targets)


def test_wait_time_accounted_per_process():
    node = run_bcast(size=100_000)
    leaves = [p for p in node.engine.processes if p.name.startswith("rank")
              and p.name != "rank0"]
    assert any(p.wait_time > 0 for p in leaves)
    for p in leaves:
        assert abs(sum(p.wait_breakdown.values()) - p.wait_time) < 1e-12


def test_resource_report_sorted():
    node = run_bcast(size=200_000)
    report = resource_report(node)
    assert report, "some resource must have served bytes"
    served = [r["bytes_served"] for r in report]
    assert served == sorted(served, reverse=True)
    assert all(r["peak_active"] >= 0 for r in report)


def test_observe_full_feeds_timeline():
    # observe=True implies copy recording: the legacy Timeline keeps
    # working without passing record_copies separately.
    node = Node(small_topo(),
                options=RunOptions(data_movement=False, observe=True))
    world = World(node, 8)
    comm = world.communicator(Xhc())

    def program(comm_, ctx):
        buf = ctx.alloc("b", 100_000)
        yield from comm_.bcast(ctx, buf.whole(), 0)
    comm.run(program)
    tl = Timeline.from_engine(node.engine)
    assert tl.busy_events(1) > 0
    assert "#" in tl.render(width=30)
    # Observer copy spans cover at least the completed transfers the
    # legacy trace records (spans are per re-pricing quantum).
    copy_spans = [s for s in node.obs.spans if s.cat == "copy"]
    legacy = [t for t in node.engine.trace if t[1] == "copy"]
    assert legacy and len(copy_spans) >= len(legacy)
