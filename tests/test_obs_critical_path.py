"""Critical-path analysis (repro.obs.critical_path)."""

import pytest

from repro.mpi import World
from repro.node import Node
from repro.obs import CriticalPathReport, critical_path
from repro.options import RunOptions
from repro.xhc import Xhc

from conftest import small_topo


def run_coll(coll="bcast", observe=True, nranks=8, size=65536):
    node = Node(small_topo(),
                options=RunOptions(data_movement=False, observe=observe))
    world = World(node, nranks)
    comm = world.communicator(Xhc())

    def program(comm_, ctx):
        buf = ctx.alloc("b", size)
        if coll == "bcast":
            yield from comm_.bcast(ctx, buf.whole(), 0)
        elif coll == "allreduce":
            from repro.mpi import FLOAT, SUM
            out = ctx.alloc("o", size)
            yield from comm_.allreduce(ctx, buf.whole(), out.whole(),
                                       SUM, FLOAT)
        elif coll == "barrier":
            yield from comm_.barrier(ctx)
    comm.run(program)
    return node


@pytest.mark.parametrize("coll", ["bcast", "allreduce", "barrier"])
def test_phases_tile_simulated_time(coll):
    node = run_coll(coll)
    report = critical_path(node)
    assert isinstance(report, CriticalPathReport)
    assert report.total == pytest.approx(node.engine.now, rel=1e-9)
    # The acceptance bar is 1%; construction makes it exact.
    assert report.phase_sum == pytest.approx(report.total, rel=1e-9)
    assert report.phase_sum == pytest.approx(
        sum(report.by_phase.values()), rel=1e-12)


def test_steps_tile_the_run():
    node = run_coll("bcast")
    report = critical_path(node)
    assert report.steps, "a non-trivial run must have path segments"
    t = 0.0
    for step in sorted(report.steps, key=lambda s: s.start):
        assert step.start == pytest.approx(t, abs=1e-12)
        assert step.end >= step.start
        t = step.end
    assert t == pytest.approx(report.total, rel=1e-9)


def test_wait_phases_attribute_to_flag_family():
    node = run_coll("bcast")
    report = critical_path(node)
    # A broadcast's critical path crosses at least one dependency edge,
    # so some segment is charged to a wait phase.
    assert any(p.startswith("wait:") for p in report.by_phase), report.by_phase


def test_disabled_observability_raises():
    node = run_coll(observe=False)
    with pytest.raises(ValueError):
        critical_path(node)


def test_render_and_json():
    node = run_coll("bcast")
    report = critical_path(node)
    text = report.render()
    assert "critical path" in text
    assert "phase" in text
    detailed = report.render(show_steps=True)
    assert len(detailed) > len(text)
    doc = report.to_json()
    assert doc["total_s"] == pytest.approx(report.total, rel=1e-12)
    assert sum(p["seconds"] for p in doc["phases"]) == pytest.approx(
        report.total, rel=1e-9)
    assert all(set(p) >= {"phase", "seconds", "share"} for p in doc["phases"])


def test_end_track_override():
    node = run_coll("bcast")
    default = critical_path(node)
    explicit = critical_path(node, end_track=default.end_track)
    assert explicit.total == pytest.approx(default.total, rel=1e-12)
    assert [s.phase for s in explicit.steps] == [s.phase for s in default.steps]
