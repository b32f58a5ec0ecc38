"""Public validation harness + engine statistics."""

import pytest

from repro.mpi import World
from repro.mpi.colls import Tuned
from repro.mpi.colls.base import CollComponent
from repro.node import Node
from repro.options import RunOptions
from repro.sim import primitives as P
from repro.sim.stats import collect_stats
from repro.validate import validate_component
from repro.xhc import Xhc

from conftest import small_topo


def test_builtin_components_validate():
    for factory in (Tuned, Xhc):
        report = validate_component(factory, quick=True)
        assert report.ok, report.render()
        assert len(report.checks) >= 5
        assert "PASS" in report.render()


class BrokenBcast(CollComponent):
    """Delivers nothing (children never copy)."""

    name = "broken"

    def bcast(self, comm, ctx, view, root):
        yield P.Compute(1e-9)

    def allreduce(self, comm, ctx, sview, rview, op, dtype):
        yield P.Copy(src=sview, dst=rview)  # ignores peers!


def test_broken_component_caught():
    report = validate_component(BrokenBcast, quick=True)
    assert not report.ok
    text = report.render()
    assert "FAIL" in text and "corrupt payload" in text
    assert "wrong sum" in text


class Unsupported(CollComponent):
    name = "none"


def test_unsupported_component_reported_not_raised():
    report = validate_component(Unsupported, quick=True)
    assert not report.ok
    assert "MPIError" in report.render()


def test_collect_stats():
    node = Node(small_topo(), options=RunOptions(data_movement=False))
    world = World(node, 8)
    comm = world.communicator(Xhc())

    def program(comm_, ctx):
        buf = ctx.alloc("b", 65536)
        yield from comm_.bcast(ctx, buf.whole(), 0)
    comm.run(program)
    stats = collect_stats(node)
    assert stats.sim_time > 0
    assert stats.events > 50
    assert stats.processes_done == 8
    assert stats.messages == 7
    assert stats.message_bytes == 7 * 65536
    assert stats.xpmem_attaches > 0
    assert 0 < stats.mean_core_utilization <= 1
    text = stats.render()
    assert "simulated time" in text and "logical messages" in text


def test_stats_empty_engine():
    node = Node(small_topo(), options=RunOptions(data_movement=False))
    stats = collect_stats(node)
    assert stats.mean_core_utilization == 0.0
    assert stats.events == 0


def test_stats_render_lists_xpmem_detaches():
    node = Node(small_topo(), options=RunOptions(data_movement=False))
    text = collect_stats(node).render()
    assert "xpmem make/attach" in text
    assert "xpmem detaches" in text


def test_collect_stats_carries_metrics_snapshot():
    def run(observe):
        node = Node(small_topo(),
                    options=RunOptions(data_movement=False, observe=observe))
        world = World(node, 8)
        comm = world.communicator(Xhc())

        def program(comm_, ctx):
            buf = ctx.alloc("b", 4096)
            yield from comm_.bcast(ctx, buf.whole(), 0)
        comm.run(program)
        return collect_stats(node)

    observed = run(True)
    assert observed.metrics
    assert observed.metrics["messages.count"]["value"] == observed.messages
    text = observed.render()
    assert "messages.count" in text and "flags.sets" in text
    # Histograms render compactly, not as raw dicts.
    assert "buckets" not in text

    plain = run(None)
    assert plain.metrics == {}
    assert "messages.count" not in plain.render()
