"""XPMEM service: exposure, attach costs, reuse."""

import pytest

from repro.errors import ShmemError
from repro.node import Node
from repro.options import RunOptions
from repro.sim import primitives as P

from conftest import small_topo


def setup():
    node = Node(small_topo(),
                options=RunOptions(data_movement=False, observe="spans"))
    sp = node.new_address_space(0, 0)
    return node, sp.alloc("buf", 64 * 1024)


def drive(node, gen, core=1):
    node.engine.spawn(gen, core=core)
    return node.engine.run()


def test_expose_costs_one_syscall_and_is_idempotent():
    node, buf = setup()
    t1 = drive(node, node.xpmem.expose(buf), core=0)
    assert t1 == pytest.approx(node.model.syscall_cost)
    t2 = drive(node, node.xpmem.expose(buf), core=0)
    assert t2 == t1  # no extra cost
    assert node.obs.metrics.value("xpmem.makes") == 1


def test_attach_requires_exposure():
    node, buf = setup()
    with pytest.raises(ShmemError):
        drive(node, node.xpmem.attach(buf))


def test_attach_pays_syscall_plus_page_faults():
    node, buf = setup()
    drive(node, node.xpmem.expose(buf), core=0)
    t0 = node.engine.now
    t1 = drive(node, node.xpmem.attach(buf))
    pages = node.pages_of(buf.size)
    expected = node.model.syscall_cost + pages * node.model.page_fault_cost
    assert t1 - t0 == pytest.approx(expected)
    assert node.obs.metrics.value("xpmem.attaches") == 1


def test_shared_segments_attach_without_exposure():
    node = Node(small_topo(), options=RunOptions(data_movement=False))
    sp = node.new_address_space(0, 0)
    shared = sp.alloc("seg", 4096, shared=True)
    drive(node, node.xpmem.attach(shared))  # no raise


def test_detach_cost():
    node, buf = setup()
    drive(node, node.xpmem.expose(buf), core=0)
    t0 = node.engine.now
    t1 = drive(node, node.xpmem.detach(buf))
    assert t1 - t0 == pytest.approx(node.model.xpmem_detach_cost)
    assert node.obs.metrics.value("xpmem.detaches") == 1
