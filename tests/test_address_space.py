"""Address spaces, buffers, views."""

import numpy as np
import pytest

from repro.errors import MemoryModelError
from repro.node import Node
from repro.options import RunOptions

from conftest import small_topo


def space(core=0, rank=0, data=True):
    node = Node(small_topo(), options=RunOptions(data_movement=data))
    return node.new_address_space(rank, core)


def test_alloc_first_touch_numa():
    sp = space(core=6)  # core 6 -> numa 1
    buf = sp.alloc("x", 128)
    assert buf.home_numa == 1
    assert buf.owner_core == 6


def test_alloc_with_data_plane():
    sp = space()
    buf = sp.alloc("x", 64)
    assert isinstance(buf.data, np.ndarray)
    buf.fill(7)
    assert np.all(buf.data == 7)


def test_alloc_without_data_plane():
    sp = space(data=False)
    buf = sp.alloc("x", 64)
    assert buf.data is None
    buf.fill(7)  # no-op, no crash
    assert buf.view().array() is None


def test_zero_size_rejected():
    sp = space()
    with pytest.raises(MemoryModelError):
        sp.alloc("x", 0)


def test_view_bounds():
    sp = space()
    buf = sp.alloc("x", 100)
    v = buf.view(10, 50)
    assert v.offset == 10 and v.length == 50
    with pytest.raises(MemoryModelError):
        buf.view(60, 50)
    with pytest.raises(MemoryModelError):
        v.sub(45, 10)


def test_view_sub_and_dtype():
    sp = space()
    buf = sp.alloc("x", 64)
    buf.view().as_dtype(np.float32)[:] = 2.5
    sub = buf.view(16, 16)
    assert np.all(sub.as_dtype(np.float32) == 2.5)
    assert sub.sub(4, 8).length == 8
    assert sub.sub(4, 8).offset == 20


def test_free_and_double_free():
    sp = space()
    buf = sp.alloc("x", 64)
    sp.free(buf)
    with pytest.raises(MemoryModelError):
        sp.free(buf)


def test_buffer_ids_unique():
    sp = space()
    a, b = sp.alloc("a", 8), sp.alloc("b", 8)
    assert a.id != b.id


def test_explicit_home_numa():
    sp = space(core=0)
    buf = sp.alloc("x", 8, home_numa=3)
    assert buf.home_numa == 3
