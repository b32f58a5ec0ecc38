"""Address spaces, buffers, views."""

import dataclasses

import numpy as np
import pytest

from repro.errors import MemoryModelError
from repro.memory.address_space import BufView
from repro.node import Node
from repro.options import RunOptions
from repro.sim import primitives as P

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
    # Buffer.view and the public constructor validate every range...
    for offset, length in ((-1, 10), (10, -1), (0, 101), (60, 50)):
        with pytest.raises(MemoryModelError):
            buf.view(offset, length)
        with pytest.raises(MemoryModelError):
            BufView(buf, offset, length)
    with pytest.raises(MemoryModelError):
        buf.view(-1)
    # ...and sub refuses any range that escapes the view, even one that
    # stays inside the buffer.
    for offset, length in ((-1, 4), (4, -1), (0, 51), (45, 10), (50, 1)):
        with pytest.raises(MemoryModelError):
            v.sub(offset, length)
    assert v.sub(50, 0) == BufView(buf, 60, 0)


def test_view_sub_and_dtype():
    sp = space()
    buf = sp.alloc("x", 64)
    buf.view().as_dtype(np.float32)[:] = 2.5
    sub = buf.view(16, 16)
    assert np.all(sub.as_dtype(np.float32) == 2.5)
    assert sub.sub(4, 8).length == 8
    assert sub.sub(4, 8).offset == 20
    assert sub.sub(4, 8) == BufView(buf, 20, 8)
    assert np.all(sub.sub(4, 8).as_dtype(np.float32) == 2.5)
    # Views and primitives are minted per event: slotted, no __dict__.
    for view in (buf.whole(), buf.view(8), sub, sub.sub(4, 8)):
        assert type(view) is BufView
        assert not hasattr(view, "__dict__")
    prims = [cls for cls in vars(P).values()
             if dataclasses.is_dataclass(cls) and cls.__module__ == P.__name__]
    assert len(prims) == 12
    for cls in prims:
        required = {f.name: None for f in dataclasses.fields(cls)
                    if f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING}
        assert not hasattr(cls(**required), "__dict__"), cls.__name__


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
