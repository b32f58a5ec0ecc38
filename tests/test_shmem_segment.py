"""Shared segments: region reservation and bounds."""

import pytest

from repro.errors import ShmemError
from repro.node import Node
from repro.options import RunOptions
from repro.shmem.segment import SharedSegment

from conftest import small_topo


def make_space():
    node = Node(small_topo(), options=RunOptions(data_movement=False))
    return node.new_address_space(0, 0)


def test_reserve_and_region():
    seg = SharedSegment(make_space(), "seg", 1024)
    a = seg.reserve("a", 100)
    b = seg.reserve("b", 200)
    assert a.length == 100 and b.length == 200
    assert seg.region("a").offset == a.offset
    assert seg.has_region("b")
    # Alignment: regions start on 64-byte boundaries.
    assert a.offset % 64 == 0 and b.offset % 64 == 0
    assert b.offset >= a.offset + a.length


def test_regions_do_not_overlap():
    seg = SharedSegment(make_space(), "seg", 4096)
    views = [seg.reserve(f"r{i}", 65) for i in range(10)]
    spans = sorted((v.offset, v.offset + v.length) for v in views)
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        assert e1 <= s2


def test_duplicate_region_rejected():
    seg = SharedSegment(make_space(), "seg", 1024)
    seg.reserve("a", 10)
    with pytest.raises(ShmemError):
        seg.reserve("a", 10)


def test_overflow_rejected():
    seg = SharedSegment(make_space(), "seg", 128)
    seg.reserve("a", 100)
    with pytest.raises(ShmemError):
        seg.reserve("b", 100)


def test_unknown_region():
    seg = SharedSegment(make_space(), "seg", 128)
    with pytest.raises(ShmemError):
        seg.region("nope")


def test_segment_buffer_is_shared():
    seg = SharedSegment(make_space(), "seg", 128)
    assert seg.buf.shared
