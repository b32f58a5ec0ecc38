"""Registration cache: hits, misses, LRU capacity, statistics."""

from repro.node import Node
from repro.options import RunOptions
from repro.shmem.regcache import RegistrationCache

from conftest import small_topo


def bufs(n, size=64):
    node = Node(small_topo(), options=RunOptions(data_movement=False))
    sp = node.new_address_space(0, 0)
    return [sp.alloc(f"b{i}", size) for i in range(n)]


def test_miss_then_hit():
    cache = RegistrationCache()
    (buf,) = bufs(1)
    assert not cache.lookup(buf)
    cache.insert(buf)
    assert cache.lookup(buf)
    assert cache.hits == 1 and cache.misses == 1
    assert cache.hit_ratio == 0.5


def test_capacity_evicts_lru():
    cache = RegistrationCache(capacity=2)
    a, b, c = bufs(3)
    for x in (a, b, c):
        cache.lookup(x)
        cache.insert(x)
    assert not cache.lookup(a)       # evicted
    assert cache.lookup(c)
    assert cache.evictions == 1


def test_lookup_refreshes_lru():
    cache = RegistrationCache(capacity=2)
    a, b, c = bufs(3)
    cache.insert(a)
    cache.insert(b)
    cache.lookup(a)        # refresh a
    cache.insert(c)        # evicts b, not a
    assert cache.lookup(a)
    assert not cache.lookup(b)


def test_invalidate():
    cache = RegistrationCache()
    (buf,) = bufs(1)
    cache.insert(buf)
    assert cache.invalidate(buf)
    assert not cache.invalidate(buf)
    assert not cache.lookup(buf)


def test_stats_shape():
    cache = RegistrationCache()
    stats = cache.stats()
    assert set(stats) == {"hits", "misses", "evictions", "entries",
                          "hit_ratio"}
    assert stats["hit_ratio"] == 0.0


def test_high_hit_ratio_under_reuse():
    """Applications reusing buffers see >99% hits (paper SSV-D3)."""
    cache = RegistrationCache()
    (buf,) = bufs(1)
    for _ in range(1000):
        if not cache.lookup(buf):
            cache.insert(buf)
    assert cache.hit_ratio > 0.99
