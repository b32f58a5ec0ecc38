"""Registration cache for XPMEM attachments.

Keeps already-established inter-process mappings so they can be re-used
(SSII-B). Keyed by the target buffer; evicts nothing by default (real
implementations bound the cache, which we support via ``capacity``).
Hit-ratio statistics back the paper's observation that the three HPC
applications all exceed 99% hits (SSV-D3).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..memory.address_space import Buffer


class RegistrationCache:
    """Per-process cache of established XPMEM attachments."""

    def __init__(self, capacity: int | None = None, metrics=None) -> None:
        self.capacity = capacity
        self._entries: OrderedDict[int, "Buffer"] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        if metrics is None:
            from ..obs.metrics import NULL_METRICS
            metrics = NULL_METRICS
        self._m_hits = metrics.counter(
            "regcache.hits", "registration-cache lookup hits")
        self._m_misses = metrics.counter(
            "regcache.misses", "registration-cache lookup misses")
        self._m_evictions = metrics.counter(
            "regcache.evictions", "registration-cache LRU evictions")

    def lookup(self, buf: "Buffer") -> bool:
        """True (and refresh LRU) if an attachment to ``buf`` is cached."""
        if buf.id in self._entries:
            self._entries.move_to_end(buf.id)
            self.hits += 1
            self._m_hits.inc()
            return True
        self.misses += 1
        self._m_misses.inc()
        return False

    def insert(self, buf: "Buffer") -> None:
        self._entries[buf.id] = buf
        self._entries.move_to_end(buf.id)
        if self.capacity is not None:
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                self._m_evictions.inc()

    def invalidate(self, buf: "Buffer") -> bool:
        return self._entries.pop(buf.id, None) is not None

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._entries),
            "hit_ratio": self.hit_ratio,
        }
