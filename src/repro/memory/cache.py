"""Cache-residency state.

The simulator tracks buffer residency per cache with **high-water prefix
semantics**: a cache knows the furthest byte offset of each buffer that has
passed through it (``high_water``), and holds the trailing window
``[high_water - capacity, high_water)`` of that prefix. This is deliberately
coarser than a per-line directory, but it prices the access patterns the
algorithms under study actually produce — sequential chunked scans and
re-reads — exactly:

* a pipelined consumer reading chunk ``[a, b)`` behind a producer whose
  writes reached ``high_water >= b`` hits in the producer's cache;
* lock-step readers at the same offset get **no** phantom hits from their
  own progress (their caches' high water equals their own position);
* repeated broadcasts of an unmodified buffer hit in readers' caches
  (the osu benchmark artifact of Fig. 7), while a writer invalidates all
  other copies, forcing re-fetches;
* buffers larger than a cache lose their head by the time a scan finishes
  (the trailing window), so sequential re-reads of oversized buffers miss
  — bounding the Fig. 7 artifact;
* capacity pressure from other buffers evicts whole entries in LRU order.
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterator, Optional, TYPE_CHECKING

from ..errors import MemoryModelError
from ..topology.objects import ObjKind, Topology

if TYPE_CHECKING:  # pragma: no cover
    from .address_space import Buffer
    from .model import MachineModel


class CacheKind(enum.Enum):
    PRIVATE = "private"   # per-core L2
    GROUP = "group"       # shared LLC group (Epyc CCX)
    SLC = "slc"           # socket-level system cache (ARM-N1)


class CacheLevel:
    """One cache: an LRU map of buffer-id -> high-water prefix offset."""

    __slots__ = ("id", "kind", "capacity", "home_cores", "home_set", "_hw",
                 "_total")

    _ids = itertools.count()

    def __init__(self, kind: CacheKind, capacity: int, home_cores: list[int]):
        if capacity <= 0:
            raise MemoryModelError("cache capacity must be positive")
        self.id = next(CacheLevel._ids)
        self.kind = kind
        self.capacity = capacity
        # Cores this cache is "at": its owner for PRIVATE, the LLC group's
        # members for GROUP, the socket's cores for SLC. Used for distance;
        # home_set holds the same cores for membership tests.
        self.home_cores = home_cores
        self.home_set = frozenset(home_cores)
        # buf_id -> high water, in LRU order (oldest first). A plain dict:
        # insertion order is the LRU order, and a pop+reinsert is the
        # "touch" that OrderedDict.move_to_end would perform — identical
        # eviction sequence, without the OrderedDict overhead.
        self._hw: dict[int, int] = {}
        self._total = 0

    # -- queries -----------------------------------------------------------

    def high_water(self, buf: "Buffer") -> int:
        return self._hw.get(buf.id, 0)

    def footprint(self, buf: "Buffer") -> int:
        return min(self._hw.get(buf.id, 0), self.capacity)

    def hit_bytes(self, buf: "Buffer", offset: int, length: int) -> int:
        """Bytes of ``[offset, offset+length)`` resident here (the trailing
        window of the buffer's prefix)."""
        hw = self._hw.get(buf.id)
        if hw is None or length <= 0:
            return 0
        lo = hw - self.capacity
        if lo < offset:
            lo = offset
        hi = offset + length
        if hi > hw:
            hi = hw
        n = hi - lo
        return n if n > 0 else 0

    def holds_any(self, buf: "Buffer") -> bool:
        return buf.id in self._hw

    @property
    def used(self) -> int:
        return self._total

    def buffers(self) -> Iterator[int]:
        return iter(self._hw)

    # -- mutation ------------------------------------------------------------

    def insert(self, buf: "Buffer", upto: int, system: "CacheSystem") -> None:  # hot-path
        """Record that the buffer's prefix now reaches ``upto`` here."""
        if upto <= 0:
            return
        hw = self._hw
        buf_id = buf.id
        old = hw.pop(buf_id, 0)
        new = old if old >= upto else upto
        size = buf.size
        if new > size:
            new = size
        hw[buf_id] = new
        if new == old:
            # High water unchanged: the pop+reinsert above was a pure LRU
            # touch. Totals, the holders directory and eviction pressure
            # are all exactly as before, so skip them.
            return
        cap = self.capacity
        self._total += ((new if new < cap else cap)
                        - (old if old < cap else cap))
        holders = system._holders.get(buf_id)
        if holders is None:
            system._holders[buf_id] = {self.id: self}  # lint: disable=RC106
        else:
            holders[self.id] = self
        if self._total > cap:
            self._evict(system, keep=buf_id)

    def invalidate(self, buf: "Buffer", system: "CacheSystem") -> None:
        old = self._hw.pop(buf.id, None)
        if old is not None:
            self._total -= min(old, self.capacity)
            holders = system._holders.get(buf.id)
            if holders is not None:
                holders.pop(self.id, None)

    def _evict(self, system: "CacheSystem", keep: int) -> None:
        while self._total > self.capacity and len(self._hw) > 1:
            victim_id = next(iter(self._hw))
            if victim_id == keep:
                self._hw[victim_id] = self._hw.pop(victim_id)  # re-queue
                victim_id = next(iter(self._hw))
                if victim_id == keep:  # pragma: no cover - single entry
                    return
            victim_hw = self._hw.pop(victim_id)
            self._total -= min(victim_hw, self.capacity)
            holders = system._holders.get(victim_id)
            if holders is not None:
                holders.pop(self.id, None)


class CacheSystem:
    """All caches of one machine plus the buffer-holders directory."""

    def __init__(self, topo: Topology, model: "MachineModel") -> None:
        self.topo = topo
        self.model = model
        self.private: list[CacheLevel] = [
            CacheLevel(CacheKind.PRIVATE, model.l2_size, [c.index])
            for c in topo.cores
        ]
        self.group: dict[int, CacheLevel] = {}
        if model.llc_size > 0 and topo.has_llc:
            for llc in topo.objects(ObjKind.LLC):
                self.group[llc.index] = CacheLevel(
                    CacheKind.GROUP, model.llc_size,
                    [c.index for c in llc.cores()],
                )
        self.slc: dict[int, CacheLevel] = {}
        if model.slc_size > 0:
            for sock in topo.objects(ObjKind.SOCKET):
                self.slc[sock.index] = CacheLevel(
                    CacheKind.SLC, model.slc_size,
                    [c.index for c in sock.cores()],
                )
        # buf_id -> insertion-ordered {cache_level_id: CacheLevel} of the
        # caches holding some of it (ordered, so tie-breaking among
        # equally-good sources is deterministic across runs).
        self._holders: dict[int, dict[int, CacheLevel]] = {}
        # core -> its shared cache (GROUP on Epycs, SLC on ARM), if any.
        self._shared_of_core: list[Optional[CacheLevel]] = []
        for core in topo.cores:
            shared: Optional[CacheLevel] = None
            if self.group:
                llc = topo.llc_of_core(core.index)
                if llc is not None:
                    shared = self.group[llc.index]
            elif self.slc:
                sock = topo.socket_of_core(core.index)
                if sock is not None:
                    shared = self.slc[sock.index]
            self._shared_of_core.append(shared)

    # -- lookup ---------------------------------------------------------------

    def shared_cache_of(self, core: int) -> Optional[CacheLevel]:
        return self._shared_of_core[core]

    def holders_of(self, buf: "Buffer"):
        return self._holders.get(buf.id, {}).values()

    # -- read/write accounting ---------------------------------------------

    def record_read(self, core: int, buf: "Buffer", upto: int) -> None:  # hot-path
        """A core consumed the buffer's prefix up to ``upto``.

        Equivalent to ``insert`` on the core's private then shared level,
        with both bodies inlined: this pair runs on every simulated copy
        completion, and the call/attribute overhead of two ``insert``
        frames is measurable there."""
        if upto <= 0:
            return
        buf_id = buf.id
        size = buf.size
        level = self.private[core]
        while True:  # private level, then the shared level if any
            hw = level._hw
            old = hw.pop(buf_id, 0)
            new = old if old >= upto else upto
            if new > size:
                new = size
            hw[buf_id] = new
            if new != old:  # else: pure LRU touch, bookkeeping unchanged
                cap = level.capacity
                level._total += ((new if new < cap else cap)
                                 - (old if old < cap else cap))
                holders = self._holders.get(buf_id)
                if holders is None:
                    self._holders[buf_id] = {level.id: level}  # lint: disable=RC106
                else:
                    holders[level.id] = level
                if level._total > cap:
                    level._evict(self, keep=buf_id)
            shared = self._shared_of_core[core]
            if shared is None or level is shared:
                return
            level = shared

    def record_write(self, core: int, buf: "Buffer", upto: int) -> None:  # hot-path
        """A core wrote the prefix up to ``upto``: peer copies invalidate."""
        writer_private = self.private[core]
        writer_shared = self._shared_of_core[core]
        holders = self._holders.get(buf.id)
        if holders:
            stale = None
            for level in holders.values():
                if level is not writer_private and level is not writer_shared:
                    if stale is None:
                        stale = [level]  # lint: disable=RC106
                    else:
                        stale.append(level)
            if stale is not None:
                for level in stale:
                    level.invalidate(buf, self)
        writer_private.insert(buf, upto, self)
        if writer_shared is not None:
            writer_shared.insert(buf, upto, self)

    def drop(self, buf: "Buffer") -> None:
        """Remove a freed buffer from every cache."""
        for level in list(self._holders.get(buf.id, {}).values()):
            level.invalidate(buf, self)
        self._holders.pop(buf.id, None)

    def flush_all(self) -> None:
        """Cold caches (used between benchmark configurations)."""
        for level in self._all_levels():
            level._hw.clear()
            level._total = 0
        self._holders.clear()

    def _all_levels(self) -> Iterator[CacheLevel]:
        yield from self.private
        yield from self.group.values()
        yield from self.slc.values()
