"""Synchronization state objects: cache lines, flags, atomics.

The paper's XHC synchronizes with control flags that have a *single
writer* and one or more readers, carefully placed on cache lines to avoid
false sharing (SSIII-E). Its `sm`-style baselines use atomic fetch-add
instead, which collapses under contention (Fig. 4). Both behaviours follow
from the :class:`Line` coherence model here:

* a write invalidates all cached copies and makes the writer's caches the
  line's only home;
* a reader missing everywhere fetches from the home point, **serialized**
  (one line transaction at a time — the fan-in queue);
* on machines with shared LLC groups, one group member's fetch deposits
  the line in the group cache, so its LLC peers read it locally — the
  implicit hierarchy-in-hardware of SSV-D1;
* on ARM-N1 there is no such group cache: every reader queues at the
  single home location.
* an atomic RMW needs exclusive ownership: contenders queue at the line
  and each pays the ownership ping-pong from the previous owner.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .engine import SimProcess


class Line:
    """Coherence state of one cache line (may carry several flags)."""

    _ids = itertools.count()

    __slots__ = ("id", "owner_core", "next_free", "holders", "shared_holders",
                 "pending_rmw", "rmw_ends")

    def __init__(self, owner_core: int) -> None:
        self.id = next(Line._ids)
        # Core whose caches are the line's home after the last write.
        self.owner_core = owner_core
        # Home-point serialization horizon for fetches/atomics.
        self.next_free = 0.0
        # Cores currently holding a valid copy.
        self.holders: set[int] = {owner_core}
        # Shared caches (LLC-group ids) holding a valid copy (Epyc only).
        self.shared_holders: set[int] = set()
        # Concurrent atomic RMWs targeting this line: ownership ping-pong
        # interference grows with the number of contenders.
        self.pending_rmw = 0
        # Array-mode substitute for ``pending_rmw``: end times of
        # in-flight RMW intervals, expired lazily (None until the array
        # engine first touches the line).
        self.rmw_ends: list[float] | None = None

    def on_write(self, core: int) -> None:
        """Writer invalidates everyone else and becomes the home."""
        self.owner_core = core
        self.holders = {core}
        self.shared_holders.clear()


def wait_group(name: str) -> str:
    """The aggregation family of a sync-object name.

    Flag names embed rank numbers (``xhc.avail.3``, ``xhc.ready.3.l2``);
    dropping the purely-numeric dot segments merges all ranks' flags into
    one family (``xhc.avail``, ``xhc.ready.l2``) for wait breakdowns. A
    name whose segments are all numeric is kept as-is.
    """
    if "." not in name:
        return name
    kept = [seg for seg in name.split(".") if not seg.isdigit()]
    return ".".join(kept) if kept else name


class _SyncObject:
    """What a flag and an atomic share: a value that only grows, which
    a blocked waiter tests with ``>=``, and the wait family the observer
    groups their waits by. Nothing resets it: every wait is a threshold
    on a cumulative count (docs/architecture.md)."""

    __slots__ = ()
    kind = ""

    @property
    def wait_key(self) -> str:
        """``kind`` plus :func:`wait_group` of the name (``flag
        xhc.avail``), derived on first read and kept: only an observed
        run reads it, so building the object pays nothing for it. The
        observer names wait spans by it without formatting a string per
        blocked wait, and :func:`repro.sim.stats.collect_stats` sums
        blocked time under the same string (a ``WaitRecord``'s
        ``f"{kind} {group}"``)."""
        key = self._wait_key
        if key is None:
            key = self._wait_key = f"{self.kind} {wait_group(self.name)}"
        return key


class Flag(_SyncObject):
    """Single-writer, multi-reader control flag.

    ``owner_core`` is fixed at creation; only the owner may ``SetFlag``.
    Several flags may share one :class:`Line` (the Fig. 10 experiment), in
    which case a write to any of them invalidates readers of all of them.
    Its :attr:`wait_key` (``flag xhc.avail``) is derived on first read,
    not when the flag is built.
    """

    _ids = itertools.count()
    kind = "flag"

    __slots__ = ("id", "name", "owner_core", "line", "value", "waiters",
                 "_wait_key", "hist")

    def __init__(self, name: str, owner_core: int, line: Line | None = None):
        self.id = next(Flag._ids)
        self.name = name
        self.owner_core = owner_core
        self.line = line if line is not None else Line(owner_core)
        self.value = 0
        # Blocked readers: (process, threshold), each waiting for
        # ``value >= threshold``.
        self.waiters: list[tuple["SimProcess", int]] = []
        self._wait_key: str | None = None
        # Array-mode set history: ``[(time, value), ...]`` in set order.
        # The event engine never touches it; the array engine uses it to
        # resolve *when* a wait's threshold became true, which may be far
        # in a fast process's past (docs/performance.md).
        self.hist: list[tuple[float, int]] | None = None

    def __repr__(self) -> str:
        return f"<Flag {self.name!r} ={self.value} owner=core{self.owner_core}>"


class Atomic(_SyncObject):
    """A counter updated with atomic read-modify-write operations."""

    _ids = itertools.count()
    kind = "atomic"

    __slots__ = ("id", "name", "line", "value", "waiters", "_wait_key",
                 "hist")

    def __init__(self, name: str, home_core: int, line: Line | None = None):
        self.id = next(Atomic._ids)
        self.name = name
        self.line = line if line is not None else Line(home_core)
        self.value = 0
        self.waiters: list[tuple["SimProcess", int]] = []
        self._wait_key: str | None = None
        # Array-mode update history, mirroring Flag.hist.
        self.hist: list[tuple[float, int]] | None = None

    def __repr__(self) -> str:
        return f"<Atomic {self.name!r} ={self.value}>"
