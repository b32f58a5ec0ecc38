"""Topology object tree (hwloc-style).

A :class:`Topology` is a tree of :class:`TopoObject` nodes rooted at a
MACHINE object, with SOCKET (package), NUMA, LLC (shared last-level cache
group) and CORE levels. Not every level must be present — e.g. the ARM-N1
system has no shared LLC between cores (paper SSV-D1), so its tree goes
socket -> NUMA -> core directly.

Object indices are *logical*: cores are numbered 0..n-1 in depth-first
order, matching how MPI ranks map onto cores under the sequential
(``map-core``) policy.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterator, Optional

from ..errors import TopologyError


class ObjKind(enum.IntEnum):
    """Kinds of topology objects, outermost first."""

    MACHINE = 0
    SOCKET = 1
    NUMA = 2
    LLC = 3
    CORE = 4

    @property
    def short(self) -> str:
        return {
            ObjKind.MACHINE: "mach",
            ObjKind.SOCKET: "sock",
            ObjKind.NUMA: "numa",
            ObjKind.LLC: "llc",
            ObjKind.CORE: "core",
        }[self]


# Sensitivity tokens accepted by hierarchy construction (XHC's
# "numa+socket"-style strings) map onto these kinds.
SENSITIVITY_TOKENS: dict[str, ObjKind] = {
    "socket": ObjKind.SOCKET,
    "numa": ObjKind.NUMA,
    "l3": ObjKind.LLC,
    "llc": ObjKind.LLC,
}


class TopoObject:
    """One node of the topology tree."""

    __slots__ = ("kind", "index", "parent", "children", "attrs", "_cores")

    def __init__(
        self,
        kind: ObjKind,
        index: int,
        parent: Optional["TopoObject"] = None,
        attrs: dict | None = None,
    ) -> None:
        self.kind = kind
        self.index = index
        self.parent = parent
        self.children: list[TopoObject] = []
        self.attrs: dict = attrs or {}
        self._cores: list[TopoObject] | None = None
        if parent is not None:
            parent.children.append(self)

    # -- queries ---------------------------------------------------------

    def ancestors(self) -> Iterator["TopoObject"]:
        """Yield parent, grandparent, ... up to (and including) the machine."""
        obj = self.parent
        while obj is not None:
            yield obj
            obj = obj.parent

    def ancestor(self, kind: ObjKind) -> Optional["TopoObject"]:
        """Nearest ancestor (or self) of the given kind, if any."""
        obj: TopoObject | None = self
        while obj is not None:
            if obj.kind == kind:
                return obj
            obj = obj.parent
        return None

    def descendants(self, kind: ObjKind | None = None) -> Iterator["TopoObject"]:
        """Depth-first descendants, optionally filtered by kind."""
        for child in self.children:
            if kind is None or child.kind == kind:
                yield child
            yield from child.descendants(kind)

    def cores(self) -> list["TopoObject"]:
        """All CORE leaves under this object (cached)."""
        if self._cores is None:
            if self.kind == ObjKind.CORE:
                self._cores = [self]
            else:
                self._cores = list(self.descendants(ObjKind.CORE))
        return self._cores

    def cpuset(self) -> frozenset[int]:
        """Logical indices of the cores under this object."""
        return frozenset(c.index for c in self.cores())

    def __repr__(self) -> str:
        return f"<{self.kind.short}#{self.index} cores={len(self.cores())}>"


class Topology:
    """An immutable, validated topology tree with fast lookup tables."""

    def __init__(self, machine: TopoObject, name: str = "custom") -> None:
        if machine.kind is not ObjKind.MACHINE:
            raise TopologyError("topology root must be a MACHINE object")
        self.name = name
        self.machine = machine
        self._by_kind: dict[ObjKind, list[TopoObject]] = {
            kind: [] for kind in ObjKind
        }
        self._by_kind[ObjKind.MACHINE].append(machine)
        for obj in machine.descendants():
            self._by_kind[obj.kind].append(obj)
        self._validate()
        # Fast core-index -> ancestor tables, and the same as indices.
        self._core_tab: dict[ObjKind, list[Optional[TopoObject]]] = {}
        self._core_idx: dict[ObjKind, list[Optional[int]]] = {}
        ncores = self.n_cores
        for kind in (ObjKind.SOCKET, ObjKind.NUMA, ObjKind.LLC):
            tab: list[Optional[TopoObject]] = [None] * ncores
            for core in self.cores:
                tab[core.index] = core.ancestor(kind)
            self._core_tab[kind] = tab
            self._core_idx[kind] = [None if obj is None else obj.index
                                    for obj in tab]

    # -- validation ------------------------------------------------------

    def _validate(self) -> None:
        cores = self._by_kind[ObjKind.CORE]
        if not cores:
            raise TopologyError("topology has no cores")
        indices = sorted(c.index for c in cores)
        if indices != list(range(len(cores))):
            raise TopologyError(
                f"core indices must be 0..{len(cores) - 1}, got {indices[:8]}..."
            )
        order = {
            ObjKind.MACHINE: 0,
            ObjKind.SOCKET: 1,
            ObjKind.NUMA: 2,
            ObjKind.LLC: 3,
            ObjKind.CORE: 4,
        }
        for obj in self.machine.descendants():
            if obj.parent is not None and order[obj.kind] <= order[obj.parent.kind]:
                raise TopologyError(
                    f"{obj!r} nested under same-or-inner kind {obj.parent!r}"
                )

    # -- accessors -------------------------------------------------------

    @property
    def cores(self) -> list[TopoObject]:
        return self._by_kind[ObjKind.CORE]

    @property
    def n_cores(self) -> int:
        return len(self._by_kind[ObjKind.CORE])

    def objects(self, kind: ObjKind) -> list[TopoObject]:
        return list(self._by_kind[kind])

    def count(self, kind: ObjKind) -> int:
        return len(self._by_kind[kind])

    @property
    def has_llc(self) -> bool:
        """Whether cores share a last-level cache group (Epycs: yes, ARM-N1: no)."""
        return bool(self._by_kind[ObjKind.LLC])

    def core(self, index: int) -> TopoObject:
        try:
            core = self.cores[index]
        except IndexError:
            raise TopologyError(
                f"core index {index} out of range (0..{self.n_cores - 1})"
            ) from None
        assert core.index == index
        return core

    def ancestor_of_core(self, core_index: int, kind: ObjKind) -> Optional[TopoObject]:
        if not 0 <= core_index < self.n_cores:
            raise TopologyError(f"core index {core_index} out of range")
        if kind is ObjKind.MACHINE:
            return self.machine
        if kind is ObjKind.CORE:
            return self.cores[core_index]
        return self._core_tab[kind][core_index]

    def core_indices(self, kind: ObjKind) -> list[Optional[int]]:
        """The index of every core's SOCKET, NUMA or LLC ancestor (None
        where the core has none), by core index: one list per topology,
        shared by every caller, so read it and never mutate it. A Node,
        its caches and XHC's hierarchy build their per-core tables from
        these instead of one :meth:`ancestor_of_core` call per core."""
        return self._core_idx[kind]

    def numa_of_core(self, core_index: int) -> Optional[TopoObject]:
        return self.ancestor_of_core(core_index, ObjKind.NUMA)

    def socket_of_core(self, core_index: int) -> Optional[TopoObject]:
        return self.ancestor_of_core(core_index, ObjKind.SOCKET)

    def llc_of_core(self, core_index: int) -> Optional[TopoObject]:
        return self.ancestor_of_core(core_index, ObjKind.LLC)

    def common_ancestor(self, core_a: int, core_b: int) -> TopoObject:
        """Deepest object containing both cores."""
        a = self.cores[core_a]
        chain_b = {id(o) for o in self.cores[core_b].ancestors()}
        for obj in a.ancestors():
            if id(obj) in chain_b:
                return obj
        raise TopologyError("cores share no common ancestor")  # pragma: no cover

    def group_cores_by(self, kind: ObjKind) -> list[list[int]]:
        """Core indices partitioned by their ancestor of ``kind``."""
        groups = []
        for obj in self._by_kind[kind]:
            groups.append([c.index for c in obj.cores()])
        return groups

    def filter_cores(self, pred: Callable[[TopoObject], bool]) -> list[int]:
        return [c.index for c in self.cores if pred(c)]

    def describe(self) -> str:
        """A one-line summary matching Table I's columns."""
        return (
            f"{self.name}: cores={self.n_cores} "
            f"numa={self.count(ObjKind.NUMA)} "
            f"sockets={self.count(ObjKind.SOCKET)} "
            f"llc_groups={self.count(ObjKind.LLC)}"
        )

    def __repr__(self) -> str:
        return f"<Topology {self.describe()}>"
