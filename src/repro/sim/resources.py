"""Shared bandwidth resources and contention accounting.

Every bulk transfer passes through one or more bottleneck resources — the
DRAM channels of the source NUMA node, the read port of a source LLC group,
the socket fabric, the inter-socket link, or the ARM system-level cache.
A resource divides its bandwidth equally among concurrent users (sampled at
transfer start; chunk-granularity operation keeps the approximation close
to fluid fair sharing). This is what produces the fan-in congestion of
Fig. 1b and the localized-traffic benefit of hierarchical algorithms.

A resource holds only what pricing reads: its bandwidth and current
concurrency. Which transfers ran where, and when, is the observer's
record (``cat="copy"`` spans, docs/observability.md).
"""

from __future__ import annotations

from bisect import bisect_right, insort

from ..errors import SimulationError
from ..topology.objects import ObjKind, Topology
from ..memory.model import MachineModel


class Occupancy:
    """Array-mode occupancy index: how many booked ``[start, end)``
    windows cover a simulated time.

    The array engine prices processes at skewed virtual times, so
    windows are booked in no particular time order, but no sample ever
    precedes the *epoch* — the dispatch heap's minimum virtual time,
    which never decreases. The index keeps the window starts and the
    window ends in two sorted lists and folds every start and end at or
    before the epoch into the integer ``base`` (+1 per start, -1 per
    end) whenever a sample sees the epoch advance, so the lists hold
    only what lies ahead of it and a sample at ``t`` is two bisections::

        base + #(starts <= t) - #(ends <= t)

    which is exactly the number of windows with ``start <= t < end`` for
    every ``t`` at or after the epoch (a window's end never precedes its
    start; a zero-length window adds and removes itself at once). A
    sample before the largest epoch folded so far would need the folded
    windows back, so it raises.
    """

    __slots__ = ("_starts", "_ends", "_base", "_horizon")

    def __init__(self) -> None:
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._base = 0
        # Largest epoch folded into _base (-inf: nothing folded yet).
        self._horizon = float("-inf")

    def arr_book(self, start: float, end: float) -> None:  # hot-path
        """Deposit one transfer's occupancy window."""
        insort(self._starts, start)
        insort(self._ends, end)

    def arr_sample(self, t: float, epoch: float) -> int:  # hot-path
        """Windows occupied at time ``t``; ``epoch`` is the array
        engine's dispatch epoch, at or before ``t``."""
        if epoch > self._horizon:
            starts = self._starts
            ends = self._ends
            k = bisect_right(starts, epoch)
            if k:
                del starts[:k]
            j = bisect_right(ends, epoch)
            if j:
                del ends[:j]
            self._base += k - j
            self._horizon = epoch
        if t < self._horizon:
            raise SimulationError(
                f"occupancy sampled at {t!r}, before the dispatch epoch "  # lint: disable=RC106
                f"{self._horizon!r}")
        return (self._base + bisect_right(self._starts, t)
                - bisect_right(self._ends, t))


class Resource(Occupancy):
    """A shared bandwidth point.

    The event engine tracks concurrency with the ``acquire``/``release``
    counter, sampled at every transfer (re-)pricing. The array engine
    instead books each flushed transfer's ``[start, end)`` occupancy
    window and samples the resource's :class:`Occupancy` index at an
    op's virtual time (see docs/performance.md). The two accountings
    never mix — a Node owns exactly one engine.
    """

    __slots__ = ("name", "bw", "active")

    def __init__(self, name: str, bw: float) -> None:
        if bw <= 0:
            raise SimulationError(f"resource {name!r} needs positive bandwidth")
        super().__init__()
        self.name = name
        self.bw = bw
        self.active = 0

    def acquire(self) -> None:
        self.active += 1

    def release(self) -> None:
        if self.active <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        self.active -= 1

    def __repr__(self) -> str:
        return f"<Resource {self.name} bw={self.bw:.2e} active={self.active}>"


class ResourcePool:
    """All contention points of one machine, indexed by topology object."""

    def __init__(self, topo: Topology, model: MachineModel) -> None:
        self.topo = topo
        self.model = model
        self.dram: dict[int, Resource] = {
            numa.index: Resource(f"dram:numa{numa.index}", model.numa_mem_bw)
            for numa in topo.objects(ObjKind.NUMA)
        }
        self.llc_port: dict[int, Resource] = {}
        if model.llc_port_bw > 0:
            for llc in topo.objects(ObjKind.LLC):
                self.llc_port[llc.index] = Resource(
                    f"llcport:llc{llc.index}", model.llc_port_bw
                )
        self.fabric: dict[int, Resource] = {
            sock.index: Resource(f"fabric:sock{sock.index}", model.socket_fabric_bw)
            for sock in topo.objects(ObjKind.SOCKET)
        }
        self.slc: dict[int, Resource] = {}
        if model.slc_bw > 0:
            for sock in topo.objects(ObjKind.SOCKET):
                self.slc[sock.index] = Resource(
                    f"slc:sock{sock.index}", model.slc_bw
                )
        self.xlink = Resource("xlink", model.inter_socket_bw)
        # Number of in-flight kernel-assisted (CMA/KNEM) operations; drives
        # the kernel-lock contention term of [28].
        self.kernel_ops = 0
        # Array-mode equivalent: kernel-mode occupancy windows, sampled
        # like a Resource's (the counter above stays untouched).
        self.kernel_occupancy = Occupancy()
