"""Topological distance classification between cores.

The paper's motivational measurements (Fig. 1a) distinguish four classes of
core pairs: cache-local (sharing an LLC), intra-NUMA, cross-NUMA (same
socket) and cross-socket. This module provides the classifier used both by
the memory cost model and by the message-distance accounting of Table II.
"""

from __future__ import annotations

import enum

from .objects import ObjKind, Topology


class Distance(enum.IntEnum):
    """Distance classes, nearest first."""

    SELF = 0          # same core
    CACHE_LOCAL = 1   # different cores sharing a last-level cache
    INTRA_NUMA = 2    # same NUMA node, no shared LLC
    CROSS_NUMA = 3    # same socket, different NUMA nodes
    CROSS_SOCKET = 4  # different sockets

    @property
    def label(self) -> str:
        return {
            Distance.SELF: "self",
            Distance.CACHE_LOCAL: "cache-local",
            Distance.INTRA_NUMA: "intra-numa",
            Distance.CROSS_NUMA: "cross-numa",
            Distance.CROSS_SOCKET: "cross-socket",
        }[self]


def classify_distance(topo: Topology, core_a: int, core_b: int) -> Distance:
    """Classify the topological distance between two cores."""
    if core_a == core_b:
        return Distance.SELF
    common = topo.common_ancestor(core_a, core_b)
    if common.kind is ObjKind.LLC:
        return Distance.CACHE_LOCAL
    if common.kind is ObjKind.NUMA:
        return Distance.INTRA_NUMA
    if common.kind is ObjKind.SOCKET:
        return Distance.CROSS_NUMA
    return Distance.CROSS_SOCKET


# Each ancestor of a core, outermost first, and the class of the cores it
# holds: its cores have it as their deepest common object unless an inner
# ancestor (written later) holds them too.
_ROW_CLASSES = ((ObjKind.SOCKET, Distance.CROSS_NUMA),
                (ObjKind.NUMA, Distance.INTRA_NUMA),
                (ObjKind.LLC, Distance.CACHE_LOCAL))


def distance_row(topo: Topology, core: int) -> list[Distance]:
    """``classify_distance(topo, core, b)`` for every core ``b``, from one
    walk of ``core``'s ancestors instead of one per pair."""
    row = [Distance.CROSS_SOCKET] * topo.n_cores
    for kind, dist in _ROW_CLASSES:
        obj = topo.ancestor_of_core(core, kind)
        if obj is not None:
            for other in obj.cores():
                row[other.index] = dist
    row[core] = Distance.SELF
    return row


def message_distance_label(topo: Topology, core_a: int, core_b: int) -> str:
    """Coarse label used by Table II: intra-numa / inter-numa / inter-socket.

    The paper's Table II folds cache-local pairs into "intra-NUMA" and
    cross-NUMA (same socket) pairs into "inter-NUMA".
    """
    dist = classify_distance(topo, core_a, core_b)
    if dist in (Distance.SELF, Distance.CACHE_LOCAL, Distance.INTRA_NUMA):
        return "intra-numa"
    if dist is Distance.CROSS_NUMA:
        return "inter-numa"
    return "inter-socket"
