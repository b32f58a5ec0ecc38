"""Hierarchy construction from the node topology (SSIII-A, Fig. 2).

Ranks are grouped by their core's ancestor object for each sensitivity
token (innermost first); each group elects a leader, and the leaders form
the next level's population, until a single top group remains. The group
containing the operation's root always elects the root, so the root is the
top-level leader regardless of which rank it is — this is what keeps
XHC-tree's traffic pattern invariant under root changes (Fig. 9b,
Table II).

Levels whose grouping is degenerate (every group a singleton) are dropped;
this is how ``numa+socket`` yields 3 levels on the dual-socket systems but
2 on Epyc-1P (SSV-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..errors import TopologyError
from ..topology.objects import ObjKind, Topology


@dataclass
class Group:
    """One communication group: a leader and its members at one level."""

    level: int
    index: int
    members: list[int]          # comm ranks, sorted
    leader: int

    @cached_property
    def nonleaders(self) -> list[int]:
        # Membership never changes after construction; this is on the
        # per-chunk monitor path, so compute it once.
        return [m for m in self.members if m != self.leader]

    def __repr__(self) -> str:
        return (f"<Group L{self.level}#{self.index} leader={self.leader} "
                f"members={self.members}>")


class Hierarchy:
    """The full n-level structure plus per-rank navigation tables."""

    def __init__(self, levels: list[list[Group]], nranks: int,
                 root: int) -> None:
        if not levels:
            raise TopologyError("hierarchy needs at least one level")
        self.levels = levels
        self.nranks = nranks
        self.root = root
        self.n_levels = len(levels)
        # The single group where each rank is a non-leader member (None for
        # the top leader == root).
        self.member_group: dict[int, Group | None] = {r: None
                                                      for r in range(nranks)}
        # Groups each rank leads, ascending level.
        self.led_groups: dict[int, list[Group]] = {r: []
                                                   for r in range(nranks)}
        for level in levels:
            for group in level:
                self.led_groups[group.leader].append(group)
                for member in group.nonleaders:
                    if self.member_group[member] is not None:
                        raise TopologyError(
                            f"rank {member} is a non-leader member of two "
                            f"groups"
                        )
                    self.member_group[member] = group
        # Navigation tables, derived once: the fan-out and barrier ledgers
        # walk the whole hierarchy on every rank for every op.
        self._children = [
            [(m, group.level) for group in self.led_groups[r]
             for m in group.nonleaders]
            for r in range(nranks)]
        # Ranks that publish fan-out data (inner nodes and the root).
        self.fan_producers = tuple(
            r for r in range(nranks) if self._children[r] or r == root)
        # Ranks that pull from a parent (everyone but the root).
        self.has_parent = tuple(
            r for r in range(nranks) if self.member_group[r] is not None)

    # -- navigation -----------------------------------------------------------

    def parent(self, rank: int) -> int | None:
        """The rank this one pulls from in fan-out (None for the root)."""
        group = self.member_group[rank]
        return None if group is None else group.leader

    def pull_level(self, rank: int) -> int:
        """The hierarchy level at which ``rank`` pulls from its parent."""
        group = self.member_group[rank]
        return 0 if group is None else group.level

    def children(self, rank: int) -> list[tuple[int, int]]:
        """(child_rank, level) pairs across all groups ``rank`` leads
        (a shared table: callers must not mutate it)."""
        return self._children[rank]

    def leaders(self) -> set[int]:
        """Ranks leading at least one group (includes the root)."""
        return {r for r, gs in self.led_groups.items() if gs}

    def describe(self) -> str:
        parts = []
        for i, level in enumerate(self.levels):
            sizes = [len(g.members) for g in level]
            parts.append(f"L{i}: {len(level)} group(s) of {sizes}")
        return "; ".join(parts)


def build_hierarchy(
    topo: Topology,
    rank_cores: list[int],
    tokens: list[ObjKind],
    root: int = 0,
    obs=None,
) -> Hierarchy:
    """Build the hierarchy for ranks pinned to ``rank_cores``.

    ``tokens`` are sensitivity kinds innermost-first ([] gives a flat
    single-group hierarchy). The returned levels are indexed from the
    innermost (level 0) to the top. ``obs`` (an observer) records the
    construction in the metrics registry when given.
    """
    nranks = len(rank_cores)
    if not 0 <= root < nranks:
        raise TopologyError(f"root {root} out of range")
    levels: list[list[Group]] = []
    current = list(range(nranks))

    def make_level(groups_ranks: list[list[int]]) -> list[Group]:
        level_groups = []
        for members in groups_ranks:
            members = sorted(members)
            leader = root if root in members else members[0]
            level_groups.append(
                Group(level=len(levels), index=len(level_groups),
                      members=members, leader=leader)
            )
        return level_groups

    for kind in tokens:
        index_of = topo.core_indices(kind)
        buckets: dict[int, list[int]] = {}
        for r in current:
            key = index_of[rank_cores[r]]
            buckets.setdefault(-1 if key is None else key, []).append(r)
        grouped = [buckets[k] for k in sorted(buckets)]
        if all(len(g) == 1 for g in grouped):
            continue  # degenerate level: adds serialization, no locality
        level = make_level(grouped)
        levels.append(level)
        current = [g.leader for g in level]
        if len(current) == 1:
            break

    if len(current) > 1:
        levels.append(make_level([current]))
        current = [levels[-1][0].leader]

    if not levels:
        # Single rank, or tokens empty (flat): one group of everyone.
        levels.append(make_level([list(range(nranks))]))

    top_leader = levels[-1][0].leader if len(levels[-1]) == 1 else None
    if top_leader != root and nranks > 1:
        raise TopologyError(
            f"internal error: top leader {top_leader} is not root {root}"
        )  # pragma: no cover
    hier = Hierarchy(levels, nranks, root)
    if obs is not None and obs.enabled:
        obs.metrics.counter(
            "xhc.hierarchies_built",
            "hierarchy constructions (one per distinct root)").inc()
        obs.metrics.gauge(
            "xhc.hierarchy_levels", "depth of the last-built hierarchy",
        ).set(hier.n_levels)
    return hier
