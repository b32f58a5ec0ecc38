"""`smhc` — Shared-Memory-based Hierarchical Collectives (Jain et al. [18]).

Reimplementation of the SC'18 design the paper compares against: all data
moves through shared-memory staging buffers (copy-in-copy-out, never
single-copy), synchronized by single-writer flags, with an optional
socket-aware two-level tree for both flag and data propagation.

Fragmentation: payloads stream through fixed staging slots (32 KiB) with a
completion handshake per fragment — this double copy is what XHC's XPMEM
path beats for large messages (Fig. 8).

Variants:
  * ``Smhc(tree=False)`` — flat: everyone stages off the root.
  * ``Smhc(tree=True)``  — socket leaders re-stage for their socket.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from ...shmem.segment import SharedSegment
from ...sim import primitives as P
from ...sim.syncobj import Flag
from .base import CollComponent, OpLedger, chunks

FRAGMENT = 32 * 1024


class StagingSchedule(NamedTuple):
    """One root's :meth:`Smhc._roles` for every rank, plus the rank tuples
    the ledgers increment — built once per root instead of re-deriving
    every rank's roles on every rank for every op."""

    roles: tuple         # roles[q] = (stage_parent, consumers)
    stagers: tuple       # ranks with consumers
    pullers: tuple       # ranks with a stage parent
    members: tuple       # ranks with either (every rank, when size > 1)


class Smhc(CollComponent):
    """``name`` is the registry name the instance serves under
    (``smhc-flat``, ``smhc-tree``); it names the component in the ``comp``
    of collective spans."""

    def __init__(self, tree: bool = False, fragment: int = FRAGMENT, *,
                 name: str = "smhc") -> None:
        super().__init__()
        self.name = name
        self.tree = tree
        self.fragment = fragment

    def _setup(self, comm) -> None:
        topo = comm.node.topo
        n = self._size = comm.size
        self.slot = []
        self.rslot = []
        self.prod = []     # staging-slot fragment counters (single writer)
        self.posted = []   # reduce contributions posted
        self.ack = []      # fragments consumed (single-writer per rank)
        for ctx in comm.ranks:
            seg = SharedSegment(ctx.space, f"smhc.{ctx.rank}",
                                2 * self.fragment)
            self.slot.append(seg.reserve("in", self.fragment))
            self.rslot.append(seg.reserve("stage", self.fragment))
            self.prod.append(Flag(f"smhc.prod.{ctx.rank}", ctx.core))
            self.posted.append(Flag(f"smhc.posted.{ctx.rank}", ctx.core))
            self.ack.append(Flag(f"smhc.ack.{ctx.rank}", ctx.core))
        # Socket-aware grouping: ranks partitioned by the socket of their
        # core; the lowest rank in each socket is its leader.
        if self.tree:
            groups: dict[int, list[int]] = {}
            for r, ctx in enumerate(comm.ranks):
                sock = topo.socket_of_core(ctx.core)
                groups.setdefault(sock.index if sock else 0, []).append(r)
            self.sockets = [sorted(g) for _, g in sorted(groups.items())]
        else:
            self.sockets = [list(range(n))]
        self._schedules: dict[int, StagingSchedule] = {}
        self.ledger = OpLedger(n, {key: [0] * n
                                   for key in ("prod", "posted", "ack")})

    def _schedule(self, root: int) -> StagingSchedule:
        sched = self._schedules.get(root)
        if sched is None:
            roles = tuple(self._roles(q, root) for q in range(self._size))
            sched = StagingSchedule(
                roles=roles,
                stagers=tuple(q for q, (_p, cons) in enumerate(roles)
                              if cons),
                pullers=tuple(q for q, (p, _cons) in enumerate(roles)
                              if p is not None),
                members=tuple(q for q, (p, cons) in enumerate(roles)
                              if p is not None or cons))
            self._schedules[root] = sched
        return sched

    def _roles(self, me: int, root: int):
        """(stage_parent, consumers) under the current root.

        The root stages for socket leaders (and its own socket's members);
        each other socket's leader re-stages for its members. The root's
        socket uses the root itself as its leader.
        """
        leaders = []
        my_leader = None
        consumers: list[int] = []
        for group in self.sockets:
            leader = root if root in group else group[0]
            leaders.append(leader)
            if me in group:
                my_leader = leader
                if me == leader:
                    consumers.extend(r for r in group if r != me)
        if me == root:
            consumers.extend(l for l in leaders if l != root)
            return None, sorted(set(consumers))
        if me == my_leader:
            return root, sorted(set(consumers))
        return my_leader, []

    # -- broadcast --------------------------------------------------------

    def bcast(self, comm, ctx, view, root) -> Iterator:
        size = comm.size
        if size == 1 or view.length == 0:
            return
        me = comm.rank_of(ctx)
        st = self.ledger.at(me)
        sched = self._schedule(root)
        parent, consumers = sched.roles[me]
        nbytes = view.length
        nfrag = -(-nbytes // self.fragment)
        if parent is not None:
            yield P.Trace("message", {
                "src": comm.core_of(parent), "dst": ctx.core,
                "src_rank": parent, "dst_rank": me,
                "nbytes": nbytes, "proto": "smhc",
            })
        prod_base = st["prod"]
        ack_base = st["ack"]
        frag_i = 0
        for off, n in chunks(nbytes, self.fragment):
            if parent is None:
                src = view.sub(off, n)
            else:
                yield P.WaitFlag(self.prod[parent], prod_base[parent]
                                 + frag_i + 1)
                src = self.rslot[parent].sub(0, n)
                yield P.Copy(src=src, dst=view.sub(off, n))
                src = view.sub(off, n)
                yield P.SetFlag(self.ack[me], ack_base[me] + frag_i + 1)
            if consumers:
                # Stage for our consumers, re-using the slot only once they
                # all drained the previous fragment.
                if frag_i > 0:
                    for c in consumers:
                        yield P.WaitFlag(self.ack[c], ack_base[c] + frag_i)
                yield P.Copy(src=src, dst=self.rslot[me].sub(0, n))
                yield P.SetFlag(self.prod[me], prod_base[me] + frag_i + 1)
            frag_i += 1
        if consumers:
            for c in consumers:
                yield P.WaitFlag(self.ack[c], ack_base[c] + nfrag)
        self.ledger.advance(me, self._count_bcast, sched, nfrag)

    @staticmethod
    def _count_bcast(st, sched: StagingSchedule, nfrag: int) -> None:
        prod = st["prod"]
        for q in sched.stagers:
            prod[q] += nfrag
        ack = st["ack"]
        for q in sched.pullers:
            ack[q] += nfrag

    # -- allreduce / reduce --------------------------------------------------

    def allreduce(self, comm, ctx, sview, rview, op, dtype) -> Iterator:
        yield from self._reduce_impl(comm, ctx, sview, rview, op, dtype,
                                     root=0, fan_out=True)

    def reduce(self, comm, ctx, sview, rview, op, dtype, root) -> Iterator:
        yield from self._reduce_impl(comm, ctx, sview, rview, op, dtype,
                                     root=root, fan_out=False)

    def _reduce_impl(self, comm, ctx, sview, rview, op, dtype, root,
                     fan_out) -> Iterator:
        """Leaders aggregate their socket's contributions fragment-wise in
        shared memory; the root aggregates the leaders; optional fan-out
        re-uses the bcast staging path.

        Slot-reuse protocol: a contributor may overwrite its staging slot
        for fragment f+1 only after its aggregator's consumed counter (the
        aggregator's ``ack`` flag) covers fragment f.
        """
        size = comm.size
        me = comm.rank_of(ctx)
        if size == 1:
            if rview is not None:
                yield P.Copy(src=sview, dst=rview)
            return
        st = self.ledger.at(me)
        nbytes = sview.length
        nfrag = -(-nbytes // self.fragment)
        sched = self._schedule(root)
        parent, consumers = sched.roles[me]
        contributors = consumers  # reduce direction mirrors the fan-out tree
        posted_base = st["posted"]
        ack_base = st["ack"]
        frag_i = 0
        for off, n in chunks(nbytes, self.fragment):
            if parent is not None:
                # Contribute: members post raw data, leaders post their
                # socket's partial sum (computed below).
                if frag_i > 0:
                    yield P.WaitFlag(self.ack[parent],
                                     ack_base[parent] + frag_i)
                if not contributors:
                    yield P.Copy(src=sview.sub(off, n),
                                 dst=self.slot[me].sub(0, n))
                    yield P.SetFlag(self.posted[me],
                                    posted_base[me] + frag_i + 1)
            if contributors:
                srcs = []
                for c in contributors:
                    yield P.WaitFlag(self.posted[c],
                                     posted_base[c] + frag_i + 1)
                    srcs.append(self.slot[c].sub(0, n))
                dst = (rview.sub(off, n) if me == root and rview is not None
                       else self.slot[me].sub(0, n))
                yield P.Reduce(srcs=tuple(srcs + [sview.sub(off, n)]),
                               dst=dst, op=op, dtype=dtype)
                yield P.SetFlag(self.ack[me], ack_base[me] + frag_i + 1)
                if parent is not None:  # leader forwards its partial sum
                    yield P.SetFlag(self.posted[me],
                                    posted_base[me] + frag_i + 1)
            frag_i += 1
        if parent is not None:
            # The final fragment must be consumed before our slot can be
            # reused by the next operation.
            yield P.WaitFlag(self.ack[parent], ack_base[parent] + nfrag)
        self.ledger.advance(me, self._count_reduce, sched, nfrag)
        if fan_out:
            yield from self.bcast(comm, ctx, rview, root)

    @staticmethod
    def _count_reduce(st, sched: StagingSchedule, nfrag: int) -> None:
        posted = st["posted"]
        for q in sched.members:
            posted[q] += nfrag
        ack = st["ack"]
        for q in sched.stagers:
            ack[q] += nfrag

    def barrier(self, comm, ctx) -> Iterator:
        size = comm.size
        if size == 1:
            return
        me = comm.rank_of(ctx)
        st = self.ledger.at(me)
        sched = self._schedule(0)
        parent, consumers = sched.roles[me]
        for c in consumers:
            yield P.WaitFlag(self.posted[c], st["posted"][c] + 1)
        if parent is not None:
            yield P.SetFlag(self.posted[me], st["posted"][me] + 1)
            yield P.WaitFlag(self.prod[parent], st["prod"][parent] + 1)
        if consumers:
            yield P.SetFlag(self.prod[me], st["prod"][me] + 1)
        self.ledger.advance(me, self._count_barrier, sched)

    @staticmethod
    def _count_barrier(st, sched: StagingSchedule) -> None:
        posted = st["posted"]
        for q in sched.members:
            posted[q] += 1
        prod = st["prod"]
        for q in sched.stagers:
            prod[q] += 1
