"""`ucc` — the Unified Collective Communication library (host TLs).

Modeled characteristics: efficient single-writer synchronization and XPMEM
single-copy transfers (like XHC), but **static, topology-unaware schedules**
laid out over rank ids (SSV-D1): knomial trees for small messages and
trees/rings for large ones. This makes ucc competitive in raw transport
(the paper finds it matches XHC at 128K-1M allreduce) while losing where
locality and congestion management matter.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from ...shmem.segment import SharedSegment
from ...sim import primitives as P
from ...sim.syncobj import Flag
from .base import CollComponent, OpLedger, knomial_tree

SMALL_MAX = 4 * 1024
CHUNK = 64 * 1024
RADIX = 4


class KnomialSchedule(NamedTuple):
    """One root's knomial tree for every rank, built once per root: every
    op's ledger update replays the whole tree."""

    parent: tuple            # parent[q] (None for the root)
    children: tuple          # children[q], far subtree first
    inner: tuple             # ranks with children (the root, when size > 1)

    @classmethod
    def build(cls, size: int, root: int, radix: int) -> "KnomialSchedule":
        links = [knomial_tree(q, size, root, radix) for q in range(size)]
        children = tuple(ch for _p, ch in links)
        return cls(parent=tuple(p for p, _ch in links), children=children,
                   inner=tuple(q for q, ch in enumerate(children) if ch))


class Ucc(CollComponent):
    name = "ucc"

    def __init__(self, radix: int = RADIX, small_max: int = SMALL_MAX,
                 chunk: int = CHUNK) -> None:
        super().__init__()
        self.radix = radix
        self.small_max = small_max
        self.chunk = chunk

    def _setup(self, comm) -> None:
        n = self._size = comm.size
        self.slot = []      # cico staging, one per rank
        self.prod = []      # reduce/bcast-stage production counters
        self.bprod = []     # fan-out stage production counters
        self.step = []      # ring reduce-scatter step counters
        self.rsdone = []    # owned-slice completion counters
        self.ack = []       # per-op completion counters
        for ctx in comm.ranks:
            seg = SharedSegment(ctx.space, f"ucc.{ctx.rank}", self.small_max)
            self.slot.append(seg.reserve("slot", self.small_max))
            self.prod.append(Flag(f"ucc.prod.{ctx.rank}", ctx.core))
            self.bprod.append(Flag(f"ucc.bprod.{ctx.rank}", ctx.core))
            self.step.append(Flag(f"ucc.step.{ctx.rank}", ctx.core))
            self.rsdone.append(Flag(f"ucc.rsdone.{ctx.rank}", ctx.core))
            self.ack.append(Flag(f"ucc.ack.{ctx.rank}", ctx.core))
        # Published user-buffer views, overwritten per op (safe: acks
        # guarantee all readers finished before the next op republishes).
        self._views: dict[int, object] = {}
        self._scratch: dict[int, object] = {}
        self._schedules: dict[int, KnomialSchedule] = {}
        self.ledger = OpLedger(n, {key: [0] * n for key in (
            "prod", "bprod", "step", "rsdone", "ack")})

    def _schedule(self, root: int) -> KnomialSchedule:
        sched = self._schedules.get(root)
        if sched is None:
            sched = KnomialSchedule.build(self._size, root, self.radix)
            self._schedules[root] = sched
        return sched

    def _scratch_view(self, ctx, size: int):
        buf = self._scratch.get(ctx.rank)
        if buf is None or buf.size < size:
            buf = ctx.alloc(f"ucc.scratch.{size}", size)
            self._scratch[ctx.rank] = buf
        return buf.view(0, size)

    def _finish(self, comm, ctx, me, root, children, led) -> Iterator:
        """Common finalization: collect children's acks, post our own
        (:meth:`_count_finish` is its ledger rule)."""
        for child in children:
            yield P.WaitFlag(self.ack[child], led["ack"][child] + 1)
        if me != root:
            yield P.SetFlag(self.ack[me], led["ack"][me] + 1)

    @staticmethod
    def _count_finish(led, root) -> None:
        ack = led["ack"]
        for q in range(len(ack)):
            if q != root:
                ack[q] += 1

    # -- broadcast --------------------------------------------------------

    def bcast(self, comm, ctx, view, root) -> Iterator:
        size = comm.size
        if size == 1 or view.length == 0:
            return
        me = comm.rank_of(ctx)
        led = self.ledger.at(me)
        sched = self._schedule(root)
        parent, children = sched.parent[me], sched.children[me]
        nbytes = view.length
        if nbytes > self.small_max:
            ctx.smsc.require(self.name, "bcast", nbytes)
        if parent is not None:
            yield P.Trace("message", {
                "src": comm.core_of(parent), "dst": ctx.core,
                "src_rank": parent, "dst_rank": me,
                "nbytes": nbytes, "proto": "ucc",
            })
        if nbytes <= self.small_max:
            yield from self._bcast_small(comm, ctx, me, view, parent,
                                         children, led, nbytes)
        else:
            yield from self._bcast_large(comm, ctx, me, view, parent,
                                         children, led, nbytes)
        yield from self._finish(comm, ctx, me, root, children, led)
        self.ledger.advance(me, self._count_bcast, sched, root,
                            1 if nbytes <= self.small_max else nbytes)

    @classmethod
    def _count_bcast(cls, led, sched: KnomialSchedule, root: int,
                     incr: int) -> None:
        """Every rank with children (the root included) produced one unit
        / S bytes."""
        cls._count_finish(led, root)
        bprod = led["bprod"]
        for q in sched.inner:
            bprod[q] += incr

    def _bcast_small(self, comm, ctx, me, view, parent, children, led,
                     nbytes) -> Iterator:
        if parent is None:
            yield P.Copy(src=view, dst=self.slot[me].sub(0, nbytes))
            yield P.SetFlag(self.bprod[me], led["bprod"][me] + 1)
        else:
            yield P.WaitFlag(self.bprod[parent], led["bprod"][parent] + 1)
            src = self.slot[parent].sub(0, nbytes)
            if children:
                yield P.Copy(src=src, dst=self.slot[me].sub(0, nbytes))
                yield P.SetFlag(self.bprod[me], led["bprod"][me] + 1)
                yield P.Copy(src=self.slot[me].sub(0, nbytes),
                             dst=view.sub(0, nbytes))
            else:
                yield P.Copy(src=src, dst=view.sub(0, nbytes))

    def _bcast_large(self, comm, ctx, me, view, parent, children, led,
                     nbytes) -> Iterator:
        self._views[me] = view
        if parent is None or children:
            yield from comm.node.xpmem.expose(view.buf)
        if parent is None:
            yield P.SetFlag(self.bprod[me], led["bprod"][me] + nbytes)
            return
        base_p = led["bprod"][parent]
        base_m = led["bprod"][me]
        got = 0
        while got < nbytes:
            n = min(self.chunk, nbytes - got)
            yield P.WaitFlag(self.bprod[parent], base_p + got + n)
            pview = self._views[parent]
            yield from ctx.smsc.copy_from(pview.sub(got, n), view.sub(got, n))
            got += n
            if children:
                yield P.SetFlag(self.bprod[me], base_m + got)

    # -- allreduce ---------------------------------------------------------

    def allreduce(self, comm, ctx, sview, rview, op, dtype) -> Iterator:
        size = comm.size
        me = comm.rank_of(ctx)
        if size == 1:
            yield P.Copy(src=sview, dst=rview)
            return
        nbytes = sview.length
        elems = nbytes // dtype.itemsize
        if nbytes <= self.small_max or elems < size:
            yield from self._allreduce_small(comm, ctx, me, sview, rview,
                                             op, dtype)
        else:
            ctx.smsc.require(self.name, "allreduce", nbytes, reduce=True)
            yield from self._allreduce_ring(comm, ctx, me, sview, rview,
                                            op, dtype)

    def _allreduce_small(self, comm, ctx, me, sview, rview, op,
                         dtype) -> Iterator:
        """Knomial reduce through the cico slots, then knomial fan-out."""
        led = self.ledger.at(me)
        nbytes = sview.length
        sched = self._schedule(0)
        parent, children = sched.parent[me], sched.children[me]
        # Reduce stage.
        srcs = []
        for child in children:
            yield P.WaitFlag(self.prod[child], led["prod"][child] + 1)
            srcs.append(self.slot[child].sub(0, nbytes))
        if srcs:
            yield P.Reduce(srcs=tuple(srcs + [sview]),
                           dst=self.slot[me].sub(0, nbytes),
                           op=op, dtype=dtype)
        else:
            yield P.Copy(src=sview, dst=self.slot[me].sub(0, nbytes))
        yield P.SetFlag(self.prod[me], led["prod"][me] + 1)
        # Fan-out stage: the root's slot now has the result.
        if parent is None:
            yield P.Copy(src=self.slot[me].sub(0, nbytes),
                         dst=rview.sub(0, nbytes))
            yield P.SetFlag(self.bprod[me], led["bprod"][me] + 1)
        else:
            yield P.WaitFlag(self.bprod[0], led["bprod"][0] + 1)
            yield P.Copy(src=self.slot[0].sub(0, nbytes),
                         dst=rview.sub(0, nbytes))
        yield from self._finish(comm, ctx, me, 0, children, led)
        self.ledger.advance(me, self._count_allreduce_small)

    @classmethod
    def _count_allreduce_small(cls, led) -> None:
        prod = led["prod"]
        for q in range(len(prod)):
            prod[q] += 1
        cls._count_finish(led, 0)
        led["bprod"][0] += 1

    def _allreduce_ring(self, comm, ctx, me, sview, rview, op,
                        dtype) -> Iterator:
        """Ring reduce-scatter over direct XPMEM loads + direct allgather."""
        size = comm.size
        led = self.ledger.at(me)
        nbytes = sview.length
        elems = nbytes // dtype.itemsize
        base_e, extra = divmod(elems, size)
        bounds = [0]
        for i in range(size):
            bounds.append(bounds[-1]
                          + (base_e + (1 if i < extra else 0)) * dtype.itemsize)

        def slc(v, j):
            return v.sub(bounds[j], bounds[j + 1] - bounds[j])

        self._views[me] = rview
        yield from comm.node.xpmem.expose(rview.buf)
        left = (me - 1) % size
        step_base = led["step"][me]
        step_base_left = led["step"][left]
        rs_base = led["rsdone"]
        yield P.Copy(src=sview, dst=rview)
        yield P.SetFlag(self.step[me], step_base + 1)
        for s in range(1, size):
            j = (me - s) % size
            yield P.WaitFlag(self.step[left], step_base_left + s)
            lview = self._views[left]
            yield from ctx.smsc.reduce_from(
                [slc(lview, j)], slc(rview, j),
                op=op, dtype=dtype, accumulate=True,
            )
            yield P.SetFlag(self.step[me], step_base + s + 1)
        yield P.SetFlag(self.rsdone[me], rs_base[me] + 1)
        # Direct allgather: pull each finished slice from its owner.
        for j in range(size):
            owner = (j - 1) % size
            if owner == me:
                continue
            yield P.WaitFlag(self.rsdone[owner], rs_base[owner] + 1)
            oview = self._views[owner]
            yield from ctx.smsc.copy_from(slc(oview, j), slc(rview, j))
        self.ledger.advance(me, self._count_ring, size)
        # Every rank's rview is read by the whole ring during the allgather,
        # so a subtree-scoped ack is not enough: full fence before reuse.
        yield from self.barrier(comm, ctx)

    @staticmethod
    def _count_ring(led, size: int) -> None:
        for q in range(size):
            led["step"][q] += size
            led["rsdone"][q] += 1

    # -- reduce -----------------------------------------------------------

    def reduce(self, comm, ctx, sview, rview, op, dtype, root) -> Iterator:
        """Knomial tree with direct XPMEM reduction of child contributions."""
        size = comm.size
        me = comm.rank_of(ctx)
        if size == 1:
            if rview is not None:
                yield P.Copy(src=sview, dst=rview)
            return
        led = self.ledger.at(me)
        nbytes = sview.length
        ctx.smsc.require(self.name, "reduce", nbytes, reduce=True)
        sched = self._schedule(root)
        parent, children = sched.parent[me], sched.children[me]
        contrib = sview
        if children:
            dst = rview if me == root and rview is not None \
                else self._scratch_view(ctx, nbytes)
            srcs = []
            for child in children:
                yield P.WaitFlag(self.prod[child], led["prod"][child] + 1)
                srcs.append(self._views[child].sub(0, nbytes))
            yield from ctx.smsc.reduce_from(
                srcs + [sview], dst, op=op, dtype=dtype
            )
            # Tell the children their contributions were consumed, so their
            # scratch buffers are safe to reuse next op.
            yield P.SetFlag(self.bprod[me], led["bprod"][me] + 1)
            contrib = dst
        if parent is not None:
            self._views[me] = contrib
            yield from comm.node.xpmem.expose(contrib.buf)
            yield P.SetFlag(self.prod[me], led["prod"][me] + 1)
            yield P.WaitFlag(self.bprod[parent], led["bprod"][parent] + 1)
        yield from self._finish(comm, ctx, me, root, children, led)
        self.ledger.advance(me, self._count_reduce, sched, root)

    @classmethod
    def _count_reduce(cls, led, sched: KnomialSchedule, root: int) -> None:
        cls._bump_tree(led, sched)
        cls._count_finish(led, root)

    def barrier(self, comm, ctx) -> Iterator:
        """Knomial gather of arrivals + knomial release."""
        size = comm.size
        if size == 1:
            return
        me = comm.rank_of(ctx)
        led = self.ledger.at(me)
        sched = self._schedule(0)
        parent, children = sched.parent[me], sched.children[me]
        for child in children:
            yield P.WaitFlag(self.prod[child], led["prod"][child] + 1)
        if parent is not None:
            yield P.SetFlag(self.prod[me], led["prod"][me] + 1)
            yield P.WaitFlag(self.bprod[parent], led["bprod"][parent] + 1)
        if children:
            yield P.SetFlag(self.bprod[me], led["bprod"][me] + 1)
        self.ledger.advance(me, self._bump_tree, sched)

    @staticmethod
    def _bump_tree(led, sched: KnomialSchedule) -> None:
        """Reduce/barrier ledger: every rank posted once; every rank with
        children released its subtree once."""
        prod = led["prod"]
        for q in range(len(prod)):
            prod[q] += 1
        bprod = led["bprod"]
        for q in sched.inner:
            bprod[q] += 1
