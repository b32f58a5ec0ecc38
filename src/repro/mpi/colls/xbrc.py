"""`xbrc` — XPMEM-Based Reduction Collectives (Hashmi et al. [5]).

Reimplementation of the IPDPS'18 shared-address-space design the paper
compares against for Allreduce/Reduce (intra-node phase):

* the message is partitioned among **all** ranks (flat — no topology
  awareness, the property that makes it behave like XHC-flat in Fig. 11);
* each partition owner reduces that slice *directly out of every peer's
  send buffer* through XPMEM mappings (kept in a registration cache);
* for Allreduce, every rank then pulls each finished slice straight from
  its owner's receive buffer — an all-to-all fan-in with no hierarchy;
* a minimum partition granularity serializes small messages onto a single
  reducer (the linearization the paper observes for small sizes).
"""

from __future__ import annotations

from typing import Iterator

from ...sim import primitives as P
from ...sim.syncobj import Flag
from .base import CollComponent, partition

MIN_SLICE = 1024


class Xbrc(CollComponent):
    name = "xbrc"

    def __init__(self, min_slice: int = MIN_SLICE) -> None:
        super().__init__()
        self.min_slice = min_slice

    def _setup(self, comm) -> None:
        self.posted = []   # source/receive buffers published (per-op)
        self.done = []     # slice reduction finished
        self.ack = []      # op completed
        for ctx in comm.ranks:
            self.posted.append(Flag(f"xbrc.posted.{ctx.rank}", ctx.core))
            self.done.append(Flag(f"xbrc.done.{ctx.rank}", ctx.core))
            self.ack.append(Flag(f"xbrc.ack.{ctx.rank}", ctx.core))
        self.release = Flag("xbrc.release", comm.ranks[0].core)
        self._sviews: dict[int, object] = {}
        self._rviews: dict[int, object] = {}
        # Ops each rank has started: the base of its flag values.
        self._ops = [0] * comm.size

    def allreduce(self, comm, ctx, sview, rview, op, dtype) -> Iterator:
        yield from self._impl(comm, ctx, sview, rview, op, dtype, root=None)

    def reduce(self, comm, ctx, sview, rview, op, dtype, root) -> Iterator:
        yield from self._impl(comm, ctx, sview, rview, op, dtype, root=root)

    def _impl(self, comm, ctx, sview, rview, op, dtype, root) -> Iterator:
        size = comm.size
        me = comm.rank_of(ctx)
        if size == 1:
            if rview is not None:
                yield P.Copy(src=sview, dst=rview)
            return
        base = self._ops[me]
        self._ops[me] = base + 1
        nbytes = sview.length
        ctx.smsc.require(self.name, "allreduce" if root is None else "reduce",
                         nbytes, reduce=True)
        slices = partition(nbytes, size, minimum=self.min_slice,
                           align=dtype.itemsize)

        # Publish our buffers (xpmem_make is one-time per buffer; the
        # registration caches on the reader side amortize the attaches).
        self._sviews[me] = sview
        yield from comm.node.xpmem.expose(sview.buf)
        if rview is not None:
            self._rviews[me] = rview
            yield from comm.node.xpmem.expose(rview.buf)
        yield P.SetFlag(self.posted[me], base + 1)

        # Phase 1: reduce our slice directly from every peer's sbuf.
        my_slice = slices[me] if me < len(slices) else None
        if my_slice is not None:
            off, n = my_slice
            srcs = []
            for r in range(size):
                if r != me:
                    yield P.WaitFlag(self.posted[r], base + 1)
                peer_s = sview if r == me else self._sviews[r]
                srcs.append(peer_s.sub(off, n))
            if root is None or me == root:
                dst = rview.sub(off, n)
            else:
                # Reduce straight into the root's receive buffer (the
                # truly-single-copy reduction XPMEM enables, SSII-B).
                yield P.WaitFlag(self.posted[root], base + 1)
                dst = self._rviews[root].sub(off, n)
            yield from ctx.smsc.reduce_from(srcs, dst, op=op, dtype=dtype)
        yield P.SetFlag(self.done[me], base + 1)

        if root is None:
            # Phase 2: pull every other slice from its owner (flat fan-in).
            for owner, (off, n) in enumerate(slices):
                if owner == me:
                    continue
                yield P.WaitFlag(self.done[owner], base + 1)
                yield from ctx.smsc.copy_from(
                    self._rviews[owner].sub(off, n), rview.sub(off, n)
                )
        elif me == root:
            for owner in range(len(slices)):
                if owner != root:
                    yield P.WaitFlag(self.done[owner], base + 1)

        # Flat release so every buffer is safe to reuse next op.
        if me == 0:
            for r in range(1, size):
                yield P.WaitFlag(self.ack[r], base + 1)
            yield P.SetFlag(self.release, base + 1)
        else:
            yield P.SetFlag(self.ack[me], base + 1)
            yield P.WaitFlag(self.release, base + 1)
