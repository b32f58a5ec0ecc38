"""`tuned` — OpenMPI's default collectives over point-to-point messages.

Algorithms and decision thresholds follow OpenMPI's coll/tuned fixed rules
(simplified): trees and rings are laid out over *rank ids*, so the
communication pattern is static and topology-unaware — the property the
paper's Fig. 9 / Table II experiments expose.

Broadcast:
  * <= 2 KiB             binomial tree
  * <= 128 KiB           segmented binomial tree (32 KiB segments)
  * larger               chain pipeline (128 KiB segments)
Allreduce:
  * <= 8 KiB             recursive doubling
  * larger               ring reduce-scatter + ring allgather
Reduce: binomial tree with per-child accumulate.
Barrier: recursive doubling of empty tokens (4-byte payloads).
"""

from __future__ import annotations

from typing import Iterator

from ...sim import primitives as P
from .. import p2p
from .base import CollComponent, binomial_tree, chain_next, chunks

def _binomial_span(rel: int, size: int) -> int:
    """Number of relative ranks in ``rel``'s binomial subtree (they are
    contiguous: [rel, rel+span))."""
    if rel == 0:
        return size
    low = rel & -rel
    return min(low, size - rel)


BCAST_BINOMIAL_MAX = 2 * 1024
BCAST_SEGMENTED_MAX = 128 * 1024
BCAST_SEGMENT = 32 * 1024
BCAST_PIPELINE_SEGMENT = 128 * 1024
ALLREDUCE_RD_MAX = 8 * 1024


class Tuned(CollComponent):
    name = "tuned"

    def __init__(self) -> None:
        super().__init__()
        self._tmp = {}  # rank -> scratch buffers

    def _scratch(self, ctx, size: int):
        """Per-rank reduction scratch, grown on demand."""
        buf = self._tmp.get(ctx.rank)
        if buf is None or buf.size < size:
            buf = ctx.alloc(f"tuned.scratch.{size}", size)
            self._tmp[ctx.rank] = buf
        return buf

    # -- broadcast --------------------------------------------------------

    def bcast(self, comm, ctx, view, root) -> Iterator:
        size = comm.size
        if size == 1:
            return
        me = comm.rank_of(ctx)
        nbytes = view.length
        if nbytes <= BCAST_BINOMIAL_MAX:
            yield from self._bcast_binomial(comm, ctx, me, view, root, nbytes)
        elif nbytes <= BCAST_SEGMENTED_MAX:
            yield from self._bcast_segmented(comm, ctx, me, view, root,
                                             BCAST_SEGMENT)
        else:
            yield from self._bcast_chain(comm, ctx, me, view, root,
                                         BCAST_PIPELINE_SEGMENT)

    def _bcast_binomial(self, comm, ctx, me, view, root, nbytes) -> Iterator:
        parent, children = binomial_tree(me, comm.size, root)
        if parent is not None:
            yield from comm.recv(ctx, view, parent, tag=1)
        for child in children:
            yield from comm.send(ctx, view, child, tag=1)

    def _bcast_segmented(self, comm, ctx, me, view, root, seg) -> Iterator:
        parent, children = binomial_tree(me, comm.size, root)
        reqs: list[p2p.Request] = []
        for off, n in chunks(view.length, seg):
            piece = view.sub(off, n)
            if parent is not None:
                yield from comm.recv(ctx, piece, parent, tag=2)
            for child in children:
                reqs.append(p2p.isend(ctx, comm, piece, child, tag=2))
        for req in reqs:
            yield from req.wait()

    def _bcast_chain(self, comm, ctx, me, view, root, seg) -> Iterator:
        prev, nxt = chain_next(me, comm.size, root)
        reqs: list[p2p.Request] = []
        for off, n in chunks(view.length, seg):
            piece = view.sub(off, n)
            if prev is not None:
                yield from comm.recv(ctx, piece, prev, tag=3)
            if nxt is not None:
                reqs.append(p2p.isend(ctx, comm, piece, nxt, tag=3))
        for req in reqs:
            yield from req.wait()

    # -- allreduce ---------------------------------------------------------

    def allreduce(self, comm, ctx, sview, rview, op, dtype) -> Iterator:
        size = comm.size
        nbytes = sview.length
        if size == 1:
            yield P.Copy(src=sview, dst=rview)
            return
        if nbytes <= ALLREDUCE_RD_MAX:
            yield from self._allreduce_rd(comm, ctx, sview, rview, op, dtype)
        else:
            yield from self._allreduce_ring(comm, ctx, sview, rview, op, dtype)

    def _allreduce_rd(self, comm, ctx, sview, rview, op, dtype) -> Iterator:
        """Recursive doubling with the standard non-power-of-two fold."""
        size = comm.size
        me = comm.rank_of(ctx)
        nbytes = sview.length
        yield P.Copy(src=sview, dst=rview)
        tmp = self._scratch(ctx, nbytes).view(0, nbytes)

        pof2 = 1
        while pof2 * 2 <= size:
            pof2 *= 2
        rem = size - pof2

        # Pre-phase: the first 2*rem ranks fold odd ones into even ones.
        if me < 2 * rem:
            if me % 2:  # odd: contribute and sit out
                yield from comm.send(ctx, rview, me - 1, tag=4)
                newrank = -1
            else:
                yield from comm.recv(ctx, tmp, me + 1, tag=4)
                yield P.Reduce(srcs=(tmp,), dst=rview, op=op, dtype=dtype,
                               accumulate=True)
                newrank = me // 2
        else:
            newrank = me - rem

        if newrank != -1:
            mask = 1
            while mask < pof2:
                peer_new = newrank ^ mask
                peer = (peer_new * 2 if peer_new < rem else peer_new + rem)
                yield from p2p.sendrecv(ctx, comm, rview, peer, tmp, peer,
                                        tag=5)
                yield P.Reduce(srcs=(tmp,), dst=rview, op=op, dtype=dtype,
                               accumulate=True)
                mask <<= 1

        # Post-phase: hand the result back to the folded odd ranks.
        if me < 2 * rem:
            if me % 2:
                yield from comm.recv(ctx, rview, me - 1, tag=6)
            else:
                yield from comm.send(ctx, rview, me + 1, tag=6)

    def _allreduce_ring(self, comm, ctx, sview, rview, op, dtype) -> Iterator:
        """Ring reduce-scatter followed by ring allgather (bandwidth-optimal
        in a flat cost model; hops straddle sockets on rank-ordered rings)."""
        size = comm.size
        me = comm.rank_of(ctx)
        nbytes = sview.length
        # Element-aligned slice boundaries.
        elems = nbytes // dtype.itemsize
        base = elems // size
        extra = elems % size
        bounds = [0]
        for i in range(size):
            bounds.append(bounds[-1] + (base + (1 if i < extra else 0))
                          * dtype.itemsize)

        def slice_view(buf_view, idx):
            lo, hi = bounds[idx], bounds[idx + 1]
            return buf_view.sub(lo, hi - lo)

        if base == 0:
            # Fewer elements than ranks: ring slices degenerate; use
            # recursive doubling instead (OpenMPI does the same).
            yield from self._allreduce_rd(comm, ctx, sview, rview, op, dtype)
            return
        yield P.Copy(src=sview, dst=rview)
        tmp_buf = self._scratch(ctx, nbytes)
        nxt = (me + 1) % size
        prv = (me - 1) % size
        # Reduce-scatter: after step s, rank owns slice (me - s - 1).
        for s in range(size - 1):
            send_idx = (me - s) % size
            recv_idx = (me - s - 1) % size
            recv_tmp = tmp_buf.view(bounds[recv_idx],
                                    bounds[recv_idx + 1] - bounds[recv_idx])
            yield from p2p.sendrecv(ctx, comm, slice_view(rview, send_idx),
                                    nxt, recv_tmp, prv, tag=7)
            yield P.Reduce(srcs=(recv_tmp,), dst=slice_view(rview, recv_idx),
                           op=op, dtype=dtype, accumulate=True)
        # Allgather: circulate the finished slices.
        for s in range(size - 1):
            send_idx = (me - s + 1) % size
            recv_idx = (me - s) % size
            yield from p2p.sendrecv(ctx, comm, slice_view(rview, send_idx),
                                    nxt, slice_view(rview, recv_idx), prv,
                                    tag=8)

    # -- reduce -----------------------------------------------------------

    def reduce(self, comm, ctx, sview, rview, op, dtype, root) -> Iterator:
        size = comm.size
        me = comm.rank_of(ctx)
        nbytes = sview.length
        acc = rview if me == root and rview is not None else \
            self._scratch(ctx, 2 * nbytes).view(0, nbytes)
        yield P.Copy(src=sview, dst=acc)
        if size == 1:
            return
        tmp = self._scratch(ctx, 2 * nbytes).view(nbytes, nbytes)
        parent, children = binomial_tree(me, size, root)
        for child in children:
            yield from comm.recv(ctx, tmp, child, tag=9)
            yield P.Reduce(srcs=(tmp,), dst=acc, op=op, dtype=dtype,
                           accumulate=True)
        if parent is not None:
            yield from comm.send(ctx, acc, parent, tag=9)

    # -- gather / scatter / allgather ---------------------------------------

    def gather(self, comm, ctx, sview, rview, root) -> Iterator:
        """Binomial-tree gather: each rank forwards its subtree's blocks
        (contiguous in relative-rank order) to its parent."""
        size = comm.size
        me = comm.rank_of(ctx)
        block = sview.length
        if size == 1:
            if rview is not None:
                yield P.Copy(src=sview, dst=rview)
            return
        rel = (me - root) % size
        span = _binomial_span(rel, size)
        if me == root and rview is not None and root == 0:
            stage = rview  # relative order == rank order for root 0
        else:
            stage = self._scratch(ctx, span * block).view(0, span * block)
        yield P.Copy(src=sview, dst=stage.sub(0, block))
        parent, children = binomial_tree(me, size, root)
        # Receive children deepest-first so their subtrees are complete.
        for child in children:
            crel = (child - root) % size
            cspan = _binomial_span(crel, size)
            dst = stage.sub((crel - rel) * block, cspan * block)
            yield from comm.recv(ctx, dst, child, tag=11)
        if parent is not None:
            yield from comm.send(ctx, stage, parent, tag=11)
        elif rview is not None and root != 0:
            # stage holds blocks in relative order; rotate into rank order.
            for r in range(size):
                rel_r = (r - root) % size
                yield P.Copy(src=stage.sub(rel_r * block, block),
                             dst=rview.sub(r * block, block))

    def scatter(self, comm, ctx, sview, rview, root) -> Iterator:
        """Binomial-tree scatter (the gather, reversed)."""
        size = comm.size
        me = comm.rank_of(ctx)
        block = rview.length
        if size == 1:
            if sview is not None:
                yield P.Copy(src=sview, dst=rview)
            return
        rel = (me - root) % size
        span = _binomial_span(rel, size)
        if me == root:
            stage = self._scratch(ctx, size * block).view(0, size * block)
            # Lay the blocks out in relative-rank order once.
            for r in range(size):
                rel_r = (r - root) % size
                yield P.Copy(src=sview.sub(r * block, block),
                             dst=stage.sub(rel_r * block, block))
        else:
            buf = self._scratch(ctx, span * block)
            stage = buf.view(0, span * block)
            parent, _ = binomial_tree(me, size, root)
            yield from comm.recv(ctx, stage, parent, tag=12)
        _, children = binomial_tree(me, size, root)
        for child in children:
            crel = (child - root) % size
            cspan = _binomial_span(crel, size)
            piece = stage.sub((crel - rel) * block, cspan * block)
            yield from comm.send(ctx, piece, child, tag=12)
        yield P.Copy(src=stage.sub(0, block), dst=rview)

    def allgather(self, comm, ctx, sview, rview) -> Iterator:
        """Ring allgather: size-1 neighbour exchanges of one block each."""
        size = comm.size
        me = comm.rank_of(ctx)
        block = sview.length
        yield P.Copy(src=sview, dst=rview.sub(me * block, block))
        if size == 1:
            return
        nxt = (me + 1) % size
        prv = (me - 1) % size
        for s in range(size - 1):
            send_idx = (me - s) % size
            recv_idx = (me - s - 1) % size
            yield from p2p.sendrecv(
                ctx, comm, rview.sub(send_idx * block, block), nxt,
                rview.sub(recv_idx * block, block), prv, tag=13)

    def alltoall(self, comm, ctx, sview, rview) -> Iterator:
        """Pairwise-exchange alltoall: size-1 rounds, partner = me ^ ... or
        the (me + round) rotation for non-power-of-two sizes."""
        size = comm.size
        me = comm.rank_of(ctx)
        block = sview.length // size
        yield P.Copy(src=sview.sub(me * block, block),
                     dst=rview.sub(me * block, block))
        for rnd in range(1, size):
            dst = (me + rnd) % size
            src = (me - rnd) % size
            yield from p2p.sendrecv(
                ctx, comm, sview.sub(dst * block, block), dst,
                rview.sub(src * block, block), src, tag=14)

    def reduce_scatter_block(self, comm, ctx, sview, rview, op,
                             dtype) -> Iterator:
        """Ring reduce-scatter (the first phase of the ring allreduce)."""
        size = comm.size
        me = comm.rank_of(ctx)
        block = rview.length
        if size == 1:
            yield P.Copy(src=sview, dst=rview)
            return
        work = self._scratch(ctx, (size + 1) * block)
        acc = work.view(0, size * block)
        tmp = work.view(size * block, block)
        yield P.Copy(src=sview, dst=acc)
        nxt = (me + 1) % size
        prv = (me - 1) % size
        # Rotation chosen so each rank finishes holding its *own* block.
        for s in range(size - 1):
            send_idx = (me - s - 1) % size
            recv_idx = (me - s - 2) % size
            yield from p2p.sendrecv(
                ctx, comm, acc.sub(send_idx * block, block), nxt,
                tmp, prv, tag=15)
            yield P.Reduce(srcs=(tmp,), dst=acc.sub(recv_idx * block, block),
                           op=op, dtype=dtype, accumulate=True)
        yield P.Copy(src=acc.sub(me * block, block), dst=rview)

    # -- barrier -----------------------------------------------------------

    def barrier(self, comm, ctx) -> Iterator:
        size = comm.size
        if size == 1:
            return
        me = comm.rank_of(ctx)
        token = self._scratch(ctx, 8).view(0, 4)
        rtoken = self._scratch(ctx, 8).view(4, 4)
        # Dissemination barrier over p2p tokens.
        step = 1
        while step < size:
            dst = (me + step) % size
            src = (me - step) % size
            yield from p2p.sendrecv(ctx, comm, token, dst, rtoken, src,
                                    tag=10)
            step <<= 1
