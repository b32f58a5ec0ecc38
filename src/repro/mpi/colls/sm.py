"""`sm` — OpenMPI's shared-memory collectives component.

Characteristics modeled (SSV-D1, Fig. 4):

* copy-in-copy-out through per-communicator shared slots for *all* sizes,
  fragmented through a fixed window (8 KiB), with a full completion
  handshake per fragment (no deep pipelining);
* **atomic fetch-add** for the fan-in control flag — the design decision
  whose contention collapse on dense nodes (ARM-N1) the paper demonstrates;
* a flat (root-centric) communication structure.
"""

from __future__ import annotations

from typing import Iterator

from ...shmem.segment import SharedSegment
from ...sim import primitives as P
from ...sim.syncobj import Atomic, Flag
from .base import CollComponent, OpLedger, chunks

FRAGMENT = 8 * 1024


class SmColl(CollComponent):
    name = "sm"

    def __init__(self, fragment: int = FRAGMENT) -> None:
        super().__init__()
        self.fragment = fragment

    def _setup(self, comm) -> None:
        self.slots = []          # per-rank data slot (contributions)
        self.result_slots = []   # per-rank slot for fan-out data
        self.seq = []            # per-rank single-writer fragment counter
        self.posted = []         # per-rank single-writer post counter
        self.done = []           # per-rank atomic consumed-fragment counter
        for ctx in comm.ranks:
            seg = SharedSegment(ctx.space, f"sm.{ctx.rank}", 2 * self.fragment)
            self.slots.append(seg.reserve("in", self.fragment))
            self.result_slots.append(seg.reserve("out", self.fragment))
            self.seq.append(Flag(f"sm.seq.{ctx.rank}", ctx.core))
            self.posted.append(Flag(f"sm.posted.{ctx.rank}", ctx.core))
            self.done.append(Atomic(f"sm.done.{ctx.rank}", ctx.core))
        self.bar_arrive = Atomic("sm.bar.arrive", comm.ranks[0].core)
        self.bar_release = Flag("sm.bar.release", comm.ranks[0].core)
        # sm takes its bases and advances the ledger at op start.
        n = comm.size
        self.ledger = OpLedger(n, dict(seq=[0] * n, posted=[0] * n,
                                       done=[0] * n, ops=0))

    @staticmethod
    def _count_bcast(st, root, nfrag, size) -> None:
        """The root published ``nfrag`` fragments; each of the ``size - 1``
        other ranks consumed every one."""
        st["seq"][root] += nfrag
        st["done"][root] += nfrag * (size - 1)

    @classmethod
    def _count_reduce(cls, st, root, nfrag, size) -> None:
        """As a bcast, after every non-root posted ``nfrag`` fragments."""
        for q in range(size):
            if q != root:
                st["posted"][q] += nfrag
        cls._count_bcast(st, root, nfrag, size)

    @staticmethod
    def _count_barrier(st) -> None:
        st["ops"] += 1

    # -- broadcast --------------------------------------------------------

    def bcast(self, comm, ctx, view, root) -> Iterator:
        size = comm.size
        if size == 1:
            return
        if view.length == 0:
            return
        me = comm.rank_of(ctx)
        st = self.ledger.at(me)
        nfrag = -(-view.length // self.fragment)
        seq_base, done_base = st["seq"][root], st["done"][root]
        self.ledger.advance(me, self._count_bcast, root, nfrag, size)
        if me != root:
            yield P.Trace("message", {
                "src": comm.core_of(root), "dst": ctx.core,
                "src_rank": root, "dst_rank": me,
                "nbytes": view.length, "proto": "sm",
            })
        frag_i = 0
        for off, n in chunks(view.length, self.fragment):
            if me == root:
                # Reuse the slot only after everyone consumed the previous
                # fragment (the window handshake).
                if frag_i > 0:
                    yield P.WaitAtomic(self.done[root],
                                       done_base + frag_i * (size - 1))
                yield P.Copy(src=view.sub(off, n),
                             dst=self.result_slots[root].sub(0, n))
                yield P.SetFlag(self.seq[root], seq_base + frag_i + 1)
            else:
                yield P.WaitFlag(self.seq[root], seq_base + frag_i + 1)
                yield P.Copy(src=self.result_slots[root].sub(0, n),
                             dst=view.sub(off, n))
                yield P.AtomicRMW(self.done[root], 1)
            frag_i += 1
        if me == root:
            yield P.WaitAtomic(self.done[root], done_base + nfrag * (size - 1))

    # -- allreduce ---------------------------------------------------------

    def allreduce(self, comm, ctx, sview, rview, op, dtype) -> Iterator:
        yield from self._reduce_impl(comm, ctx, sview, rview, op, dtype,
                                     root=0, fan_out=True)

    def reduce(self, comm, ctx, sview, rview, op, dtype, root) -> Iterator:
        yield from self._reduce_impl(comm, ctx, sview, rview, op, dtype,
                                     root=root, fan_out=False)

    def _reduce_impl(self, comm, ctx, sview, rview, op, dtype, root,
                     fan_out) -> Iterator:
        size = comm.size
        me = comm.rank_of(ctx)
        if size == 1:
            if rview is not None:
                yield P.Copy(src=sview, dst=rview)
            return
        st = self.ledger.at(me)
        nbytes = sview.length
        nfrag = -(-nbytes // self.fragment)
        posted_base = st["posted"]
        seq_base, done_base = st["seq"][root], st["done"][root]
        self.ledger.advance(me, self._count_reduce, root, nfrag, size)
        frag_i = 0
        for off, n in chunks(nbytes, self.fragment):
            piece_in = self.slots[me].sub(0, n)
            if me == root:
                # Contribute our own fragment, then reduce everyone's.
                yield P.Copy(src=sview.sub(off, n), dst=piece_in)
                srcs = []
                for r in range(size):
                    if r == root:
                        continue
                    yield P.WaitFlag(self.posted[r],
                                     posted_base[r] + frag_i + 1)
                    srcs.append(self.slots[r].sub(0, n))
                dst = (rview if rview is not None else sview).sub(off, n)
                yield P.Reduce(srcs=tuple(srcs + [piece_in]), dst=dst,
                               op=op, dtype=dtype)
                if fan_out:
                    if frag_i > 0:
                        yield P.WaitAtomic(self.done[root],
                                           done_base + frag_i * (size - 1))
                    yield P.Copy(src=dst, dst=self.result_slots[root].sub(0, n))
                    yield P.SetFlag(self.seq[root], seq_base + frag_i + 1)
                else:
                    yield P.SetFlag(self.seq[root], seq_base + frag_i + 1)
            else:
                yield P.Copy(src=sview.sub(off, n), dst=piece_in)
                yield P.SetFlag(self.posted[me],
                                posted_base[me] + frag_i + 1)
                yield P.WaitFlag(self.seq[root], seq_base + frag_i + 1)
                if fan_out:
                    yield P.Copy(src=self.result_slots[root].sub(0, n),
                                 dst=rview.sub(off, n))
                yield P.AtomicRMW(self.done[root], 1)
            frag_i += 1
        if me == root:
            yield P.WaitAtomic(self.done[root], done_base + nfrag * (size - 1))

    # -- barrier -----------------------------------------------------------

    def barrier(self, comm, ctx) -> Iterator:
        size = comm.size
        if size == 1:
            return
        me = comm.rank_of(ctx)
        episode = self.ledger.at(me)["ops"] + 1
        self.ledger.advance(me, self._count_barrier)
        if me == 0:
            yield P.WaitAtomic(self.bar_arrive, episode * (size - 1))
            yield P.SetFlag(self.bar_release, episode)
        else:
            yield P.AtomicRMW(self.bar_arrive, 1)
            yield P.WaitFlag(self.bar_release, episode)
