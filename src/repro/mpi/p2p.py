"""Point-to-point transport: eager + rendezvous over shared memory.

This is the layer the `tuned`-style components build their trees on. Its
per-message overheads (matching, rendezvous handshake, copy-in-copy-out for
eager traffic) are exactly the costs the paper's *direct* implementations
avoid (SSI).

Protocols, per message size against ``eager_limit``:

* **eager** — sender copies into a per-channel shared slot (copy-in), bumps
  its `sent` flag; receiver copies out (copy-out), bumps `consumed`.
* **rendezvous** — sender exposes + publishes the buffer and raises RTS;
  receiver pulls the payload with a single copy through SMSC
  (XPMEM/CMA/KNEM) and raises FIN. With SMSC disabled the payload is
  pipelined through the shared slot in CICO fashion instead.

Each (src, dst, tag) channel is ordered; eager and rendezvous messages use
separate monotonic sequence counters so the two flag streams stay
monotonic even when sizes straddle the eager limit. Both sides must post
matching sizes (the protocol choice is derived from the size — a normal
property of collectives traffic, which this layer exists to serve).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..errors import MPIError
from ..sim import primitives as P
from ..sim.syncobj import Flag
from ..shmem.segment import SharedSegment

if TYPE_CHECKING:  # pragma: no cover
    from ..memory.address_space import BufView
    from .world import Communicator, RankCtx

# Software overheads of the point-to-point layer: descriptor setup and
# progression on the sender; tag matching + request completion on the
# receiver; rendezvous adds protocol processing per message. These are the
# costs the paper's *direct* collectives avoid (SSI) and are calibrated to
# UCX-class stacks.
SEND_OVERHEAD = 250e-9
MATCH_OVERHEAD = 500e-9
RNDV_SETUP = 1200e-9

EAGER_LIMIT = 8 * 1024
CICO_PIPELINE_SLOT = 64 * 1024


class Channel:
    """Ordered message channel for one (src, dst, tag) triple."""

    def __init__(self, comm: "Communicator", src: "RankCtx", dst: "RankCtx",
                 tag: int) -> None:
        self.src = src
        self.dst = dst
        self.tag = tag
        self.seg = SharedSegment(
            src.space, f"p2p.{src.rank}->{dst.rank}.t{tag}",
            EAGER_LIMIT + CICO_PIPELINE_SLOT,
        )
        self.slot = self.seg.reserve("eager", EAGER_LIMIT)
        # Separate staging area for the no-SMSC rendezvous pipeline, so an
        # in-flight eager payload is never clobbered.
        self.pipe = self.seg.reserve("pipe", CICO_PIPELINE_SLOT)
        name = f"{src.rank}.{dst.rank}.{tag}"
        self.sent = Flag(f"p2p.sent.{name}", src.core)
        self.consumed = Flag(f"p2p.cons.{name}", dst.core)
        self.rts = Flag(f"p2p.rts.{name}", src.core)
        self.fin = Flag(f"p2p.fin.{name}", dst.core)
        # Cumulative byte counters of the no-SMSC rendezvous pipeline.
        self.pipe_prod = Flag(f"p2p.pprod.{name}", src.core)
        self.pipe_cons = Flag(f"p2p.pcons.{name}", dst.core)
        # Bytes ever pipelined, tracked independently per side (message
        # order is identical on both, so the bases always agree).
        self.pipe_claim = 0       # claimed at send issue (ordering)
        self.pipe_bytes_recv = 0
        # Per-protocol monotonic sequence counters.
        self.send_eager = 0
        self.send_rndv = 0
        self.recv_eager = 0
        self.recv_rndv = 0
        # In-flight descriptors: ("e"|"r", seq) -> (nbytes, rndv view).
        self.descriptors: dict[tuple[str, int], tuple[int, "BufView | None"]] = {}


def _trace(ctx, comm, me: int, dst: int, nbytes: int,
           proto: str) -> P.Trace:
    return P.Trace("message", {
        "src": ctx.core, "dst": comm.ranks[dst].core, "src_rank": me,
        "dst_rank": dst, "nbytes": nbytes, "proto": proto,
    })


def _send_eager(ctx, ch: Channel, view: "BufView", seq: int) -> Iterator:
    nbytes = view.length
    # Flow control: the slot must have been drained of the previous
    # eager message before we overwrite it.
    yield P.WaitFlag(ch.consumed, seq)
    ch.descriptors[("e", seq)] = (nbytes, None)
    yield P.Copy(src=view, dst=ch.slot.sub(0, nbytes))  # copy-in
    yield P.SetFlag(ch.sent, seq + 1)


def _send_rndv_post(ctx, ch: Channel, view: "BufView", seq: int) -> Iterator:
    if ctx.smsc.enabled:
        yield from ctx.node.xpmem.expose(view.buf)
    ch.descriptors[("r", seq)] = (view.length, view)
    # Keep the RTS flag monotonic when several nonblocking sends race.
    yield P.WaitFlag(ch.rts, seq)
    yield P.SetFlag(ch.rts, seq + 1)


def _claim_pipe(ctx, ch: Channel, nbytes: int) -> int:
    """Reserve the pipe byte range for a no-SMSC rendezvous message, in
    issue order (matches the receiver's processing order)."""
    if ctx.smsc.enabled:
        return -1
    base = ch.pipe_claim
    ch.pipe_claim += nbytes
    return base


def _send_rndv_finish(ctx, ch: Channel, view: "BufView", seq: int,
                      pipe_base: int) -> Iterator:
    """Complete a rendezvous send: with SMSC the receiver pulls the data
    itself; without it the *sender* streams fragments through the shared
    pipe (copy-in), which is exactly the CPU cost CICO pays twice."""
    if not ctx.smsc.enabled:
        yield from _cico_push(ch, view, pipe_base)
    yield P.WaitFlag(ch.fin, seq + 1)


def send(ctx: "RankCtx", comm: "Communicator", view: "BufView",
         dst: int, tag: int = 0) -> Iterator:
    """Blocking-standard-mode send (completes when the buffer is reusable)."""
    me = comm.rank_of(ctx)
    if dst == me:
        raise MPIError("self-send through the p2p layer is unsupported")
    ch = comm.channel(me, dst, tag)
    nbytes = view.length
    eager = nbytes <= EAGER_LIMIT
    yield _trace(ctx, comm, me, dst, nbytes, "eager" if eager else "rndv")
    yield P.Compute(SEND_OVERHEAD)
    if eager:
        seq = ch.send_eager
        ch.send_eager += 1
        yield from _send_eager(ctx, ch, view, seq)
    else:
        seq = ch.send_rndv
        ch.send_rndv += 1
        pipe_base = _claim_pipe(ctx, ch, nbytes)
        yield from _send_rndv_post(ctx, ch, view, seq)
        yield from _send_rndv_finish(ctx, ch, view, seq, pipe_base)


def recv(ctx: "RankCtx", comm: "Communicator", view: "BufView",
         src: int, tag: int = 0) -> Iterator:
    """Blocking receive; ``view`` must match the message size."""
    me = comm.rank_of(ctx)
    if src == me:
        raise MPIError("self-receive through the p2p layer is unsupported")
    ch = comm.channel(src, me, tag)
    yield P.Compute(MATCH_OVERHEAD)
    expected = view.length
    if expected <= EAGER_LIMIT:
        seq = ch.recv_eager
        ch.recv_eager += 1
        yield P.WaitFlag(ch.sent, seq + 1)
        nbytes, _ = ch.descriptors.pop(("e", seq))
        if nbytes > expected:
            raise MPIError(f"message truncation: {nbytes} bytes into {expected}")
        yield P.Copy(src=ch.slot.sub(0, nbytes), dst=view.sub(0, nbytes))
        yield P.SetFlag(ch.consumed, seq + 1)
        return
    seq = ch.recv_rndv
    ch.recv_rndv += 1
    yield P.WaitFlag(ch.rts, seq + 1)
    yield P.Compute(RNDV_SETUP)
    nbytes, remote = ch.descriptors.pop(("r", seq))
    assert remote is not None
    if nbytes > expected:
        raise MPIError(f"message truncation: {nbytes} bytes into {expected}")
    if ctx.smsc.enabled:
        yield from ctx.smsc.copy_from(remote, view.sub(0, nbytes))
    else:
        yield from _cico_pull(ch, view, nbytes)
    # Keep FIN monotonic across out-of-order completions: they cannot be
    # out of order, because this receiver processes rndv seqs in order.
    yield P.SetFlag(ch.fin, seq + 1)


class Request:
    """Completion handle of a nonblocking operation."""

    _count = 0

    def __init__(self, ctx: "RankCtx") -> None:
        Request._count += 1
        self.flag = Flag(f"req.{ctx.rank}.{Request._count}", ctx.core)

    def wait(self) -> Iterator:
        yield P.WaitFlag(self.flag, 1)


def isend(ctx: "RankCtx", comm: "Communicator", view: "BufView",
          dst: int, tag: int = 0) -> Request:
    """Nonblocking send: protocol progress runs concurrently (as UCX's
    progress engine provides); wait on the returned request.

    The channel sequence number is claimed *now*, so message order matches
    isend issue order even though progress overlaps.
    """
    req = Request(ctx)
    me = comm.rank_of(ctx)
    ch = comm.channel(me, dst, tag)
    nbytes = view.length
    eager = nbytes <= EAGER_LIMIT
    if eager:
        seq = ch.send_eager
        ch.send_eager += 1
        pipe_base = -1
    else:
        seq = ch.send_rndv
        ch.send_rndv += 1
        pipe_base = _claim_pipe(ctx, ch, nbytes)

    def _runner() -> Iterator:
        yield _trace(ctx, comm, me, dst, nbytes, "eager" if eager else "rndv")
        yield P.Compute(SEND_OVERHEAD)
        if eager:
            yield from _send_eager(ctx, ch, view, seq)
        else:
            yield from _send_rndv_post(ctx, ch, view, seq)
            yield from _send_rndv_finish(ctx, ch, view, seq, pipe_base)
        yield P.SetFlag(req.flag, 1)

    ctx.node.engine.spawn(
        _runner(), core=ctx.core, name=f"isend.{ctx.rank}->{dst}"
    )
    return req


def sendrecv(ctx: "RankCtx", comm: "Communicator", sview: "BufView", dst: int,
             rview: "BufView", src: int, tag: int = 0) -> Iterator:
    """Deadlock-free exchange: publish the outgoing message, receive, then
    complete the send — both directions progress concurrently."""
    me = comm.rank_of(ctx)
    ch_o = comm.channel(me, dst, tag)
    n_o = sview.length
    eager_o = n_o <= EAGER_LIMIT
    yield _trace(ctx, comm, me, dst, n_o, "eager" if eager_o else "rndv")
    yield P.Compute(SEND_OVERHEAD)
    if eager_o:
        seq_o = ch_o.send_eager
        ch_o.send_eager += 1
        yield from _send_eager(ctx, ch_o, sview, seq_o)
        yield from recv(ctx, comm, rview, src, tag)
    else:
        seq_o = ch_o.send_rndv
        ch_o.send_rndv += 1
        pipe_base = _claim_pipe(ctx, ch_o, n_o)
        yield from _send_rndv_post(ctx, ch_o, sview, seq_o)
        yield from recv(ctx, comm, rview, src, tag)
        yield from _send_rndv_finish(ctx, ch_o, sview, seq_o, pipe_base)


FRAG = 16 * 1024                 # staged fragment (two halves ping-ponged)
FRAG_PROTO = 400e-9              # FIFO posting/polling per fragment, per side


def _cico_push(ch: Channel, view: "BufView", base: int) -> Iterator:
    """Sender half of the no-SMSC rendezvous: stream copy-ins through the
    double-buffered pipe (sender CPU + an extra pass over the data — the
    overhead single-copy mechanisms exist to remove, SSI)."""
    nbytes = view.length
    # The pipe serves one message at a time; wait for earlier claims to
    # drain completely (issue order equals receive order).
    yield P.WaitFlag(ch.pipe_cons, base)
    done = 0
    frag = 0
    while done < nbytes:
        n = min(FRAG, nbytes - done)
        if frag >= 2:
            # Reuse a half only after the receiver drained it.
            prev_end = done - FRAG  # bytes through fragment frag-2
            yield P.WaitFlag(ch.pipe_cons, base + prev_end)
        half = ch.pipe.sub((frag % 2) * FRAG, n)
        yield P.Compute(FRAG_PROTO)
        yield P.Copy(src=view.sub(done, n), dst=half)
        done += n
        yield P.SetFlag(ch.pipe_prod, base + done)
        frag += 1


def _cico_pull(ch: Channel, view: "BufView", nbytes: int) -> Iterator:
    """Receiver half: copy-outs trailing the sender's copy-ins."""
    base = ch.pipe_bytes_recv
    ch.pipe_bytes_recv = base + nbytes
    done = 0
    frag = 0
    while done < nbytes:
        n = min(FRAG, nbytes - done)
        yield P.WaitFlag(ch.pipe_prod, base + done + n)
        half = ch.pipe.sub((frag % 2) * FRAG, n)
        yield P.Compute(FRAG_PROTO)
        yield P.Copy(src=half, dst=view.sub(done, n))
        done += n
        yield P.SetFlag(ch.pipe_cons, base + done)
        frag += 1
