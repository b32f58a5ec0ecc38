"""SMSC — the shared-memory-single-copy component.

Mirrors OpenMPI's smsc framework: a per-process endpoint that performs
single-copy transfers from (or reductions over) peer buffers, using one of
the configured mechanisms:

* ``"xpmem"``  — attach once (cached by the registration cache unless
  disabled), then plain-load copies and direct reductions.
* ``"cma"`` / ``"knem"`` — per-operation kernel copy; no reuse, kernel-lock
  contention, and **no** direct reduction (copy-only semantics, SSII-B).
* ``None`` — SMSC disabled; callers must fall back to copy-in-copy-out.

A component that has no such fallback for an operation calls
:meth:`SmscEndpoint.require` before the operation yields anything, so a
run the mechanism cannot serve is refused instead of failing midway.

A pipelined loop over peer buffers goes down as one
:class:`~repro.sim.primitives.ChunkRun` only when the endpoint
:attr:`~SmscEndpoint.lowers`; the ``*_run_account`` methods then do the
registration-cache and metric accounting its chunks would have done.

The mapping and transfer methods are generators to be driven with
``yield from`` inside a simulated process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from ..errors import ConfigError, ShmemError
from ..sim import primitives as P
from .regcache import RegistrationCache

if TYPE_CHECKING:  # pragma: no cover
    from ..memory.address_space import BufView
    from ..mpi.datatypes import Datatype
    from ..mpi.ops import ReduceOp
    from ..node import Node
    from .xpmem import XpmemService

MECHANISMS = ("xpmem", "cma", "knem", None)


@dataclass(frozen=True)
class SmscConfig:
    mechanism: str | None = "xpmem"
    use_regcache: bool = True
    regcache_capacity: int | None = None

    def __post_init__(self) -> None:
        if self.mechanism not in MECHANISMS:
            raise ShmemError(
                f"unknown smsc mechanism {self.mechanism!r}; "
                f"choose from {MECHANISMS}"
            )


class SmscEndpoint:
    """Per-process single-copy service.

    ``lookup_cost`` is the CPU cost of one registration-cache hit, which
    :meth:`map_peer` charges and a ChunkRun charges per chunk and foreign
    operand.
    """

    def __init__(self, node: "Node", rank: int,
                 config: SmscConfig | None = None) -> None:
        self.node = node
        self.rank = rank
        self.config = config or SmscConfig()
        metrics = node.engine.obs.metrics
        self.regcache = RegistrationCache(self.config.regcache_capacity,
                                          metrics=metrics)
        self._m_copies = metrics.counter(
            "smsc.copies", "single-copy transfers issued")
        self._m_bytes = metrics.counter(
            "smsc.bytes", "bytes moved by single-copy transfers")
        self._m_reduces = metrics.counter(
            "smsc.reduces", "direct reductions over peer buffers")
        self.lookup_cost = node.model.regcache_lookup_cost
        # The step a registration-cache hit yields. Primitives are never
        # mutated once built, so every hit yields this one.
        self._lookup = P.Compute(self.lookup_cost)

    @property
    def xpmem(self) -> "XpmemService":
        return self.node.xpmem

    @property
    def enabled(self) -> bool:
        return self.config.mechanism is not None

    @property
    def can_reduce(self) -> bool:
        """Only XPMEM permits reducing directly from peers' buffers."""
        return self.config.mechanism == "xpmem"

    @property
    def lowers(self) -> bool:
        """Whether a pipelined pull or reduction through this endpoint
        may go down as one ChunkRun: XPMEM with an unbounded registration
        cache, so once :meth:`map_peer` mapped the first chunk's operands
        every later chunk's lookup hits. A bounded cache can evict an
        operand mid-run, and cma/knem enter the kernel per chunk."""
        cfg = self.config
        return (cfg.mechanism == "xpmem" and cfg.use_regcache
                and cfg.regcache_capacity is None)

    def require(self, component: str, collective: str, nbytes: int,
                reduce: bool = False) -> None:
        """Refuse an operation this endpoint's mechanism cannot serve.

        ``reduce=True`` asks for direct reduction from peers' buffers
        (XPMEM only); otherwise any mechanism serves the single copies.
        Raises :class:`~repro.errors.ConfigError` naming the component,
        the collective, the size and the mechanism needed.
        """
        mech = self.config.mechanism
        if mech == "xpmem" or (mech is not None and not reduce):
            return
        need = ("xpmem for direct reduction" if reduce
                else "a single-copy mechanism (xpmem, cma or knem)")
        raise ConfigError(
            f"{component} {collective} of {nbytes} bytes needs {need}; "
            f"the SMSC mechanism is {mech!r}")

    # -- mapping ------------------------------------------------------------

    def map_peer(self, view: "BufView") -> Iterator:
        """Ensure ``view.buf`` is addressable; pays XPMEM attach on miss."""
        mech = self.config.mechanism
        if mech != "xpmem":
            return  # CMA/KNEM need no mapping; CICO segments are pre-mapped.
        buf = view.buf
        if buf.owner_rank == self.rank or buf.shared:
            return
        if self.config.use_regcache and self.regcache.lookup(buf):
            yield self._lookup
        else:
            yield from self._attach(buf)

    def _attach(self, buf) -> Iterator:
        """:meth:`map_peer`'s miss path for a peer's ``buf``: the XPMEM
        attach, kept in the registration cache when there is one. The
        transfers below test for a cache hit themselves and yield its
        lookup ``Compute`` directly, so a hit builds no generator."""
        yield from self.xpmem.attach(buf)
        if self.config.use_regcache:
            self.regcache.insert(buf)

    # -- chunk-run accounting ----------------------------------------------

    def _account_lookups(self, views: Sequence["BufView"],
                         nchunks: int) -> int:
        """Count the registration-cache hits of chunks 1..nchunks-1 on
        every foreign operand of ``views`` (chunk 0's came from
        :meth:`map_peer`); returns the lookups per chunk."""
        rank = self.rank
        lookup = self.regcache.lookup
        lookups = 0
        for view in views:
            buf = view.buf
            if buf.owner_rank != rank and not buf.shared:
                lookups += 1
                for _ in range(1, nchunks):
                    lookup(buf)
        return lookups

    def chunk_run_account(self, src: "BufView", nchunks: int,
                          nbytes: int) -> int:
        """Account an ``nchunks``-chunk ChunkRun pull of ``nbytes`` from
        ``src``, whose first chunk :meth:`map_peer` mapped: the copies,
        bytes and cache hits :meth:`copy_from` would have counted chunk
        by chunk. Returns the run's ``lookups`` per chunk."""
        self._m_copies.inc(nchunks)
        self._m_bytes.inc(nbytes)
        return self._account_lookups((src,), nchunks)

    def reduce_run_account(self, srcs: Sequence["BufView"], dst: "BufView",
                           nchunks: int) -> int:
        """:meth:`chunk_run_account` for a direct-reduction run: one
        lookup per chunk and foreign operand, as :meth:`reduce_from`."""
        self._m_reduces.inc(nchunks)
        return self._account_lookups((*srcs, dst), nchunks)

    # -- transfers -----------------------------------------------------------

    def copy_from(self, src: "BufView", dst: "BufView") -> Iterator:
        """Single-copy ``src`` (a peer's buffer) into local ``dst``."""
        mech = self.config.mechanism
        if mech is None:
            raise ShmemError("SMSC disabled; use a CICO path instead")
        self._m_copies.inc()
        self._m_bytes.inc(src.length)
        if mech == "xpmem":
            buf = src.buf
            if buf.owner_rank == self.rank or buf.shared:
                # Pre-mapped: no attach, no detach — skip the generator
                # delegation entirely (hot on every pipelined pull).
                yield P.Copy(src=src, dst=dst)
                return
            cached = self.config.use_regcache
            if cached and self.regcache.lookup(buf):
                yield self._lookup
            else:
                yield from self._attach(buf)
            yield P.Copy(src=src, dst=dst)
            if not cached:
                yield from self.xpmem.detach(buf)
        elif mech == "cma":
            yield P.Syscall("cma")
            yield P.Copy(src=src, dst=dst,
                         bw_factor=self.node.model.cma_bw_factor,
                         in_kernel=True)
        elif mech == "knem":
            yield P.Syscall("knem")
            yield P.Copy(src=src, dst=dst,
                         bw_factor=self.node.model.knem_bw_factor,
                         in_kernel=True)

    def reduce_from(
        self,
        srcs: Sequence["BufView"],
        dst: "BufView",
        op: "ReduceOp | None" = None,
        dtype: "Datatype | None" = None,
        accumulate: bool = False,
    ) -> Iterator:
        """Reduce peers' buffers directly into ``dst`` (XPMEM only)."""
        if not self.can_reduce:
            raise ShmemError(
                f"direct reduction requires xpmem, not "
                f"{self.config.mechanism!r}; copy-in first"
            )
        self._m_reduces.inc()
        cached = self.config.use_regcache
        for view in (*srcs, dst):  # map_peer's effect, hits inlined
            buf = view.buf
            if buf.owner_rank == self.rank or buf.shared:
                continue
            if cached and self.regcache.lookup(buf):
                yield self._lookup
            else:
                yield from self._attach(buf)
        yield P.Reduce(srcs=tuple(srcs), dst=dst, op=op, dtype=dtype,
                       accumulate=accumulate)
