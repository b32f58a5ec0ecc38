"""World and Communicator: the process/collective substrate.

A :class:`World` instantiates one simulated process context per rank and
pins it to a core. A :class:`Communicator` groups ranks and binds them to a
collectives *component* (XHC or one of the baselines); rank programs drive
collectives with ``yield from comm.bcast(ctx, view, root)``.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterator, Sequence

from ..errors import MPIError
from ..node import Node
from ..shmem.smsc import SmscConfig, SmscEndpoint
from ..sim.engine import SimProcess
from .datatypes import BYTE, Datatype
from .mapping import map_ranks
from .nonblocking import CollRequest, start as _nb_start
from .ops import SUM, ReduceOp
from . import p2p

if True:  # typing-only imports that are also used at runtime
    from ..memory.address_space import AddressSpace, BufView


class RankCtx:
    """Per-rank execution context (address space, SMSC endpoint, core).

    It refers to its node, not to the :class:`World` that owns it, so a
    world and its ranks form no reference cycle.
    """

    def __init__(self, world: "World", rank: int, core: int) -> None:
        self.node = world.node
        self.rank = rank
        self.core = core
        self.space: AddressSpace = world.node.new_address_space(rank, core)
        self.smsc = SmscEndpoint(world.node, rank, world.smsc_config)

    def alloc(self, name: str, size: int, **kw) -> Any:
        return self.space.alloc(name, size, **kw)

    @property
    def now(self) -> float:
        """Current simulated time (valid while this rank is running)."""
        return self.node.engine.now

    def __repr__(self) -> str:
        return f"<rank {self.rank} on core {self.core}>"


class World:
    """One simulated MPI job on one node."""

    def __init__(
        self,
        node: Node,
        nranks: int,
        mapping: str | Sequence[int] = "core",
        smsc: SmscConfig | None = None,
    ) -> None:
        if nranks < 1:
            raise MPIError("need at least one rank")
        self.node = node
        self.smsc_config = smsc or SmscConfig()
        cores = map_ranks(node.topo, nranks, mapping)
        self.ranks = [RankCtx(self, r, cores[r]) for r in range(nranks)]

    @property
    def size(self) -> int:
        return len(self.ranks)

    def communicator(self, component, ranks: Sequence[int] | None = None
                     ) -> "Communicator":
        members = (self.ranks if ranks is None
                   else [self.ranks[r] for r in ranks])
        return Communicator(self, members, component)

    def split(self, component_factory, key: Callable[[RankCtx], Any]
              ) -> dict[Any, "Communicator"]:
        """MPI_Comm_split-style partition of the world by ``key(ctx)``.

        Returns one communicator per distinct key, each with a fresh
        component instance. Example — NUMA-local communicators::

            comms = world.split(Xhc, lambda ctx:
                                world.node.topo.numa_of_core(ctx.core).index)
        """
        groups: dict[Any, list[int]] = {}
        for rank, ctx in enumerate(self.ranks):
            groups.setdefault(key(ctx), []).append(rank)
        return {
            color: self.communicator(component_factory(), ranks)
            for color, ranks in sorted(groups.items(),
                                       key=lambda kv: str(kv[0]))
        }

    def run(self) -> float:
        return self.node.engine.run()


class Communicator:
    """A group of ranks + one collectives component."""

    def __init__(self, world: World, members: list[RankCtx], component) -> None:
        if not members:
            raise MPIError("empty communicator")
        self.world = world
        self.node = world.node
        self.ranks = members
        # ctx -> comm-relative rank; a repeated member keeps its first index.
        self._index: dict[RankCtx, int] = {}
        for i, member in enumerate(members):
            self._index.setdefault(member, i)
        self.component = component
        self._channels: dict[tuple[int, int, int], p2p.Channel] = {}
        # Tail of each rank's non-blocking collective chain (see
        # repro.mpi.nonblocking); blocking calls join the chain once a
        # rank has used the non-blocking forms.
        self._nb_tail: dict[int, CollRequest] = {}
        component.setup(self)

    @property
    def size(self) -> int:
        return len(self.ranks)

    def rank_of(self, ctx: RankCtx) -> int:
        try:
            return self._index[ctx]
        except KeyError:
            raise MPIError(
                f"{ctx!r} is not a member of this communicator") from None

    def core_of(self, rank: int) -> int:
        return self.ranks[rank].core

    # -- p2p ------------------------------------------------------------------

    def channel(self, src: int, dst: int, tag: int) -> p2p.Channel:
        key = (src, dst, tag)
        ch = self._channels.get(key)
        if ch is None:
            ch = p2p.Channel(self, self.ranks[src], self.ranks[dst], tag)
            self._channels[key] = ch
        return ch

    def send(self, ctx: RankCtx, view: "BufView", dst: int,
             tag: int = 0) -> Iterator:
        return p2p.send(ctx, self, view, dst, tag)

    def recv(self, ctx: RankCtx, view: "BufView", src: int,
             tag: int = 0) -> Iterator:
        return p2p.recv(ctx, self, view, src, tag)

    # -- collectives ------------------------------------------------------------

    def _observed(self, ctx: RankCtx, kind: str, gen) -> Iterator:
        """Wrap a component generator in a collective-level span when the
        node is observed; hands the generator back untouched otherwise."""
        obs = self.node.obs
        if not obs.enabled:
            return gen
        comp = getattr(self.component, "name",
                       type(self.component).__name__)
        return obs.wrap(gen, f"coll.{kind}", cat="coll", comp=comp,
                        rank=self.rank_of(ctx))

    def _chained(self, ctx: RankCtx, kind: str, gen) -> Iterator:
        """Run a blocking collective, joining the rank's non-blocking
        chain if one exists (preserves operation order per rank)."""
        gen = self._observed(ctx, kind, gen)
        me = self.rank_of(ctx)
        if me in self._nb_tail:
            req = _nb_start(self, ctx, kind, gen)
            yield from req.wait()
        else:
            yield from gen

    def bcast(self, ctx: RankCtx, view: "BufView", root: int = 0) -> Iterator:
        self._check(ctx, root)
        return self._chained(ctx, "bcast",
                             self.component.bcast(self, ctx, view, root))

    def allreduce(
        self,
        ctx: RankCtx,
        sview: "BufView",
        rview: "BufView",
        op: ReduceOp = SUM,
        dtype: Datatype = BYTE,
    ) -> Iterator:
        if sview.length != rview.length:
            raise MPIError("allreduce send/recv length mismatch")
        return self._chained(
            ctx, "allreduce",
            self.component.allreduce(self, ctx, sview, rview, op, dtype))

    def reduce(
        self,
        ctx: RankCtx,
        sview: "BufView",
        rview: "BufView | None",
        op: ReduceOp = SUM,
        dtype: Datatype = BYTE,
        root: int = 0,
    ) -> Iterator:
        self._check(ctx, root)
        return self._chained(
            ctx, "reduce",
            self.component.reduce(self, ctx, sview, rview, op, dtype, root))

    def barrier(self, ctx: RankCtx) -> Iterator:
        return self._chained(ctx, "barrier",
                             self.component.barrier(self, ctx))

    def gather(self, ctx: RankCtx, sview: "BufView",
               rview: "BufView | None", root: int = 0) -> Iterator:
        """Gather equal blocks to ``root`` (``rview`` is the root's
        size*block receive buffer; None elsewhere)."""
        self._check(ctx, root)
        if rview is not None and rview.length != sview.length * self.size:
            raise MPIError("gather receive buffer must hold size*block")
        return self._chained(
            ctx, "gather",
            self.component.gather(self, ctx, sview, rview, root))

    def scatter(self, ctx: RankCtx, sview: "BufView | None",
                rview: "BufView", root: int = 0) -> Iterator:
        """Scatter equal blocks from ``root`` (``sview`` is the root's
        size*block send buffer; None elsewhere)."""
        self._check(ctx, root)
        if sview is not None and sview.length != rview.length * self.size:
            raise MPIError("scatter send buffer must hold size*block")
        return self._chained(
            ctx, "scatter",
            self.component.scatter(self, ctx, sview, rview, root))

    def allgather(self, ctx: RankCtx, sview: "BufView",
                  rview: "BufView") -> Iterator:
        if rview.length != sview.length * self.size:
            raise MPIError("allgather receive buffer must hold size*block")
        return self._chained(
            ctx, "allgather",
            self.component.allgather(self, ctx, sview, rview))

    def alltoall(self, ctx: RankCtx, sview: "BufView",
                 rview: "BufView") -> Iterator:
        """Personalized exchange of equal blocks (size*block buffers)."""
        if sview.length != rview.length:
            raise MPIError("alltoall buffers must match")
        if sview.length % self.size:
            raise MPIError("alltoall buffer must hold size equal blocks")
        return self._chained(
            ctx, "alltoall",
            self.component.alltoall(self, ctx, sview, rview))

    def reduce_scatter_block(
        self,
        ctx: RankCtx,
        sview: "BufView",
        rview: "BufView",
        op: ReduceOp = SUM,
        dtype: Datatype = BYTE,
    ) -> Iterator:
        """Reduce size*block elements, scatter one block per rank."""
        if sview.length != rview.length * self.size:
            raise MPIError("reduce_scatter send buffer must hold size*block")
        return self._chained(
            ctx, "reduce_scatter",
            self.component.reduce_scatter_block(self, ctx, sview, rview,
                                                op, dtype))

    # -- non-blocking collectives (MPI_I*) ---------------------------------

    def ibcast(self, ctx: RankCtx, view: "BufView",
               root: int = 0) -> CollRequest:
        self._check(ctx, root)
        return _nb_start(self, ctx, "bcast", self._observed(
            ctx, "bcast", self.component.bcast(self, ctx, view, root)))

    def iallreduce(
        self,
        ctx: RankCtx,
        sview: "BufView",
        rview: "BufView",
        op: ReduceOp = SUM,
        dtype: Datatype = BYTE,
    ) -> CollRequest:
        if sview.length != rview.length:
            raise MPIError("allreduce send/recv length mismatch")
        return _nb_start(self, ctx, "allreduce", self._observed(
            ctx, "allreduce",
            self.component.allreduce(self, ctx, sview, rview, op, dtype)))

    def ireduce(
        self,
        ctx: RankCtx,
        sview: "BufView",
        rview: "BufView | None",
        op: ReduceOp = SUM,
        dtype: Datatype = BYTE,
        root: int = 0,
    ) -> CollRequest:
        self._check(ctx, root)
        return _nb_start(self, ctx, "reduce", self._observed(
            ctx, "reduce",
            self.component.reduce(self, ctx, sview, rview, op, dtype, root)))

    def ibarrier(self, ctx: RankCtx) -> CollRequest:
        return _nb_start(self, ctx, "barrier", self._observed(
            ctx, "barrier", self.component.barrier(self, ctx)))

    def _check(self, ctx: RankCtx, root: int) -> None:
        if not 0 <= root < self.size:
            raise MPIError(f"root {root} out of range for size {self.size}")

    # -- running programs ----------------------------------------------------

    def launch(self, program: Callable[["Communicator", RankCtx], Generator]
               ) -> list[SimProcess]:
        """Spawn ``program(comm, ctx)`` for every member rank."""
        procs = []
        for ctx in self.ranks:
            procs.append(
                self.world.node.engine.spawn(
                    program(self, ctx), core=ctx.core,
                    name=f"rank{self.rank_of(ctx)}",
                )
            )
        return procs

    def run(self, program: Callable[["Communicator", RankCtx], Generator]
            ) -> list[SimProcess]:
        """Launch + run to completion; returns the rank processes."""
        procs = self.launch(program)
        self.world.run()
        return procs
