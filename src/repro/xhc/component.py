"""The XHC collectives component (SSIV).

Control-flow notes
------------------

* All progress/ack flags carry **monotonic cumulative values** (total bytes
  ever made available, total ops completed), so flag values never reset
  and no reset races exist. This mirrors the sequence tagging of the real
  implementation. Every expected value follows from everyone's counters at
  the start of the op, which one deterministic rule per op advances; the
  component keeps one shared snapshot of them per op in flight
  (:class:`~repro.mpi.colls.base.OpLedger`), not a copy per rank.

* A rank is one simulated process. Roles that the real implementation
  interleaves inside one progress loop (reducing its own index range,
  monitoring members' counters, pulling broadcast data) are expressed as
  concurrent helper tasks pinned to the same core.

* Each pipelined loop (fan-out pull, per-member reduction, reduce
  monitor) takes one of three forms, chosen from the protocol and the
  SMSC config alone, the same way on both engines: the CICO loop at or
  below ``cico_threshold``; above it, one
  :class:`~repro.sim.primitives.ChunkRun` when the SMSC endpoint
  :attr:`~repro.shmem.smsc.SmscEndpoint.lowers` (the monitor reads only
  its own buffers and always does), else a plain per-chunk
  ``copy_from``/``reduce_from`` loop. The array engine prices only the
  ChunkRun form above the threshold and refuses the plain loop.

* Buffers published for single-copy access are re-registered every op.
  On the single-copy path, the hierarchical acknowledgment step (SSIV-A,
  finalization) guarantees a parent's readers finished before it returns
  — acks are posted the moment a rank's own receipt completes (they
  protect the *parent's* buffer only), so successive operations wave-
  pipeline down the tree. On the CICO path the staging slots are
  component-owned, so ack collection defers to the slot ring's reuse
  point instead.
"""

from __future__ import annotations

from typing import Iterator

from ..errors import ConfigError, MPIError
from ..mpi.colls.base import CollComponent, OpLedger, partition
from ..shmem.segment import SharedSegment
from ..sim import primitives as P
from ..sim.syncobj import Flag, Line
from ..topology.objects import ObjKind
from .config import XhcConfig
from .hierarchy import Group, Hierarchy, build_hierarchy


def _set_flags(flags: tuple, value: int):
    """The store of ``value`` to ``flags``: a SetFlag for one flag, a
    SetFlagGroup for several (the rule a ChunkRun's sets follow)."""
    if len(flags) == 1:
        return P.SetFlag(flags[0], value)
    return P.SetFlagGroup(flags, value)


class Xhc(CollComponent):
    """``name`` is the registry name the instance serves under
    (``xhc-tree``, ``xhc-flat``, ``xhc-tuned``); it names the component
    in refusals and in the ``comp`` of collective spans."""

    def __init__(self, config: XhcConfig | None = None, *,
                 name: str = "xhc", **kw) -> None:
        super().__init__()
        self.name = name
        self.cfg = config if config is not None else XhcConfig(**kw)

    # -- setup -----------------------------------------------------------------

    def _setup(self, comm) -> None:
        cfg = self.cfg
        n = comm.size
        self._hier_cache: dict[int, Hierarchy] = {}
        h0 = self._hierarchy(comm, 0)
        self.n_levels = h0.n_levels
        cfg.validate_depth(self.n_levels)
        # Ledgers are per component instance, not per communicator:
        # several Xhc instances may serve one communicator (the TunedXhc
        # dispatcher), and their flag counters must not mix.
        self.ledger = OpLedger(n, {
            "avail": [0] * n, "done": [0] * n, "ack": [0] * n,
            "ready": [[0] * (self.n_levels + 1) for _ in range(n)],
            "cico_ops": 0})
        # Each rank's last observed value of its children's ack flags: a
        # deferred slot-reuse check is skipped entirely when the value
        # seen last time already proves the slot free (_cico_entry).
        self._ack_seen: list[dict[int, int]] = [{} for _ in comm.ranks]
        # CICO segments: contribution + result/staging regions in a
        # K-deep ring (K = cfg.cico_ring) indexed by operation number, so
        # acknowledgment collection defers to a slot's next reuse K-1 ops
        # later (overlapping the ack fan-in with the application instead
        # of serializing every small-message operation on it).
        cico = max(cfg.cico_threshold, 64)
        ring = cfg.cico_ring
        self.cico_ctb = []
        self.cico_res = []
        for ctx in comm.ranks:
            seg = SharedSegment(ctx.space, f"xhc.cico.{ctx.rank}",
                                2 * ring * cico)
            self.cico_ctb.append(tuple(
                seg.reserve(f"ctb{k}", cico) for k in range(ring)))
            self.cico_res.append(tuple(
                seg.reserve(f"res{k}", cico) for k in range(ring)))
        # Flags. `avail` drives fan-out; `ready[level]` drives reduction
        # readiness; `done` tracks reducer progress; `ack` finalization.
        self.avail = [Flag(f"xhc.avail.{c.rank}", c.core) for c in comm.ranks]
        self.done = [Flag(f"xhc.done.{c.rank}", c.core) for c in comm.ranks]
        # Ack flags of LLC-group peers share a cache line: the writers are
        # neighbours (false sharing is cheap within a CCX) and a leader
        # scanning acknowledgments fetches one line per group instead of
        # one per member. Flags are placed on separate lines only "where
        # that is necessary" (SSIII-E) — i.e. on machines without LLC
        # groups, where line sharing would couple distant writers.
        llc_of = comm.node.topo.core_indices(ObjKind.LLC)
        ack_lines: dict[int, Line] = {}
        self.ack = []
        for c in comm.ranks:
            llc = llc_of[c.core]
            line = None
            if llc is not None:
                line = ack_lines.get(llc)
                if line is None:
                    line = Line(c.core)
                    ack_lines[llc] = line
            self.ack.append(Flag(f"xhc.ack.{c.rank}", c.core, line))
        self.ready = [
            [Flag(f"xhc.ready.{c.rank}.l{l}", c.core)
             for l in range(self.n_levels + 1)]
            for c in comm.ranks
        ]
        # Replicated per-member avail flags for the Fig. 10 layouts,
        # created lazily per leader with the configured line placement.
        self._avail_multi: dict[tuple[int, int], Flag] = {}
        self._multi_lines: dict[int, Line] = {}
        # Per-op published buffer views (identity shared through the
        # component object, exactly like address exchange over shm).
        self._pub_fan: dict[int, object] = {}
        self._pub_ctb: dict[int, object] = {}
        self._pub_res: dict[int, object] = {}
        self._scratch: dict[int, object] = {}
        # Per-op-shape memos (all keyed on immutable shape parameters;
        # hierarchies and their groups live as long as the component, so
        # id() keys are stable): reduction partitions, per-rank
        # assignments, and the per-op ledger increment, which is a pure
        # function of (hierarchy, nbytes, dtype, fan_out) but was being
        # rederived — partitions included — on every operation.
        self._part_memo: dict = {}
        self._assign_memo: dict = {}
        self._ledger_delta_memo: dict = {}

    def _hierarchy(self, comm, root: int) -> Hierarchy:
        h = self._hier_cache.get(root)
        if h is None:
            cores = [ctx.core for ctx in comm.ranks]
            h = build_hierarchy(comm.node.topo, cores, self.cfg.tokens(),
                                root, obs=comm.node.obs)
            self._hier_cache[root] = h
        return h

    def _scratch_view(self, ctx, size: int):
        buf = self._scratch.get(ctx.rank)
        if buf is None or buf.size < size:
            buf = ctx.alloc(f"xhc.scratch.{size}", size)
            self._scratch[ctx.rank] = buf
        return buf.view(0, size)

    # -- avail flag layouts (Fig. 10) -------------------------------------

    def _multi_flag(self, comm, leader: int, child: int) -> Flag:
        key = (leader, child)
        flag = self._avail_multi.get(key)
        if flag is None:
            owner_core = comm.core_of(leader)
            line = None
            if self.cfg.flag_layout == "multi-shared":
                line = self._multi_lines.get(leader)
                if line is None:
                    line = Line(owner_core)
                    self._multi_lines[leader] = line
            flag = Flag(f"xhc.availm.{leader}.{child}", owner_core, line)
            self._avail_multi[key] = flag
        return flag

    def _avail_flags(self, comm, hier: Hierarchy, me: int) -> tuple:
        """The flags announcing ``me``'s fan-out progress: its own avail
        flag, or one per child in the multi layouts (none without
        children)."""
        if self.cfg.flag_layout == "single":
            return (self.avail[me],)
        return tuple(self._multi_flag(comm, me, child)
                     for child, _level in hier.children(me))

    def _set_avail(self, comm, hier: Hierarchy, me: int,
                   value: int) -> Iterator:
        flags = self._avail_flags(comm, hier, me)
        if flags:
            yield _set_flags(flags, value)

    def _wait_avail(self, comm, parent: int, me: int, value: int) -> Iterator:
        if self.cfg.flag_layout == "single":
            yield P.WaitFlag(self.avail[parent], value)
        else:
            yield P.WaitFlag(self._multi_flag(comm, parent, me), value)

    # -- broadcast (SSIV-A) -----------------------------------------------

    def bcast(self, comm, ctx, view, root) -> Iterator:
        if comm.size == 1 or view.length == 0:
            return
        yield from comm.node.obs.wrap(
            self._bcast_impl(comm, ctx, view, root), "xhc.bcast",
            cat="coll", nbytes=view.length, root=root)

    def _bcast_impl(self, comm, ctx, view, root) -> Iterator:
        me = comm.rank_of(ctx)
        led = self.ledger.at(me)
        hier = self._hierarchy(comm, root)
        nbytes = view.length
        small = nbytes <= self.cfg.cico_threshold
        if not small:
            ctx.smsc.require(self.name, "bcast", nbytes)
            self._require_lowering(comm, ctx, "bcast", nbytes)
        parent = hier.parent(me)
        if parent is not None:
            yield P.Trace("message", {
                "src": comm.core_of(parent), "dst": ctx.core,
                "src_rank": parent, "dst_rank": me,
                "nbytes": nbytes, "proto": "xhc",
            })
        parity = led["cico_ops"] % self.cfg.cico_ring
        if small:
            yield from self._cico_entry(comm, hier, me, led)
        if me == root:
            if small:
                yield P.Copy(src=view,
                             dst=self.cico_res[me][parity].sub(0, nbytes))
                yield from self._set_avail(comm, hier, me,
                                           led["avail"][me] + nbytes)
            else:
                self._pub_fan[me] = view
                yield from comm.node.xpmem.expose(view.buf)
                yield from self._set_avail(comm, hier, me,
                                           led["avail"][me] + nbytes)
        else:
            if not small and hier.children(me):
                self._pub_fan[me] = view
                yield from comm.node.xpmem.expose(view.buf)
            yield from self._fanout_pull(comm, ctx, me, hier, nbytes, small,
                                         view, led, parity)
        # Single-copy exposes the user buffer, so the op must not return
        # before the subtree acknowledged; the double-buffered CICO path
        # defers that collection to the slot's next use (_cico_entry).
        yield from self._finalize(comm, hier, me, led,
                                  wait_children=not small)
        self.ledger.advance(me, self._update_fan_ledger, hier, nbytes, small)

    def _require_lowering(self, comm, ctx, collective: str,
                          nbytes: int) -> None:
        """Above ``cico_threshold`` the array engine prices XHC's
        pipelined loops only as ChunkRuns; refuse an SMSC config that
        cannot lower them rather than answer from the per-chunk loop,
        which no golden or parity envelope covers there."""
        if comm.node.engine.engine_kind == "array" and not ctx.smsc.lowers:
            raise ConfigError(
                f"{self.name} {collective} of {nbytes} bytes on the array "
                f"engine needs xpmem with an unbounded registration cache; "
                f"the SMSC config is {ctx.smsc.config}; use "
                f"RunOptions(engine='event')")

    def _cico_entry(self, comm, hier: Hierarchy, me: int,
                    led: dict) -> Iterator:
        """Deferred finalization of the CICO path: before overwriting a
        ring slot, make sure its previous users (ring-1 ops ago)
        acknowledged. The last observed value of each child's flag is
        cached, so with a ring of depth K each child's flag is actually
        fetched only ~every K ops — the fan-in amortization that keeps the
        flat tree's small-message latency low."""
        with comm.node.obs.span("xhc.cico_gate", rank=me):
            slack = self.cfg.cico_ring - 1
            seen = self._ack_seen[me]
            for child, _level in hier.children(me):
                target = led["ack"][child] - slack
                if target <= 0 or seen.get(child, 0) >= target:
                    continue
                yield P.WaitFlag(self.ack[child], target)
                # The fetch that satisfied the wait read the line's current
                # value; remember it to skip future checks.
                seen[child] = self.ack[child].value

    def _fanout_pull(self, comm, ctx, me: int, hier: Hierarchy, nbytes: int,
                     small: bool, dst_view, led: dict,
                     parity: int = 0) -> Iterator:
        """Pull-based, pipelined fan-out: chunks stream from the parent's
        buffer into ours, republished level by level (Fig. 5)."""
        parent = hier.parent(me)
        assert parent is not None
        level = hier.pull_level(me)
        chunk = self.cfg.chunk_for_level(level)
        avail_base_p = led["avail"][parent]
        avail_base_me = led["avail"][me]
        if self.cfg.flag_layout == "single":
            wait_flag = self.avail[parent]
        else:
            wait_flag = self._multi_flag(comm, parent, me)
        # Our children read our avail flag(s); a leaf announces nothing.
        my_flags = (self._avail_flags(comm, hier, me)
                    if hier.children(me) else ())
        smsc = ctx.smsc
        got = 0
        with comm.node.obs.span("xhc.fanout", rank=me, parent=parent,
                                level=level, nbytes=nbytes, chunk=chunk):
            if not small and smsc.lowers:
                # The first chunk's wait licenses reading the parent's
                # publication; map it, then stream the rest as one run.
                yield P.WaitFlag(wait_flag, avail_base_p + min(chunk, nbytes))
                pview = self._pub_fan[parent]
                yield from smsc.map_peer(pview)
                nchunks = -(-nbytes // chunk)
                yield P.ChunkRun(
                    start=0, stop=nbytes, chunk=chunk,
                    waits=((wait_flag, avail_base_p, 0, nbytes),),
                    sets=((my_flags, avail_base_me),) if my_flags else (),
                    copy=(pview, dst_view),
                    lookups=smsc.chunk_run_account(pview, nchunks, nbytes),
                    lookup_cost=smsc.lookup_cost, first_ready=True)
                return
            while got < nbytes:
                n = min(chunk, nbytes - got)
                yield P.WaitFlag(wait_flag, avail_base_p + got + n)
                dst = dst_view.sub(got, n)
                if not small:
                    yield from smsc.copy_from(
                        self._pub_fan[parent].sub(got, n), dst)
                elif not my_flags:
                    yield P.Copy(src=self.cico_res[parent][parity].sub(got, n),
                                 dst=dst)
                else:
                    # Stage into our own slot and announce it to our
                    # children before delivering.
                    mine = self.cico_res[me][parity].sub(got, n)
                    yield P.Copy(src=self.cico_res[parent][parity].sub(got, n),
                                 dst=mine)
                    yield _set_flags(my_flags, avail_base_me + got + n)
                    yield P.Copy(src=mine, dst=dst)
                got += n
                if my_flags and not small:
                    yield _set_flags(my_flags, avail_base_me + got)

    def _finalize(self, comm, hier: Hierarchy, me: int, led: dict,
                  wait_children: bool = True) -> Iterator:
        """Hierarchical acknowledgment (SSIV-A).

        A rank's ack tells its *parent* that the parent's buffer is no
        longer being read — it is posted as soon as our own receipt is
        complete, **not** after our children finish (our buffer's readers
        are our direct children, whose acks we gather before returning).
        This keeps the acknowledgment local to each tree edge, so
        successive operations overlap down the hierarchy in a wave. The
        CICO path skips the gather here entirely (it happens lazily in
        :meth:`_cico_entry`)."""
        with comm.node.obs.span("xhc.finalize", rank=me):
            if hier.parent(me) is not None:
                yield P.SetFlag(self.ack[me], led["ack"][me] + 1)
            if wait_children:
                for child, _level in hier.children(me):
                    yield P.WaitFlag(self.ack[child], led["ack"][child] + 1)

    @staticmethod
    def _update_fan_ledger(led: dict, hier: Hierarchy, amount: int,
                           cico: bool = False) -> None:
        """Every fan-out producer published ``amount``; every non-root
        rank acknowledged once; a ``cico`` op used one ring slot."""
        avail = led["avail"]
        for q in hier.fan_producers:
            avail[q] += amount
        ack = led["ack"]
        for q in hier.has_parent:
            ack[q] += 1
        if cico:
            led["cico_ops"] += 1

    # -- allreduce (SSIV-B) -------------------------------------------------

    def allreduce(self, comm, ctx, sview, rview, op, dtype) -> Iterator:
        yield from comm.node.obs.wrap(
            self._reduce_impl(comm, ctx, sview, rview, op, dtype,
                              root=0, fan_out=True),
            "xhc.allreduce", cat="coll", nbytes=sview.length)

    def reduce(self, comm, ctx, sview, rview, op, dtype, root) -> Iterator:
        yield from comm.node.obs.wrap(
            self._reduce_impl(comm, ctx, sview, rview, op, dtype,
                              root=root, fan_out=False),
            "xhc.reduce", cat="coll", nbytes=sview.length, root=root)

    def _reduce_impl(self, comm, ctx, sview, rview, op, dtype, root,
                     fan_out) -> Iterator:
        if comm.size == 1:
            if rview is not None:
                yield P.Copy(src=sview, dst=rview)
            return
        me = comm.rank_of(ctx)
        led = self.ledger.at(me)
        hier = self._hierarchy(comm, root)
        nbytes = sview.length
        if nbytes == 0:
            return
        small = nbytes <= self.cfg.cico_threshold
        if not small:
            collective = "allreduce" if fan_out else "reduce"
            ctx.smsc.require(self.name, collective, nbytes, reduce=True)
            self._require_lowering(comm, ctx, collective, nbytes)
        parity = led["cico_ops"] % self.cfg.cico_ring

        # Step 1 — preparation: publish buffers, announce source readiness.
        result = rview
        if result is None:
            if not fan_out and me != root:
                result = self._scratch_view(ctx, nbytes) \
                    if hier.led_groups[me] else None
            else:
                raise MPIError("root reduce/allreduce needs a receive buffer")
        if small:
            yield from self._cico_entry(comm, hier, me, led)
            yield P.Copy(src=sview,
                         dst=self.cico_ctb[me][parity].sub(0, nbytes))
        else:
            self._pub_ctb[me] = sview
            yield from comm.node.xpmem.expose(sview.buf)
            if result is not None:
                self._pub_res[me] = result
                # The result buffer doubles as the fan-out source when the
                # final broadcast streams it down the hierarchy (step 3).
                self._pub_fan[me] = result
                yield from comm.node.xpmem.expose(result.buf)
        yield P.SetFlag(self.ready[me][0], led["ready"][me][0] + nbytes)

        # Steps 2a/2b — concurrent roles (the real implementation folds
        # these into one progress loop on the same core).
        engine = comm.node.engine
        joins: list[Flag] = []

        def _spawn(gen, tag):
            flag = Flag(f"xhc.join.{me}.{tag}", ctx.core)

            def runner():
                yield from gen
                yield P.SetFlag(flag, 1)

            engine.spawn(runner(), core=ctx.core, name=f"xhc.{tag}.{me}")
            joins.append(flag)

        group = hier.member_group[me]
        if group is not None:
            rng = self._assignment(group, me, nbytes, dtype)
            if rng is not None:
                _spawn(self._reducer(comm, ctx, me, hier, group, rng, nbytes,
                                     small, op, dtype, led, parity), "red")
        for g in hier.led_groups[me]:
            _spawn(self._monitor(comm, ctx, me, hier, g, nbytes, small,
                                 fan_out, dtype, led, parity), "mon")

        # Step 3 — broadcast of the reduced data (allreduce only).
        if fan_out:
            if me != hier.root:
                yield from self._fanout_pull(comm, ctx, me, hier, nbytes,
                                             small, rview, led, parity)
            else:
                yield P.WaitFlag(self.avail[me], led["avail"][me] + nbytes)
            if small:
                # CICO: the final result sits in our staging region.
                if me == hier.root:
                    yield P.Copy(
                        src=self.cico_res[me][parity].sub(0, nbytes),
                        dst=rview.sub(0, nbytes))
        else:
            # Reduce: wait for the root to announce completion.
            yield P.WaitFlag(self.avail[hier.root],
                             led["avail"][hier.root] + nbytes)
            if small and me == root:
                yield P.Copy(src=self.cico_res[me][parity].sub(0, nbytes),
                             dst=rview.sub(0, nbytes))

        for flag in joins:
            yield P.WaitFlag(flag, 1)
        yield from self._finalize(comm, hier, me, led,
                                  wait_children=not small)
        self.ledger.advance(me, self._update_reduce_ledger, hier, comm.size,
                            nbytes, dtype, fan_out, small)

    # -- allreduce helper roles ------------------------------------------

    def _ranges(self, nbytes: int, nworkers: int,
                itemsize: int) -> list[tuple[int, int]]:
        """Memoized reduction partition (hot: once per op per group)."""
        key = (nbytes, nworkers, itemsize)
        ranges = self._part_memo.get(key)
        if ranges is None:
            ranges = partition(nbytes, nworkers,
                               minimum=self.cfg.reduce_min,
                               align=itemsize)
            self._part_memo[key] = ranges
        return ranges

    def _assignment(self, group: Group, rank: int, nbytes: int,
                    dtype) -> tuple[int, int] | None:
        """The (offset, end) byte range ``rank`` reduces within its group."""
        key = (id(group), nbytes, dtype.itemsize)
        table = self._assign_memo.get(key)
        if table is None:
            workers = group.nonleaders
            ranges = self._ranges(nbytes, len(workers), dtype.itemsize)
            table = {}
            for idx, (off, n) in enumerate(ranges):
                table[workers[idx]] = (off, off + n)
            self._assign_memo[key] = table
        return table.get(rank)

    def _contrib(self, comm, rank: int, level: int, nbytes: int, small: bool,
                 parity: int):
        """Rank's contribution buffer at a hierarchy level (SSIV-B):
        its source data at level 0, its aggregation buffer above."""
        if small:
            region = (self.cico_ctb[rank] if level == 0
                      else self.cico_res[rank])[parity]
            return region.sub(0, nbytes)
        return (self._pub_ctb[rank] if level == 0
                else self._pub_res[rank]).sub(0, nbytes)

    def _result(self, comm, rank: int, nbytes: int, small: bool,
                parity: int):
        if small:
            return self.cico_res[rank][parity].sub(0, nbytes)
        return self._pub_res[rank].sub(0, nbytes)

    def _reducer(self, comm, ctx, me: int, hier: Hierarchy, group: Group,
                 rng: tuple[int, int], nbytes: int, small: bool, op, dtype,
                 led: dict, parity: int = 0) -> Iterator:
        """Step 2a: reduce all group members' data on our indices, placing
        the result in the leader's buffer; advance our done counter."""
        lo, hi = rng
        level = group.level
        chunk = self.cfg.chunk_for_level(level)
        peers = group.members
        ready_bases = {p: led["ready"][p][level] for p in peers}
        done_base = led["done"][me]
        done_flag = self.done[me]
        smsc = ctx.smsc
        src_bases = None
        pos = lo
        with comm.node.obs.span("xhc.reduce.work", rank=me, level=level,
                                lo=lo, hi=hi):
            while pos < hi:
                n = min(chunk, hi - pos)
                for p in peers:
                    yield P.WaitFlag(self.ready[p][level],
                                     ready_bases[p] + pos + n)
                if src_bases is None:
                    # Buffer lookups happen only after the first readiness
                    # waits (the leader's publication precedes its first
                    # ready announcement); the published views themselves
                    # are per-op constants, so resolve them once.
                    src_bases = [
                        self._contrib(comm, p, level, nbytes, small, parity)
                        for p in peers
                    ]
                    dst_base = self._result(comm, group.leader, nbytes,
                                            small, parity)
                    if not small and smsc.lowers:
                        # Map the operands, then reduce the whole
                        # assigned range as one run.
                        for v in src_bases:
                            yield from smsc.map_peer(v)
                        yield from smsc.map_peer(dst_base)
                        nchunks = -(-(hi - lo) // chunk)
                        yield P.ChunkRun(
                            start=lo, stop=hi, chunk=chunk,
                            waits=tuple((self.ready[p][level],
                                         ready_bases[p], 0, hi)
                                        for p in peers),
                            sets=(((done_flag,), done_base),),
                            reduce=(tuple(src_bases), dst_base, op, dtype),
                            lookups=smsc.reduce_run_account(
                                src_bases, dst_base, nchunks),
                            lookup_cost=smsc.lookup_cost, first_ready=True)
                        return
                srcs = [base.sub(pos, n) for base in src_bases]
                dst = dst_base.sub(pos, n)
                pos += n
                if small:
                    yield P.Reduce(srcs=tuple(srcs), dst=dst, op=op,
                                   dtype=dtype)
                else:
                    yield from smsc.reduce_from(srcs, dst, op=op,
                                                dtype=dtype)
                yield P.SetFlag(done_flag, done_base + (pos - lo))

    def _monitor(self, comm, ctx, me: int, hier: Hierarchy, group: Group,
                 nbytes: int, small: bool, fan_out: bool, dtype,
                 led: dict, parity: int = 0) -> Iterator:
        """Step 2b: poll members' done counters; as prefixes complete,
        propagate readiness to the next level (or trigger the broadcast at
        the top, SSIV-B step 3)."""
        level = group.level
        next_level = level + 1
        is_top = (me == hier.root and group is hier.levels[-1][0])
        chunk = self.cfg.chunk_for_level(min(next_level, hier.n_levels - 1))
        workers = group.nonleaders
        ranges = self._ranges(nbytes, len(workers) or 1, dtype.itemsize)
        assigned = list(zip(workers, ranges))
        done_bases = {w: led["done"][w] for w in workers}
        ready_base_own = led["ready"][me][level]
        ready_base_next = led["ready"][me][next_level]
        avail_base = led["avail"][me]
        c = 0
        with comm.node.obs.span("xhc.reduce.monitor", rank=me,
                                level=level, top=is_top):
            if not small:
                # The poll-and-propagate loop is pure clamped waits plus
                # per-chunk announcements — exactly the shape ChunkRun's
                # (flag, base, lo, hi) specs encode.
                if workers:
                    waits = tuple((self.done[w], done_bases[w], off,
                                   off + n)
                                  for w, (off, n) in assigned)
                    body = None
                else:
                    waits = ((self.ready[me][level], ready_base_own,
                              0, nbytes),)
                    body = None
                    if level == 0:
                        body = (self._contrib(comm, me, 0, nbytes, small,
                                              parity),
                                self._result(comm, me, nbytes, small,
                                             parity))
                sets = []
                if is_top:
                    if fan_out:
                        avail_flags = self._avail_flags(comm, hier, me)
                        if avail_flags:
                            sets.append((avail_flags, avail_base))
                        if self.cfg.flag_layout != "single":
                            sets.append(((self.avail[me],), avail_base))
                    else:
                        sets.append(((self.avail[me],), avail_base))
                else:
                    sets.append(((self.ready[me][next_level],),
                                 ready_base_next))
                yield P.ChunkRun(start=0, stop=nbytes, chunk=chunk,
                                 waits=waits, sets=tuple(sets), copy=body)
                return
            while c < nbytes:
                c_end = min(c + chunk, nbytes)
                for w, (off, n) in assigned:
                    need = min(off + n, c_end) - off
                    if need > 0:
                        yield P.WaitFlag(self.done[w], done_bases[w] + need)
                if not workers:
                    # Singleton group: forward our own contribution.
                    yield P.WaitFlag(self.ready[me][level],
                                     ready_base_own + c_end)
                    if level == 0:
                        src = self._contrib(comm, me, 0, nbytes, small,
                                            parity)
                        dst = self._result(comm, me, nbytes, small, parity)
                        yield P.Copy(src=src.sub(c, c_end - c),
                                     dst=dst.sub(c, c_end - c))
                if is_top:
                    if fan_out:
                        yield from self._set_avail(comm, hier, me,
                                                   avail_base + c_end)
                        if self.cfg.flag_layout != "single":
                            # The root's own fan-out wait uses the single
                            # flag.
                            yield P.SetFlag(self.avail[me],
                                            avail_base + c_end)
                    else:
                        yield P.SetFlag(self.avail[me], avail_base + c_end)
                else:
                    yield P.SetFlag(self.ready[me][next_level],
                                    ready_base_next + c_end)
                c = c_end

    def _update_reduce_ledger(self, led: dict, hier: Hierarchy, size: int,
                              nbytes: int, dtype, fan_out: bool,
                              cico: bool) -> None:
        # The increment is identical for every op of the same shape;
        # compute it once and replay the sparse delta afterwards.
        key = (id(hier), nbytes, dtype.itemsize, fan_out)
        delta = self._ledger_delta_memo.get(key)
        if delta is None:
            done = [0] * size
            avail = [0] * size
            ack = [0] * size
            ready: list[tuple[int, int, int]] = []
            for q in range(size):
                ready.append((q, 0, nbytes))
                group = hier.member_group[q]
                if group is not None:
                    rng = self._assignment(group, q, nbytes, dtype)
                    if rng is not None:
                        done[q] += rng[1] - rng[0]
                    ack[q] += 1
                for g in hier.led_groups[q]:
                    is_top = (q == hier.root and g is hier.levels[-1][0])
                    if is_top:
                        avail[q] += nbytes
                    else:
                        ready.append((q, g.level + 1, nbytes))
                if fan_out and hier.children(q) and q != hier.root:
                    avail[q] += nbytes
            delta = ([(q, v) for q, v in enumerate(done) if v],
                     [(q, v) for q, v in enumerate(avail) if v],
                     [(q, v) for q, v in enumerate(ack) if v],
                     ready)
            self._ledger_delta_memo[key] = delta
        d_done, d_avail, d_ack, d_ready = delta
        led_done = led["done"]
        for q, v in d_done:
            led_done[q] += v
        led_avail = led["avail"]
        for q, v in d_avail:
            led_avail[q] += v
        led_ack = led["ack"]
        for q, v in d_ack:
            led_ack[q] += v
        led_ready = led["ready"]
        for q, lvl, v in d_ready:
            led_ready[q][lvl] += v
        if cico:
            led["cico_ops"] += 1

    # -- gather / scatter / allgather (shared-address-space extensions) ----
    #
    # The paper's follow-up line of work (Hashmi et al. [47]) extends
    # single-copy designs to more primitives; these implementations follow
    # that recipe: publish the user buffer, let the consumers read exactly
    # the bytes they need directly, and release through the same
    # monotonic-flag machinery the Bcast/Allreduce paths use.

    def gather(self, comm, ctx, sview, rview, root) -> Iterator:
        """Every rank publishes its block; the root copies each straight
        out of the owner's buffer (one copy per block, no staging)."""
        if comm.size == 1:
            if rview is not None:
                yield P.Copy(src=sview, dst=rview)
            return
        me = comm.rank_of(ctx)
        led = self.ledger.at(me)
        hier = self._hierarchy(comm, root)
        block = sview.length
        ctx.smsc.require(self.name, "gather", block)
        self._pub_ctb[me] = sview
        yield from comm.node.xpmem.expose(sview.buf)
        yield P.SetFlag(self.ready[me][0], led["ready"][me][0] + block)
        if me == root:
            for r in range(comm.size):
                if r == me:
                    yield P.Copy(src=sview, dst=rview.sub(r * block, block))
                    continue
                yield P.WaitFlag(self.ready[r][0],
                                 led["ready"][r][0] + block)
                yield from ctx.smsc.copy_from(
                    self._pub_ctb[r].sub(0, block),
                    rview.sub(r * block, block))
            # Release: senders' buffers are free for reuse.
            yield from self._set_avail(comm, hier, me,
                                       led["avail"][me] + block)
        else:
            yield from self._wait_avail(comm, root, me,
                                        led["avail"][root] + block)
        self.ledger.advance(me, self._update_gather_ledger, root, block)

    @classmethod
    def _update_gather_ledger(cls, led: dict, root: int, block: int) -> None:
        """Every rank published ``block``; the root released as much."""
        cls._update_publish_ledger(led, block)
        led["avail"][root] += block

    @staticmethod
    def _update_publish_ledger(led: dict, block: int) -> None:
        """Every rank published ``block`` at level 0."""
        for row in led["ready"]:
            row[0] += block

    def scatter(self, comm, ctx, sview, rview, root) -> Iterator:
        """The root publishes its send buffer; every rank pulls its own
        block directly (disjoint single-copy reads, SSIV-A's pull style)."""
        if comm.size == 1:
            if sview is not None:
                yield P.Copy(src=sview, dst=rview)
            return
        me = comm.rank_of(ctx)
        led = self.ledger.at(me)
        hier = self._hierarchy(comm, root)
        block = rview.length
        ctx.smsc.require(self.name, "scatter", block)
        total = block * comm.size
        if me == root:
            self._pub_fan[me] = sview
            yield from comm.node.xpmem.expose(sview.buf)
            yield from self._set_avail(comm, hier, me,
                                       led["avail"][me] + total)
            yield P.Copy(src=sview.sub(me * block, block), dst=rview)
        else:
            yield from self._wait_avail(comm, root, me,
                                        led["avail"][root] + total)
            src = self._pub_fan[root]
            yield from ctx.smsc.copy_from(src.sub(me * block, block), rview)
        # Release: unlike the pipelined fan-out, *every* rank read the
        # root's buffer directly, so the per-tree-edge acknowledgment of
        # _finalize is not enough — the root would return after its direct
        # children acked while grandchildren were still reading. The root
        # must gather everyone's ack before its send buffer is reusable.
        with comm.node.obs.span("xhc.finalize", rank=me):
            if me == root:
                for q in hier.has_parent:
                    yield P.WaitFlag(self.ack[q], led["ack"][q] + 1)
            else:
                yield P.SetFlag(self.ack[me], led["ack"][me] + 1)
        self.ledger.advance(me, self._update_fan_ledger, hier, total)

    def allgather(self, comm, ctx, sview, rview) -> Iterator:
        """Publish, then pull every peer's block from its owner — reads are
        spread across all sources, so no single point congests."""
        me = comm.rank_of(ctx)
        block = sview.length
        if comm.size > 1:
            ctx.smsc.require(self.name, "allgather", block)
        yield P.Copy(src=sview, dst=rview.sub(me * block, block))
        if comm.size == 1:
            return
        led = self.ledger.at(me)
        self._pub_ctb[me] = sview
        yield from comm.node.xpmem.expose(sview.buf)
        yield P.SetFlag(self.ready[me][0], led["ready"][me][0] + block)
        self.ledger.advance(me, self._update_publish_ledger, block)
        for off in range(1, comm.size):
            r = (me + off) % comm.size   # start from different sources
            yield P.WaitFlag(self.ready[r][0], led["ready"][r][0] + block)
            yield from ctx.smsc.copy_from(
                self._pub_ctb[r].sub(0, block),
                rview.sub(r * block, block))
        # Everyone read everyone: full fence before buffers are reused.
        yield from self.barrier(comm, ctx)

    def alltoall(self, comm, ctx, sview, rview) -> Iterator:
        """Personalized exchange: every rank reads its addressed block
        straight out of each peer's send buffer."""
        size = comm.size
        me = comm.rank_of(ctx)
        block = sview.length // size
        if size > 1:
            ctx.smsc.require(self.name, "alltoall", block)
        yield P.Copy(src=sview.sub(me * block, block),
                     dst=rview.sub(me * block, block))
        if size == 1:
            return
        led = self.ledger.at(me)
        self._pub_ctb[me] = sview
        yield from comm.node.xpmem.expose(sview.buf)
        yield P.SetFlag(self.ready[me][0], led["ready"][me][0] + block)
        self.ledger.advance(me, self._update_publish_ledger, block)
        for off in range(1, size):
            r = (me + off) % size
            yield P.WaitFlag(self.ready[r][0], led["ready"][r][0] + block)
            yield from ctx.smsc.copy_from(
                self._pub_ctb[r].sub(me * block, block),
                rview.sub(r * block, block))
        yield from self.barrier(comm, ctx)

    def reduce_scatter_block(self, comm, ctx, sview, rview, op,
                             dtype) -> Iterator:
        """Shared-address-space reduce-scatter: each rank reduces its own
        output block directly out of every peer's send buffer — the
        embarrassingly parallel core of the XBRC design, kept because each
        output block is independent (hierarchy buys nothing here)."""
        size = comm.size
        me = comm.rank_of(ctx)
        block = rview.length
        if size == 1:
            yield P.Copy(src=sview, dst=rview)
            return
        ctx.smsc.require(self.name, "reduce_scatter", block, reduce=True)
        led = self.ledger.at(me)
        self._pub_ctb[me] = sview
        yield from comm.node.xpmem.expose(sview.buf)
        yield P.SetFlag(self.ready[me][0], led["ready"][me][0] + block)
        self.ledger.advance(me, self._update_publish_ledger, block)
        for q in range(size):
            if q != me:
                yield P.WaitFlag(self.ready[q][0], led["ready"][q][0] + block)
        chunk = self.cfg.chunk_for_level(0)
        pos = 0
        while pos < block:
            n = min(chunk, block - pos)
            srcs = [
                (sview if q == me else self._pub_ctb[q])
                .sub(me * block + pos, n)
                for q in range(size)
            ]
            yield from ctx.smsc.reduce_from(srcs, rview.sub(pos, n),
                                            op=op, dtype=dtype)
            pos += n
        yield from self.barrier(comm, ctx)

    # -- barrier (SSVII extension) ------------------------------------------

    def barrier(self, comm, ctx) -> Iterator:
        if comm.size == 1:
            return
        yield from comm.node.obs.wrap(
            self._barrier_impl(comm, ctx), "xhc.barrier", cat="coll")

    def _barrier_impl(self, comm, ctx) -> Iterator:
        me = comm.rank_of(ctx)
        led = self.ledger.at(me)
        hier = self._hierarchy(comm, 0)
        parent = hier.parent(me)
        # Fan-in: gather children's arrival (the ack flags double as
        # arrival flags; their ledger counts completed participations).
        for child, _level in hier.children(me):
            yield P.WaitFlag(self.ack[child], led["ack"][child] + 1)
        if parent is not None:
            yield P.SetFlag(self.ack[me], led["ack"][me] + 1)
        # Fan-out: release cascades down the hierarchy.
        if me == hier.root:
            yield from self._set_avail(comm, hier, me, led["avail"][me] + 1)
        else:
            yield from self._wait_avail(comm, parent, me,
                                        led["avail"][parent] + 1)
            if hier.children(me):
                yield from self._set_avail(comm, hier, me,
                                           led["avail"][me] + 1)
        self.ledger.advance(me, self._update_fan_ledger, hier, 1)
