"""The simulated multicore node.

A :class:`Node` binds a topology, its machine model, the cache system, the
contention resources and one event engine, and implements the pricing
protocol the engine delegates to. It is the root object every simulation
starts from::

    node = Node(get_system("epyc-2p"))
    space = node.new_address_space(rank=0, core=0)
    ...
    node.engine.spawn(rank_program, core=0)
    node.engine.run()

A copy/reduce price has a static part — each read operand's selected cache
source, its route and latency terms — and a dynamic part, the bandwidth
shares, which depend on ``Resource.active`` at call time (see
docs/performance.md). Simulated latencies are pinned bit for bit by
tests/test_golden_latency.py.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Optional

from .errors import ConfigError, SimulationError
from .memory.address_space import AddressSpace, Buffer, BufView
from .memory.cache import CacheLevel, CacheSystem
from .memory.model import MachineModel, PAGE_SIZE, model_for
from .options import UNSET, RunOptions, resolve_options
from .sim import primitives as P
from .sim.engine import Engine
from .sim.resources import Resource, ResourcePool
from .sim.syncobj import Line
from .topology.distance import Distance, distance_row
from .topology.objects import ObjKind, Topology

_NO_RESOURCES: list = []


class Node:
    """Simulated machine + pricing rules.

    Run behavior is configured through one ``options=RunOptions(...)``
    argument; the historical per-concern keywords (``data_movement=``,
    ``record_copies=``, ``observe=``, ``check=``) still work but emit a
    single ``DeprecationWarning`` per call (docs/api.md).
    """

    # Bound on the write-resource memo: a full memo evicts its oldest
    # entry (insertion-order LRU via dict ordering). Eviction only costs
    # recomputation — prices never depend on the memo.
    _MEMO_CAP = 32768

    def __init__(
        self,
        topo: Topology,
        model: MachineModel | None = None,
        options: RunOptions | None = None,
        *,
        data_movement=UNSET,
        record_copies=UNSET,
        observe=UNSET,
        check=UNSET,
    ) -> None:
        options = resolve_options(
            options, caller="Node", data_movement=data_movement,
            record_copies=record_copies, observe=observe, check=check)
        self.topo = topo
        self.model = model if model is not None else model_for(topo)
        self.caches = CacheSystem(topo, self.model)
        self.resources = ResourcePool(topo, self.model)
        self.options = options
        self.data_movement = options.data_movement
        if options.engine == "array":
            if options.instrumented:
                raise ConfigError(
                    'engine="array" is incompatible with observe/check/'
                    'record_copies: instrumentation hooks are per-event, '
                    'which is exactly what array mode elides — run the '
                    'event engine for instrumented runs (docs/performance.md)'
                )
            from .sim.array_engine import ArrayEngine
            self.engine: Engine = ArrayEngine(self)
        else:
            self.engine = Engine(self, record_copies=options.record_copies,
                                 observe=options.observe, check=options.check)
        # Per-core distance rows (``row[b]`` is the Distance to core b),
        # each built on first use. Distance is a pure function of the
        # topology, so the rows live *on the topology object* and are
        # shared by every Node built over it (the exec worker pool keeps
        # one Topology per system alive across requests).
        rows = getattr(topo, "_dist_rows", None)
        if rows is None:
            rows = topo._dist_rows = [None] * topo.n_cores
        self._dist_rows: list[Optional[list[Distance]]] = rows
        # Core index -> NUMA/socket indices, precomputed for pricing.
        self._numa_of = [
            t.index if t is not None else 0
            for t in (topo.numa_of_core(c.index) for c in topo.cores)
        ]
        self._sock_of = [
            t.index if t is not None else 0
            for t in (topo.socket_of_core(c.index) for c in topo.cores)
        ]
        self._numa_sock = {
            numa.index: (numa.ancestor(ObjKind.SOCKET).index
                         if numa.ancestor(ObjKind.SOCKET) else 0)
            for numa in topo.objects(ObjKind.NUMA)
        }
        # Core -> LLC index (None without an LLC level), precomputed so the
        # line-fetch path never walks the topology tree.
        self._llc_index: list[Optional[int]] = [
            (llc.index if llc is not None else None)
            for llc in (topo.llc_of_core(c.index) for c in topo.cores)
        ]
        self._write_res_memo: dict[tuple[int, int], list[Resource]] = {}
        # Node-global XPMEM exposure registry (created lazily to keep the
        # import graph acyclic).
        from .shmem.xpmem import XpmemService
        self.xpmem = XpmemService(self)
        # Line-transaction horizon per home core: every cache-line fetch
        # or atomic that must be served out of one core's caches queues at
        # that core's port, whether or not the requests target the same
        # line. This is what makes wide flag fan-ins serialize (Fig. 10's
        # "separated" layout, the ARM-N1 flat-tree collapse).
        self._line_port: dict[int, float] = {}
        # Array-mode port accounting: processes are priced at skewed
        # virtual times, so the scalar horizon above would make a lagging
        # fetch queue behind bookings an ahead-running process stamped in
        # its future. arr_line_read instead keeps each home core's port
        # bookings as parallel (starts, ends) lists in start order, and a
        # fetch chains only through bookings that actually overlap it
        # (bookings ending at or before the dispatch epoch are dropped).
        self._arr_port: dict[int, tuple[list[float], list[float]]] = {}

    @property
    def obs(self):
        """The engine's observer (:data:`repro.obs.NULL_OBSERVER` unless
        constructed with ``observe=...``)."""
        return self.engine.obs

    @property
    def check_report(self):
        """Sanitizer findings so far (:class:`repro.check.CheckReport`;
        empty unless constructed with ``check='race'`` or ``'full'``)."""
        from .check.report import CheckReport
        checker = self.engine.checker
        return checker.report() if checker is not None else CheckReport()

    # -- setup helpers -----------------------------------------------------

    def new_address_space(self, rank: int, core: int) -> AddressSpace:
        numa = self.topo.numa_of_core(core)
        return AddressSpace(
            rank, core, numa.index if numa else 0,
            data_movement=self.data_movement,
        )

    def distance(self, core_a: int, core_b: int) -> Distance:  # hot-path
        row = self._dist_rows[core_a]
        if row is None:
            row = self._distance_row(core_a)
        return row[core_b]

    def _distance_row(self, core: int) -> list[Distance]:
        row = self._dist_rows[core] = distance_row(self.topo, core)
        return row

    def numa_distance(self, core: int, numa_index: int) -> Distance:
        """Distance of a core to a NUMA node's memory."""
        if self._numa_of[core] == numa_index:
            return Distance.INTRA_NUMA
        if self._sock_of[core] == self._numa_sock[numa_index]:
            return Distance.CROSS_NUMA
        return Distance.CROSS_SOCKET

    # -- source location ---------------------------------------------------

    def _cache_source_span(  # hot-path
        self, core: int, buf: Buffer, off: int, length: int
    ) -> tuple[Optional[CacheLevel], int]:
        """Best cache source for reading ``buf[off:off+length]`` by ``core``.

        Returns (cache_level, hit_bytes); (None, 0) when no cache holds any
        of the range (DRAM at the buffer's home is then the source). The
        nearest cache wins; a farther one only wins by covering strictly
        more of the range. One walk of the holders directory, with
        :meth:`CacheLevel.hit_bytes` inlined (the directory guarantees
        presence, so no ``.get``).
        """
        buf_id = buf.id
        holders = self.caches._holders.get(buf_id)
        if not holders:
            return None, 0
        end = off + length
        # The private level goes first: the full-coverage exit below must
        # not let an equally complete shared level win ahead of it.
        private = self.caches.private[core]
        best: Optional[CacheLevel] = None
        best_dist = Distance.SELF
        best_hit = 0
        if private.id in holders:
            hw = private._hw[buf_id]
            lo = hw - private.capacity
            if lo < off:
                lo = off
            hi = hw if hw < end else end
            if hi > lo:
                best, best_hit = private, hi - lo
                if best_hit >= length:
                    return best, best_hit
        row = self._dist_rows[core]
        if row is None:
            row = self._distance_row(core)
        for level in holders.values():
            if level is private:
                continue
            hw = level._hw[buf_id]
            lo = hw - level.capacity
            if lo < off:
                lo = off
            hi = hw if hw < end else end
            hit = hi - lo
            if hit <= 0 or hit < best_hit:
                continue
            # Another core's private level is never home to ``core``.
            if core in level.home_set:
                dist = Distance.CACHE_LOCAL
            else:
                dist = row[level.home_cores[0]]
            # hit > best_hit also covers best is None (best_hit is 0).
            if hit > best_hit or dist < best_dist:
                best, best_dist, best_hit = level, dist, hit
                if best_hit >= length and dist <= Distance.CACHE_LOCAL:
                    # A full-coverage local source cannot be beaten.
                    break
        return best, best_hit

    def _source_route(
        self, core: int, level: Optional[CacheLevel], buf
    ) -> tuple[Distance, list[Resource]]:
        """Distance class + bottleneck resources for reading from a source."""
        if level is None:
            # DRAM at the buffer's home NUMA node.
            numa = buf.home_numa
            dist = self.numa_distance(core, numa)
            route = [self.resources.dram[numa]]
            src_sock = self._numa_sock[numa]
        else:
            if level is self.caches.private[core]:
                return Distance.SELF, []
            src_core = level.home_cores[0]
            if core in level.home_set:
                dist = Distance.CACHE_LOCAL
            else:
                dist = self.distance(core, src_core)
            route = []
            llc_index = self._llc_index[src_core]
            if llc_index is not None and llc_index in self.resources.llc_port:
                route.append(self.resources.llc_port[llc_index])
            elif self.resources.slc:
                route.append(self.resources.slc[self._sock_of[src_core]])
            else:
                route.append(self.resources.dram[self._numa_of[src_core]])
            if dist >= Distance.INTRA_NUMA:
                # Cache-to-cache transfers that leave the LLC group ride
                # the socket's data fabric (cross-CCX transport on Zen is
                # fabric-limited, but does not consume DRAM channels).
                fab = self.resources.fabric[self._sock_of[src_core]]
                if fab not in route:
                    route.append(fab)
            src_sock = self._sock_of[src_core]
        if dist >= Distance.CROSS_NUMA:
            route.append(self.resources.fabric[src_sock])
        if dist is Distance.CROSS_SOCKET:
            route.append(self.resources.xlink)
        return dist, route

    # A read price decomposes into static terms (fixed by the selected
    # source) and a dynamic bandwidth-share evaluation. Term tuple layout:
    #   (lat_term, hit_bytes, bw_cap, route, miss_bytes,
    #    lat2_term, bw2_cap, route2, resources)
    # route/route2 are tuples of Resources; route2 is None when the miss
    # remainder (if any) is served by the primary route; resources is the
    # deduplicated union in the original append order.

    def _read_terms(self, core: int, buf: Buffer, length: int,
                    level: Optional[CacheLevel], hit_bytes: int,
                    bw_factor: float) -> tuple:
        """Static terms of reading ``length`` bytes of ``buf`` by ``core``
        from the source :meth:`_cache_source_span` selected."""
        model = self.model
        dist, route = self._source_route(core, level, buf)
        lat_term = model.lat[dist] + model.copy_issue_cost
        bw_cap = model.bw[dist] * bw_factor
        miss_bytes = length - hit_bytes
        resources = list(route)
        if miss_bytes > 0 and level is not None:
            # Remainder comes from the buffer's DRAM home.
            d2, route2 = self._source_route(core, None, buf)
            lat2_term = model.lat[d2] * 0.1
            bw2_cap = model.bw[d2] * bw_factor
            resources.extend(r for r in route2 if r not in resources)
            route2 = tuple(route2)
        else:
            lat2_term = 0.0
            bw2_cap = 0.0
            route2 = None
        return (lat_term, hit_bytes, bw_cap, tuple(route), miss_bytes,
                lat2_term, bw2_cap, route2, resources)

    def _eval_read(self, terms: tuple) -> float:  # hot-path
        """Dynamic part of a read price: bandwidth shares at call time.

        Mirrors the historical expression exactly —
        ``(lat + issue) + hit/eff [+ (lat2*0.1 + miss/bw2) | + miss/eff]``
        — including its grouping, which the goldens pin bit for bit (the
        array engine's ``_eval_term_scalar`` copies it).
        """
        (lat_term, hit_bytes, bw_cap, route, miss_bytes,
         lat2_term, bw2_cap, route2, _) = terms
        eff_bw = bw_cap
        for r in route:
            share = r.bw / (r.active + 1)
            if share < eff_bw:
                eff_bw = share
        duration = lat_term + hit_bytes / eff_bw
        if miss_bytes > 0:
            if route2 is not None:
                bw2 = bw2_cap
                for r in route2:
                    share = r.bw / (r.active + 1)
                    if share < bw2:
                        bw2 = share
                duration = duration + (lat2_term + miss_bytes / bw2)
            else:
                duration = duration + miss_bytes / eff_bw
        return duration

    def _write_resources_for(self, core: int, buf: Buffer) -> list[Resource]:
        """Big destinations spill past the caches to their home DRAM."""
        # Depends only on static geometry (buffer size/home, cache
        # capacities), so the memo never needs invalidating.
        key = (core, buf.id)
        cached = self._write_res_memo.get(key)
        if cached is not None:
            return cached
        shared = self.caches.shared_cache_of(core)
        limit = shared.capacity if shared is not None else self.model.l2_size
        if buf.size > limit:
            res = [self.resources.dram[buf.home_numa]]
        else:
            res = _NO_RESOURCES
        if len(self._write_res_memo) >= self._MEMO_CAP:
            del self._write_res_memo[next(iter(self._write_res_memo))]
        self._write_res_memo[key] = res
        return res

    # -- engine pricing protocol ------------------------------------------

    @property
    def store_cost(self) -> float:
        return self.model.store_cost

    def plan_copy(
        self, core: int, prim: P.Copy, now: float
    ) -> tuple[float, list[Resource], Optional[Callable[[], None]]]:
        src, dst = prim.src, prim.dst
        nbytes = src.length if src.length < dst.length else dst.length
        return self.plan_copy_span(core, src.buf, src.offset, src.length,
                                   dst.buf, dst.offset, nbytes,
                                   prim.bw_factor)

    def plan_copy_span(  # hot-path
        self, core: int, src_buf: Buffer, src_off: int, src_len: int,
        dst_buf: Buffer, dst_off: int, nbytes: int, bw_factor: float,
    ) -> tuple[float, list[Resource], Optional[Callable[[], None]]]:
        """Price copying ``nbytes`` from ``src_buf[src_off:...]`` to
        ``dst_buf[dst_off:...]``.

        ``src_len`` is the *priced* source extent and ``nbytes`` the amount
        recorded/moved — kept separate because :class:`~repro.sim.
        primitives.Copy` has always priced the source view's full length
        while recording ``min(src, dst)``.

        The static terms come from :meth:`copy_terms_span`; only the
        bandwidth-share evaluation happens here.
        """
        entry = self.copy_terms_span(core, src_buf, src_off, src_len,
                                     dst_buf, dst_off, nbytes, bw_factor)
        if entry is None:
            return 0.0, _NO_RESOURCES, None
        terms, resources, complete = entry
        return self._eval_read(terms), resources, complete

    def copy_terms_span(  # hot-path
        self, core: int, src_buf: Buffer, src_off: int, src_len: int,
        dst_buf: Buffer, dst_off: int, nbytes: int, bw_factor: float,
    ) -> Optional[tuple[tuple, list[Resource],
                        Optional[Callable[[], None]]]]:
        """Static copy-pricing entry: ``(terms, resources, complete)``
        without the dynamic bandwidth-share evaluation, or ``None`` for a
        zero-byte copy. This is the array engine's accumulation hook —
        it collects term rows here and prices them when it flushes
        (:mod:`repro.sim.array_engine`).
        """
        if nbytes <= 0:
            return None
        level, hit = self._cache_source_span(core, src_buf, src_off, src_len)
        terms = self._read_terms(core, src_buf, src_len, level, hit,
                                 bw_factor)
        resources = terms[8]
        for res in self._write_resources_for(core, dst_buf):
            if res not in resources:
                resources.append(res)

        caches = self.caches
        src_end = src_off + nbytes
        dst_end = dst_off + nbytes
        data_movement = self.data_movement

        def complete() -> None:
            caches.record_read(core, src_buf, src_end)
            caches.record_write(core, dst_buf, dst_end)
            if data_movement and src_buf.data is not None \
                    and dst_buf.data is not None:
                dst_buf.data[dst_off:dst_end] = \
                    src_buf.data[src_off:src_end]

        return terms, resources, complete

    def plan_reduce(  # hot-path
        self, core: int, prim: P.Reduce, now: float
    ) -> tuple[float, list[Resource], Optional[Callable[[], None]]]:
        entry = self.reduce_terms(core, prim)
        if entry is None:
            return 0.0, _NO_RESOURCES, None
        term_list, reduce_term, resources, complete = entry
        duration = 0.0
        for terms in term_list:
            duration += self._eval_read(terms)
        duration += reduce_term
        return duration, resources, complete

    def reduce_terms(  # hot-path
        self, core: int, prim: P.Reduce
    ) -> Optional[tuple[list, float, list[Resource],
                        Optional[Callable[[], None]]]]:
        """Static reduce-pricing entry:
        ``(term_list, reduce_term, resources, complete)`` without the
        dynamic bandwidth-share evaluation (``None`` for an empty
        reduce); the array engine's accumulation hook, like
        :meth:`copy_terms_span`."""
        nbytes = prim.dst.length
        if nbytes <= 0 or not prim.srcs:
            return None
        srcs = prim.srcs
        dst = prim.dst
        # Per-call lists: they are the returned entry.
        term_list = []  # lint: disable=RC106
        resources: list[Resource] = []  # lint: disable=RC106
        for src in srcs:
            level, hit = self._cache_source_span(core, src.buf, src.offset,
                                                 src.length)
            terms = self._read_terms(core, src.buf, src.length, level, hit,
                                     1.0)
            term_list.append(terms)
            for r in terms[8]:
                if r not in resources:
                    resources.append(r)
        # ALU + store cost; the operand loads (priced above) overlap with
        # the arithmetic on real hardware, so this term is charged once,
        # not per source.
        reduce_term = nbytes / self.model.reduce_bw
        for res in self._write_resources_for(core, dst.buf):
            if res not in resources:
                resources.append(res)

        caches = self.caches
        data_movement = self.data_movement

        def complete() -> None:
            for src in srcs:
                caches.record_read(core, src.buf, src.offset + src.length)
            caches.record_write(core, dst.buf, dst.offset + nbytes)
            if data_movement and dst.buf.data is not None:
                Node._apply_reduce(prim)

        return term_list, reduce_term, resources, complete

    def commit_copy_span(self, core: int, src: "BufView", dst: "BufView",
                         off: int, nbytes: int) -> None:
        """The post-pricing effects of copying the ``[off, off+nbytes)``
        slice of full-payload views — exactly what the ``complete``
        closure of :meth:`copy_terms_span` does (cache-ledger records and
        optional data movement), without building pricing terms. The
        array engine's bulk-commit hook: a :class:`~repro.sim.primitives.
        ChunkRun` sweep prices one chunk shape and commits the whole
        licensed span through here."""
        if nbytes <= 0:
            return
        src_buf, dst_buf = src.buf, dst.buf
        src_end = src.offset + off + nbytes
        dst_end = dst.offset + off + nbytes
        self.caches.record_read(core, src_buf, src_end)
        self.caches.record_write(core, dst_buf, dst_end)
        if self.data_movement and src_buf.data is not None \
                and dst_buf.data is not None:
            dst_buf.data[dst_end - nbytes:dst_end] = \
                src_buf.data[src_end - nbytes:src_end]

    def commit_reduce_span(self, core: int, srcs, dst: "BufView",
                           off: int, nbytes: int, op=None,
                           dtype=None) -> None:
        """:meth:`commit_copy_span` for a direct reduction: the
        ``complete`` effects of :meth:`reduce_terms` over the
        ``[off, off+nbytes)`` slice of full-payload operand views."""
        if nbytes <= 0:
            return
        caches = self.caches
        end = off + nbytes
        for s in srcs:
            caches.record_read(core, s.buf, s.offset + end)
        caches.record_write(core, dst.buf, dst.offset + end)
        if self.data_movement and dst.buf.data is not None:
            Node._apply_reduce(P.Reduce(
                srcs=tuple(s.sub(off, nbytes) for s in srcs),
                dst=dst.sub(off, nbytes), op=op, dtype=dtype))

    @staticmethod
    def _apply_reduce(prim: P.Reduce) -> None:
        from .compat import require_numpy
        np = require_numpy("value-accurate reduction (data_movement)")
        dtype = prim.dtype if prim.dtype is not None else np.float32
        op = prim.op if prim.op is not None else np.add
        dst = prim.dst.as_dtype(dtype)
        arrays = [s.as_dtype(dtype) for s in prim.srcs]
        if any(a is None for a in arrays) or dst is None:
            return
        if prim.accumulate:
            acc = dst.copy()
        else:
            acc = arrays[0].copy()
            arrays = arrays[1:]
        for arr in arrays:
            acc = op(acc, arr)
        dst[:] = acc

    def line_read(self, core: int, line: Line, t: float) -> float:  # hot-path
        """Completion time of a cache-line fetch started at ``t``."""
        model = self.model
        if core in line.holders:
            return t + model.poll_delay
        llc_index = self._llc_index[core]
        if llc_index is not None and llc_index in line.shared_holders:
            # A same-LLC peer already pulled the line into the group cache:
            # the implicit hardware assist of SSV-D1.
            line.holders.add(core)
            return t + model.lat[Distance.CACHE_LOCAL]
        owner = line.owner_core
        start = self._line_port.get(owner, 0.0)
        if start < t:
            start = t
        dist = self.distance(core, owner)
        free = start + model.line_occupancy
        self._line_port[owner] = free
        line.next_free = free
        line.holders.add(core)
        if llc_index is not None:
            line.shared_holders.add(llc_index)
        return start + model.lat[dist]

    def arr_line_read(self, core: int, line: Line, t: float,
                      epoch: float) -> float:  # hot-path
        """:meth:`line_read` for the array engine, whose processes fetch
        at skewed virtual times. The hit/shared paths are identical; a
        fetch that must be served by the home core queues only behind
        port bookings that *overlap* it in simulated time — the scalar
        ``_line_port`` horizon would let an ahead-running process's
        future fetches delay a lagging process's past ones.

        Every booking is ``[s, s + line_occupancy)``, so the home core's
        bookings in start order are also in end order: expiry by the
        dispatch ``epoch`` is a prefix deletion, and the chain walk
        starts at the first booking that ends after ``t``."""
        model = self.model
        if core in line.holders:
            return t + model.poll_delay
        llc_index = self._llc_index[core]
        if llc_index is not None and llc_index in line.shared_holders:
            line.holders.add(core)
            return t + model.lat[Distance.CACHE_LOCAL]
        owner = line.owner_core
        port = self._arr_port.get(owner)
        if port is None:
            port = self._arr_port[owner] = ([], [])  # lint: disable=RC106
        starts, ends = port
        k = bisect_right(ends, epoch)
        if k:
            del starts[:k]
            del ends[:k]
        # Chain through the bookings in start order: concurrent fetches
        # homed at one core serialize at line_occupancy spacing, exactly
        # like the event engine's FIFO port. Once a booking starts after
        # the running start no later one can delay the fetch, and that
        # index is where the new booking keeps the start order.
        start = t
        n = len(starts)
        i = bisect_right(ends, t)
        while i < n and starts[i] <= start:
            e = ends[i]
            if start < e:
                start = e
            i += 1
        starts.insert(i, start)
        ends.insert(i, start + model.line_occupancy)
        line.holders.add(core)
        if llc_index is not None:
            line.shared_holders.add(llc_index)
        return start + model.lat[self.distance(core, owner)]

    def atomic_cost(self, core: int, line: Line, now: float) -> tuple[float, float]:
        """(start, duration) of an atomic RMW: queue at the line, then pay
        the ownership ping-pong from the previous owner, inflated by the
        interference of every other in-flight contender (their line
        requests steal ownership-transfer bandwidth; per-op cost grows
        with the contender count, making the total quadratic — the Fig. 4
        collapse)."""
        model = self.model
        owner = line.owner_core
        start = max(now, line.next_free, self._line_port.get(owner, 0.0))
        dist = self.distance(core, owner)
        contenders = max(0, line.pending_rmw - 1)
        duration = (model.atomic_base
                    + model.lat[dist] * (1.0 + model.atomic_contention
                                         * contenders))
        line.next_free = start + duration
        self._line_port[owner] = start + duration
        return start, duration

    def syscall_cost(self, kind: str) -> float:
        model = self.model
        if kind == "cma":
            return model.syscall_cost + model.cma_lock_alpha * self.resources.kernel_ops
        if kind == "knem":
            return model.syscall_cost + model.knem_lock_alpha * self.resources.kernel_ops
        if kind == "xpmem_attach":
            return model.syscall_cost
        if kind == "xpmem_detach":
            return model.xpmem_detach_cost
        if kind == "generic":
            return model.syscall_cost
        raise SimulationError(f"unknown syscall kind {kind!r}")

    def page_fault_cost(self, npages: int) -> float:
        return npages * self.model.page_fault_cost

    # -- misc ---------------------------------------------------------------

    @staticmethod
    def pages_of(nbytes: int) -> int:
        return (nbytes + PAGE_SIZE - 1) // PAGE_SIZE
