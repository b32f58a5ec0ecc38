"""The array-mode engine (``RunOptions(engine="array")``).

The event engine (:class:`repro.sim.engine.Engine`) prices every
primitive at its own heap event: ~8 events per pipelined chunk, plus one
event per 64 KiB quantum of every large copy. PR 5 showed that after
micro-tuning, that per-event Python *is* the simulator's cost floor.
This module replaces the execution model instead of tuning it:

**Synchronous zero-decision execution.** Each process carries a local
virtual time ``proc.vt``. When dispatched, its generator is resumed in a
tight loop and every *zero-decision* primitive — Copy, CopyBatch,
Reduce, Compute, SetFlag(Group), Syscall, PageFaults, satisfied waits,
AtomicRMW — is accumulated as one *row* with no heap event at all. The
run only returns to the dispatcher when the process genuinely blocks
(unsatisfied wait) or finishes.

**Timed set histories.** Flags and atomics record ``(time, value)``
pairs (``syncobj.Flag.hist``). A wait whose threshold is already true
resolves *when* it became true from the history, so a process running
far behind a producer consumes whole chunk streams in one dispatch —
the waits fuse into priced rows instead of blocking.

**Occupancy contention sampling.** Transfers book ``[start, end)``
occupancy windows on their route's
:class:`~repro.sim.resources.Resource`s; bandwidth shares are sampled
per op at the op's virtual time (the event engine's plan time) from
each resource's :class:`~repro.sim.resources.Occupancy` index — two
bisections, with everything before the dispatch epoch folded away —
instead of re-priced per 64 KiB quantum. Large copies are one row
priced once.

**Deferred pricing.** At flush, each op's static terms (from
``Node.copy_terms_span`` / ``Node.reduce_terms`` — the same terms the
event engine prices) are evaluated with bandwidth shares sampled at the
op's virtual time, in ``Node._eval_read``'s floating-point expression
(``_eval_term_scalar``). Lowered chunk runs price their whole timeline
in one closed-form sweep (``_chunkrun_sweep``). Like the event engine,
this one needs no numpy for latency-only runs.

The price of all this is a deliberate numeric model change
(SIM_VERSION 3): no quantum-granularity re-pricing, run-granularity
contention inside lowered chunk runs, dispatch-order atomics, and no
same-core timeslicing of long computes. The deltas against the event engine are pinned per golden
point in tests/golden/ and discussed in docs/performance.md. Array runs
are fully deterministic and the engine name is part of the result-cache
key.

Instrumentation (``observe``/``check``/``record_copies``) is per-event
by nature and refused up front (``Node`` raises ``ConfigError``);
``run(until=...)`` is likewise unsupported.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import Any, Generator, Optional

from ..errors import SimulationError
from . import primitives as P
from .engine import Engine, ProcState, SimProcess

_READY = ProcState.READY
_BLOCKED = ProcState.BLOCKED
_DONE = ProcState.DONE

# Row opcodes for the flush walk.
_XFER = 0      # (op, term_lo, term_hi, const_add, resources, nbytes, in_kernel)
_COMPUTE = 1   # (op, seconds)
_CONST = 2     # (op, cost) — syscall/page-fault style "now + cost" delays
_KSYSCALL = 3  # (op, kind) — CMA/KNEM syscalls, kernel-lock sampled at flush
_SET = 4       # (op, flags, value, cost, wakes)
_WAIT = 5      # (op, obj, t_sat, t_ref)
_ATOMIC = 6    # (op, atom, new_value, prev_owner, wakes)

class ArrayEngine(Engine):
    """Array-mode execution: see the module docstring.

    Public surface matches :class:`Engine` (``spawn``/``run``/``now``/
    ``trace``/``processes``/``alive``); the heap-event internals are
    replaced wholesale.
    """

    engine_kind = "array"
    lower_chunk_runs = True

    def __init__(self, pricer) -> None:
        # `now` is a property on this class; initialize its backing slot
        # and the accumulation marker before Engine.__init__ assigns it.
        self._now = 0.0
        self._acc_proc: Optional[SimProcess] = None
        super().__init__(pricer, record_copies=False, observe=None,
                         check=None)
        # Dispatch heap: (virtual time, seq, process).
        self._ready: list[tuple] = []
        # Dispatch epoch for occupancy sampling: the vt of the most
        # recent dispatch — every future sample happens at or after it.
        self._epoch = 0.0
        # Accumulation buffers (cleared at every flush).
        self._ops: list[tuple] = []
        self._terms: list[tuple] = []
        # Run-local pending sets per sync object: obj -> [(op_idx, value)]
        # for resolving waits that are satisfied by a not-yet-flushed set.
        self._local_sets: dict = {}

    # -- time -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current time: the accumulating process's virtual time (forcing
        a flush so pending rows are priced), or the global horizon."""
        proc = self._acc_proc
        if proc is not None:
            self._flush()
            return proc.vt
        return self._now

    @now.setter
    def now(self, value: float) -> None:
        self._now = value

    # -- public API ------------------------------------------------------

    def spawn(self, gen: Generator, core: int, name: str = "") -> SimProcess:
        proc = SimProcess(name or f"proc{len(self.processes)}", core, gen)
        self.processes.append(proc)
        parent = self._acc_proc
        if parent is not None:
            self._flush()
            proc.vt = parent.vt
        else:
            proc.vt = self._now
        heapq.heappush(self._ready, (proc.vt, next(self._seq), proc))
        return proc

    def run(self, until: float | None = None) -> float:
        if until is not None:
            raise SimulationError(
                "the array engine cannot run to a bounded time "
                "(run(until=...)); use RunOptions(engine='event')"
            )
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        ready = self._ready
        try:
            while ready:
                vt, _, proc = heapq.heappop(ready)
                if proc.state is _DONE:  # pragma: no cover - defensive
                    continue
                self._epoch = vt
                self._dispatch_run(proc)
            self._check_deadlock()
            return self._now
        finally:
            self._running = False

    # -- dispatch --------------------------------------------------------

    def _dispatch_run(self, proc: SimProcess) -> None:
        """Resume ``proc`` and accumulate zero-decision rows until it
        blocks or finishes; flush boundaries price everything pending."""
        if proc.state is _BLOCKED:  # woken by a set resolved at flush
            proc.state = _READY
        self._current_proc = proc
        self._acc_proc = proc
        self._progress += 1
        gen = proc.gen
        acc_step = self._acc_step
        watchdog = self.watchdog_every
        steps = 0
        send_value: Any = None
        try:
            seg = proc.seg
            if seg is not None:
                # Resume a chunk pipeline that parked mid-run.
                proc.seg = None
                if not self._run_chunkrun(proc, seg[0], seg[1]):
                    return
            while True:
                try:
                    prim = gen.send(send_value)
                except StopIteration as stop:
                    self._flush()
                    proc.state = _DONE
                    proc.result = stop.value
                    proc.finish_time = proc.vt
                    if proc.vt > self._now:
                        self._now = proc.vt
                    return
                send_value = None
                steps += 1
                self.events_processed += 1
                cls = prim.__class__
                if cls is P.CopyBatch:
                    for step in prim.steps:
                        acc_step(proc, step)
                elif cls is P.WaitFlag:
                    if not self._acc_wait(proc, prim.flag, prim.value,
                                          prim.cmp):
                        return
                elif cls is P.WaitAtomic:
                    if not self._acc_wait(proc, prim.atom, prim.value,
                                          prim.cmp):
                        return
                elif cls is P.ChunkRun:
                    if not self._run_chunkrun(proc, prim):
                        return
                elif cls is P.AtomicRMW:
                    send_value = self._acc_atomic(proc, prim)
                elif cls is P.Trace:
                    self._flush()
                    self.trace.append((proc.vt, prim.label, prim.meta))
                else:
                    acc_step(proc, prim)
                if steps >= watchdog:
                    self._flush()
                    raise SimulationError(
                        f"watchdog: process {proc.name} accumulated "
                        f"{steps} primitives without blocking at "
                        f"t={proc.vt:.3e} (livelock)"
                    )
        finally:
            self._acc_proc = None
            self._current_proc = None

    # -- accumulation ----------------------------------------------------

    def _acc_step(self, proc: SimProcess, step: Any) -> None:
        """Accumulate one zero-decision primitive as a row. Pricing terms
        and cache/value effects are taken *now* (dispatch order); the
        dynamic bandwidth evaluation waits for the flush."""
        ops = self._ops
        cls = step.__class__
        if cls is P.Copy:
            src = step.src
            dst = step.dst
            nbytes = src.length if src.length < dst.length else dst.length
            entry = self.pricer.copy_terms_span(
                proc.core, src.buf, src.offset, src.length,
                dst.buf, dst.offset, nbytes, step.bw_factor)
            if entry is None:
                return
            terms, resources, complete = entry
            lo = len(self._terms)
            self._terms.append(terms)
            if complete is not None:
                complete()
            ops.append((_XFER, lo, lo + 1, 0.0, resources, nbytes,
                        step.in_kernel))
        elif cls is P.SetFlag:
            self._acc_set(proc, (step.flag,), step.value,
                          self.pricer.store_cost)
        elif cls is P.SetFlagGroup:
            self._acc_set(proc, step.flags, step.value,
                          self.pricer.store_cost * len(step.flags))
        elif cls is P.Compute:
            if step.seconds < 0:
                raise SimulationError("negative compute time")
            ops.append((_COMPUTE, step.seconds))
        elif cls is P.Reduce:
            entry = self.pricer.reduce_terms(proc.core, step)
            if entry is None:
                return
            term_list, reduce_term, resources, complete = entry
            lo = len(self._terms)
            self._terms.extend(term_list)
            if complete is not None:
                complete()
            ops.append((_XFER, lo, lo + len(term_list), reduce_term,
                        resources, step.nbytes, False))
        elif cls is P.Syscall:
            kind = step.kind
            if kind == "cma" or kind == "knem":
                ops.append((_KSYSCALL, kind))
            else:
                ops.append((_CONST, self.pricer.syscall_cost(kind)))
        elif cls is P.PageFaults:
            ops.append((_CONST, self.pricer.page_fault_cost(step.npages)))
        else:
            raise SimulationError(
                f"process {proc.name} yielded non-primitive or unsupported "
                f"step {step!r}"
            )

    def _acc_set(self, proc: SimProcess, flags: tuple, value: int,
                 cost: float) -> None:
        """SetFlag/SetFlagGroup: values and coherence state update now
        (single-writer discipline checked like the event engine); the set
        *time* is assigned at flush, waking any satisfied parked waiter."""
        lines = None
        for flag in flags:
            if proc.core != flag.owner_core:
                raise SimulationError(
                    f"single-writer violation: core {proc.core} wrote flag "
                    f"{flag.name!r} owned by core {flag.owner_core}"
                )
            flag.value = value
            if len(flags) == 1:
                flag.line.on_write(proc.core)
            else:
                if lines is None:
                    lines = []
                if flag.line not in lines:
                    lines.append(flag.line)
        if lines is not None:
            for line in lines:
                line.on_write(proc.core)
        op_idx = len(self._ops)
        wakes = None
        local_sets = self._local_sets
        for flag in flags:
            pend = local_sets.get(flag)
            if pend is None:
                local_sets[flag] = [(op_idx, value)]
            else:
                pend.append((op_idx, value))
            if flag.waiters:
                wakes = self._collect_wakes(flag, wakes)
        self._ops.append((_SET, flags, value, cost, wakes))

    def _collect_wakes(self, obj, wakes):
        """Detach waiters whose threshold the just-written value
        satisfies; they wake at the (flush-resolved) set time."""
        still = None
        val = obj.value
        for entry in obj.waiters:
            wproc, threshold, cmp = entry
            if (val >= threshold) if cmp == ">=" \
                    else obj.satisfied(threshold, cmp):
                if wakes is None:
                    wakes = []
                wakes.append((wproc, obj))
            else:
                if still is None:
                    still = []
                still.append(entry)
        if still is None:
            obj.waiters.clear()
        else:
            obj.waiters[:] = still
        return wakes

    def _acc_atomic(self, proc: SimProcess, prim: P.AtomicRMW) -> int:
        """AtomicRMW: the value updates in dispatch order and the old
        value is returned to the generator immediately; the ownership
        ping-pong (priced from the *previous* owner, with in-flight
        contender interference) is charged at flush."""
        atom = prim.atom
        line = atom.line
        old = atom.value
        atom.value = old + prim.delta
        prev_owner = line.owner_core
        line.on_write(proc.core)
        op_idx = len(self._ops)
        pend = self._local_sets.get(atom)
        if pend is None:
            self._local_sets[atom] = [(op_idx, atom.value)]
        else:
            pend.append((op_idx, atom.value))
        wakes = None
        if atom.waiters:
            wakes = self._collect_wakes(atom, wakes)
        self._ops.append((_ATOMIC, atom, atom.value, prev_owner, wakes))
        return old

    def _acc_wait(self, proc: SimProcess, obj, value: int,
                  cmp: str) -> bool:
        """WaitFlag/WaitAtomic. Satisfied → a row carrying *when* the
        threshold became true (history or run-local set reference);
        returns True to keep accumulating. Unsatisfied → flush, park,
        return False (ends the dispatch)."""
        if (obj.value >= value) if cmp == ">=" else obj.satisfied(value, cmp):
            t_sat = 0.0
            t_ref = -1
            hist = self._pruned_hist(obj)
            found = False
            if hist is not None:
                if cmp == ">=":
                    for t, v in hist:
                        if v >= value:
                            t_sat = t
                            found = True
                            break
                else:
                    for t, v in hist:
                        if v == value:
                            t_sat = t
                            found = True
                            break
            if not found:
                pend = self._local_sets.get(obj)
                if pend is not None:
                    for op_idx, v in pend:
                        if (v >= value) if cmp == ">=" else v == value:
                            t_ref = op_idx
                            found = True
                            break
            # Not found anywhere → satisfied by the initial value: t=0.
            self._ops.append((_WAIT, obj, t_sat, t_ref))
            return True
        self._flush()
        proc.state = _BLOCKED
        proc.blocked_obj = obj
        proc.blocked_value = value
        proc.blocked_since = proc.vt
        obj.waiters.append((proc, value, cmp))
        return False

    def _pruned_hist(self, obj):
        """The object's set history with entries at or before the
        dispatch epoch collapsed into one ``(0.0, max_value)`` sentinel.

        No sample taken by this or any future dispatch can precede the
        epoch, so a threshold reached inside the collapsed prefix
        resolves to "already true when we looked" (t=0, clamped to the
        consumer's own virtual time downstream) — exactly what the full
        history would have yielded — while history scans stay
        O(in-flight sets) instead of O(all sets ever)."""
        hist = obj.hist
        if not hist:
            return hist
        epoch = self._epoch
        if hist[0][0] > epoch:
            return hist
        n = len(hist)
        k = 1
        while k < n and hist[k][0] <= epoch:
            k += 1
        if k > 1:
            vmax = hist[0][1]
            for i in range(1, k):
                v = hist[i][1]
                if v > vmax:
                    vmax = v
            hist[:k] = [(0.0, vmax)]
        return hist

    # -- lowered chunk pipelines (P.ChunkRun) ----------------------------

    def _run_chunkrun(self, proc: SimProcess, prim, done: int = 0) -> bool:
        """Execute a lowered zero-decision chunk pipeline.

        The run's timeline is the classic pipeline recurrence
        ``t_end[i] = max(t_avail[i], t_end[i-1]) + dur[i]`` over the
        producers' publication schedules, which is a prefix-max — so the
        whole admissible prefix prices in one forward sweep: availability
        times come from a cursor over the producers' set histories,
        durations from one chunk-shaped pricing call, and the per-chunk
        flag announcements are stamped back in bulk. When a
        producer has not yet published far enough, the satisfied prefix
        is processed and the process parks on the next threshold with
        its resume state in ``proc.seg``; returns False in that case,
        True when the run completed."""
        self._flush()
        start = prim.start
        stop = prim.stop
        chunk = prim.chunk
        if stop - start <= 0 or chunk <= 0:
            return True
        nchunks = -(-(stop - start) // chunk)
        waits = prim.waits
        park_target = 0
        while done < nchunks:
            # Admissible prefix, from current flag values alone: the
            # chunk ending at e is licensed by spec (flag, base, lo, hi)
            # when min(e, hi) - lo <= flag.value - base.
            n_ok = nchunks - done
            park_flag = None
            for flag, base, lo, hi in waits:
                if hi <= lo:
                    continue
                room = flag.value - base
                span_hi = hi if hi < stop else stop
                if room >= span_hi - lo:
                    continue
                limit = lo + room
                if limit < lo:
                    limit = lo
                cnt = (limit - start) // chunk - done
                if cnt < 0:
                    cnt = 0
                if cnt < n_ok:
                    n_ok = cnt
                    e_next = start + (done + cnt + 1) * chunk
                    if e_next > stop:
                        e_next = stop
                    eff = e_next if e_next < hi else hi
                    park_flag = flag
                    park_target = base + eff - lo
            if n_ok == 0:
                proc.state = _BLOCKED
                proc.blocked_obj = park_flag
                proc.blocked_value = park_target
                proc.blocked_since = proc.vt
                park_flag.waiters.append((proc, park_target, ">="))
                proc.seg = (prim, done)
                return False
            self._chunkrun_sweep(proc, prim, done, n_ok)
            done += n_ok
        return True

    def _chunkrun_sweep(self, proc: SimProcess, prim, done: int,
                        n_ok: int) -> None:
        """Price and commit ``n_ok`` licensed chunks of a ChunkRun."""
        pricer = self.pricer
        core = proc.core
        start = prim.start
        stop = prim.stop
        chunk = prim.chunk
        t_begin = proc.vt
        epoch = self._epoch
        o0 = start + done * chunk
        e_last = start + (done + n_ok) * chunk
        if e_last > stop:
            e_last = stop
        n0 = chunk if o0 + chunk <= stop else stop - o0
        o_last = start + (done + n_ok - 1) * chunk
        n_last = e_last - o_last
        span = e_last - o0
        # Chunk body, priced at the pre-run cache state: one chunk-shaped
        # pricing call covers every full chunk (pipelined streaming
        # through one path is homogeneous — the SIM_VERSION 3 model),
        # plus the odd-sized tail; the cache-ledger effect of the whole
        # span is recorded once in bulk.
        shares: dict = {}
        d_body = 0.0
        d_body_last = None
        resources = ()
        if prim.copy is not None:
            src, dst = prim.copy
            entry = pricer.copy_terms_span(
                core, src.buf, src.offset + o0, n0,
                dst.buf, dst.offset + o0, n0, 1.0)
            if entry is not None:
                terms, resources, _c = entry
                self._fill_shares(terms, shares, t_begin, epoch)
                d_body = self._eval_term_scalar(terms, shares)
            if n_last != n0:
                entry2 = pricer.copy_terms_span(
                    core, src.buf, src.offset + o_last, n_last,
                    dst.buf, dst.offset + o_last, n_last, 1.0)
                if entry2 is not None:
                    terms2, _r2, _c2 = entry2
                    self._fill_shares(terms2, shares, t_begin, epoch)
                    d_body_last = self._eval_term_scalar(terms2, shares)
            pricer.commit_copy_span(core, src, dst, o0, span)
        elif prim.reduce is not None:
            srcs, dstv, rop, rdtype = prim.reduce
            entry = pricer.reduce_terms(core, P.Reduce(
                srcs=tuple(s.sub(o0, n0) for s in srcs),
                dst=dstv.sub(o0, n0), op=rop, dtype=rdtype))
            if entry is not None:
                term_list, reduce_term, resources, _c = entry
                for terms in term_list:
                    self._fill_shares(terms, shares, t_begin, epoch)
                    d_body += self._eval_term_scalar(terms, shares)
                d_body += reduce_term
            if n_last != n0:
                entry2 = pricer.reduce_terms(core, P.Reduce(
                    srcs=tuple(s.sub(o_last, n_last) for s in srcs),
                    dst=dstv.sub(o_last, n_last), op=rop, dtype=rdtype))
                if entry2 is not None:
                    tl2, rt2, _r2, _c2 = entry2
                    d_body_last = 0.0
                    for terms in tl2:
                        self._fill_shares(terms, shares, t_begin, epoch)
                        d_body_last += self._eval_term_scalar(terms,
                                                              shares)
                    d_body_last += rt2
            pricer.commit_reduce_span(core, srcs, dstv, o0, span,
                                      rop, rdtype)
        # Per-chunk fixed costs: producer-flag fetches (one cold fetch up
        # front, then a full-distance re-read every chunk — the
        # producer's set invalidates the line each time; the home-port
        # queueing term is a one-off, charged only in the chunk-0
        # fetch), registration-cache lookups, and announcement stores.
        sync0 = 0.0
        syncw = 0.0
        line_read = pricer.arr_line_read
        model = pricer.model
        epoch0 = self._epoch
        for flag, _b, _lo, _hi in prim.waits:
            line = flag.line
            a1 = line_read(core, line, t_begin, epoch0)
            sync0 += a1 - t_begin
            syncw += model.lat[pricer.distance(core, line.owner_core)]
        set_cost = 0.0
        store = pricer.store_cost
        for flags_t, _b in prim.sets:
            set_cost += store * len(flags_t)
        d_one = d_body + prim.const_cost + set_cost + syncw
        d_last = d_one if d_body_last is None \
            else d_body_last + prim.const_cost + set_cost + syncw
        d0_extra = sync0 - syncw
        has_body = resources != () or prim.copy is not None \
            or prim.reduce is not None
        busy = self._core_busy
        base_floor = t_begin
        if has_body:
            b = busy.get(core, 0.0)
            if b > base_floor:
                base_floor = b
        # Wait specs that can still stall this sweep; per spec the
        # availability time of the chunk ending at ``e`` is the earliest
        # entry of the (pruned, running-max) history reaching
        # ``base + min(e, hi) - lo``.
        last_e = e_last
        specs = []
        for flag, base, lo, hi in prim.waits:
            if hi <= lo:
                continue
            hist = self._pruned_hist(flag)
            if not hist:
                continue
            last_eff = last_e if last_e < hi else hi
            if last_eff <= lo:
                continue
            if hist[0][1] >= base + last_eff - lo \
                    and hist[0][0] <= t_begin:
                # The final threshold was already reached in this
                # process's past: no stalls possible. (The time check
                # matters — producers dispatched earlier may stamp
                # *future* publication times.)
                continue
            specs.append((hist, base, lo, hi, flag.wait_key))
        tl, ends_l, busy_spans = self._sweep_scalar(
            proc, prim, done, n_ok, specs, base_floor,
            d_one, d_last, d0_extra)
        vt_new = tl[-1]
        if resources:
            for r in resources:
                for b0, b1 in busy_spans:
                    r.arr_book(b0, b1)
                r.bytes_served += span
        if has_body and vt_new > busy.get(core, 0.0):
            busy[core] = vt_new
        # Publish the per-chunk announcements in bulk and wake whoever
        # they satisfy.
        if prim.sets:
            for flags_t, base in prim.sets:
                vals = [base + (e - start) for e in ends_l]
                final_v = vals[-1]
                for flag in flags_t:
                    if core != flag.owner_core:
                        raise SimulationError(
                            f"single-writer violation: core {core} wrote "
                            f"flag {flag.name!r} owned by core "
                            f"{flag.owner_core}")
                    flag.value = final_v
                    h = flag.hist
                    if h is None:
                        flag.hist = list(zip(tl, vals))
                    else:
                        h.extend(zip(tl, vals))
                    flag.line.on_write(core)
                    if flag.waiters:
                        self._wake_from_schedule(flag, tl, vals)
        proc.vt = vt_new
        if vt_new > self._now:
            self._now = vt_new

    def _sweep_scalar(self, proc: SimProcess, prim, done: int, n_ok: int,
                      specs: list, base_floor: float, d_one: float,
                      d_last: float, d0_extra: float):
        """The sweep timeline of ``n_ok`` chunks; returns ``(t_end list,
        chunk-end list, coalesced busy spans)``.

        The recurrence is evaluated as a prefix-max,
        ``t_end[i] = c[i] + max_{j<=i}(a[j] - c[j-1])`` with ``c`` the
        running sum of the chunk durations, in left-to-right order; the
        array goldens pin that floating-point order. A stall splits the
        run into groups of back-to-back chunks, and resources are busy
        only inside the groups (the event engine holds a transfer's
        resources only while it runs, not across stalls)."""
        start = prim.start
        stop = prim.stop
        chunk = prim.chunk
        nspec = len(specs)
        # Per-spec running-max envelope + a forward cursor (thresholds
        # are non-decreasing in the chunk index, so each history is
        # walked at most once across the sweep).
        env = []
        for hist, base, lo, hi, key in specs:
            nh = len(hist)
            if nh > 1:
                mono = True
                prev_t = hist[0][0]
                for p in hist:
                    if p[0] < prev_t:
                        mono = False
                        break
                    prev_t = p[0]
                if not mono:
                    hist = sorted(hist, key=lambda p: p[0])
                ht = [0.0] * nh
                hv = [0] * nh
                vmax = hist[0][1]
                for i, p in enumerate(hist):
                    if p[1] > vmax:
                        vmax = p[1]
                    ht[i] = p[0]
                    hv[i] = vmax
            else:
                ht = [hist[0][0]]
                hv = [hist[0][1]]
            env.append([ht, hv, nh, 0])
        tl = [0.0] * n_ok
        ends_l = [0] * n_ok
        c = 0.0
        m = None  # running max of (a_i - c_{i-1})
        t_prev = base_floor
        stall_total = 0.0
        stall_by = {} if nspec > 1 else None
        first_key = specs[0][4] if nspec == 1 else None
        spans: list[tuple[float, float]] = []
        span_start = base_floor
        for i in range(n_ok):
            e = start + (done + i + 1) * chunk
            if e > stop:
                e = stop
            ends_l[i] = e
            di = d_last if i == n_ok - 1 else d_one
            if i == 0:
                di = di + d0_extra
            if nspec:
                a_i = 0.0
                key_i = None
                for j in range(nspec):
                    _h, base, lo, hi, key = specs[j]
                    eff = e if e < hi else hi
                    if eff <= lo:
                        ta = 0.0
                    else:
                        target = base + eff - lo
                        ht, hv, nh, ptr = env[j]
                        while ptr < nh and hv[ptr] < target:
                            ptr += 1
                        env[j][3] = ptr
                        ta = 0.0 if ptr >= nh else ht[ptr]
                    if key_i is None or ta > a_i:
                        a_i = ta
                        key_i = key
                if a_i < base_floor:
                    a_i = base_floor
                cand = a_i - c
                if m is None or cand > m:
                    m = cand
                c = c + di
                t_end = m + c
                s = a_i - t_prev
                if s > 0.0:
                    stall_total += s
                    if stall_by is not None:
                        stall_by[key_i] = stall_by.get(key_i, 0.0) + s
                    if i:
                        spans.append((span_start, t_prev))
                        span_start = t_end - di
                if i == 0:
                    span_start = t_end - di
                t_prev = t_end
            else:
                c = c + di
                t_end = c + base_floor
            tl[i] = t_end
        if stall_total > 0.0:
            proc.wait_time += stall_total
            breakdown = proc.wait_breakdown
            if stall_by is None:
                breakdown[first_key] = \
                    breakdown.get(first_key, 0.0) + stall_total
            else:
                for key, s in stall_by.items():
                    breakdown[key] = breakdown.get(key, 0.0) + s
        spans.append((span_start, tl[-1]))
        return tl, ends_l, spans

    def _wake_from_schedule(self, flag, times: list, values: list) -> None:
        """Wake parked waiters a just-published schedule satisfies; each
        wakes at its earliest satisfying publication time."""
        still = None
        for entry in flag.waiters:
            wproc, threshold, cmp = entry
            idx = -1
            if cmp == ">=":
                if values[-1] >= threshold:
                    idx = bisect_left(values, threshold)
            else:
                for j, v in enumerate(values):
                    if v == threshold:
                        idx = j
                        break
            if idx >= 0:
                self._wake(wproc, flag, times[idx])
            else:
                if still is None:
                    still = []
                still.append(entry)
        if still is None:
            flag.waiters.clear()
        else:
            flag.waiters[:] = still

    @staticmethod
    def _fill_shares(terms: tuple, shares: dict, t0: float,
                     epoch: float) -> None:
        """Sample bandwidth shares for one term row's routes into
        ``shares`` (same expression as the flush-time bulk sample)."""
        for r in terms[3]:
            if r not in shares:
                shares[r] = r.bw / (r.arr_sample(t0, epoch) + 1)
        route2 = terms[7]
        if route2 is not None:
            for r in route2:
                if r not in shares:
                    shares[r] = r.bw / (r.arr_sample(t0, epoch) + 1)

    # -- flush: price everything pending --------------------------------

    def _flush(self) -> None:
        """Evaluate the accumulated rows: a sequential walk advancing the
        process's virtual time — pricing each op's terms at that time,
        booking core/resource occupancy, stamping set histories and
        waking parked processes."""
        ops = self._ops
        if not ops:
            return
        proc = self._acc_proc
        pricer = self.pricer
        pool = pricer.resources
        terms_list = self._terms
        vt = proc.vt
        core = proc.core
        busy = self._core_busy
        eps = self.CPU_EPSILON
        op_times: list[float] = [0.0] * len(ops)
        for i, op in enumerate(ops):
            code = op[0]
            if code == _XFER:
                _, lo, hi, const_add, resources, nbytes, in_kernel = op
                # Shares sampled at this op's virtual time — the event
                # engine plans primitive k at now == end of primitive
                # k-1, which is exactly the walking vt.
                d = self._eval_rows(terms_list, lo, hi, vt) + const_add
                if d < eps:
                    start = vt
                else:
                    start = busy.get(core, 0.0)
                    if start < vt:
                        start = vt
                    busy[core] = start + d
                end = start + d
                for r in resources:
                    r.arr_book(start, end)
                    r.bytes_served += nbytes
                if in_kernel:
                    pool.kernel_occupancy.arr_book(start, end)
                vt = end
            elif code == _COMPUTE:
                d = op[1]
                if d < eps:
                    start = vt
                else:
                    start = busy.get(core, 0.0)
                    if start < vt:
                        start = vt
                    busy[core] = start + d
                vt = start + d
            elif code == _CONST:
                vt = vt + op[1]
            elif code == _KSYSCALL:
                k = pool.kernel_occupancy.arr_sample(vt, self._epoch)
                saved = pool.kernel_ops
                pool.kernel_ops = k
                cost = pricer.syscall_cost(op[1])
                pool.kernel_ops = saved
                vt = vt + cost
            elif code == _SET:
                _, flags, value, cost, wakes = op
                op_times[i] = vt
                for flag in flags:
                    hist = flag.hist
                    if hist is None:
                        flag.hist = [(vt, value)]
                    else:
                        hist.append((vt, value))
                if wakes is not None:
                    for wproc, wobj in wakes:
                        self._wake(wproc, wobj, vt)
                vt = vt + cost
            elif code == _WAIT:
                _, obj, t_sat, t_ref = op
                if t_ref >= 0:
                    t_sat = op_times[t_ref]
                if t_sat > vt:
                    new_vt = pricer.arr_line_read(core, obj.line, t_sat,
                                                  self._epoch)
                    waited = new_vt - vt
                    proc.wait_time += waited
                    key = obj.wait_key
                    breakdown = proc.wait_breakdown
                    breakdown[key] = breakdown.get(key, 0.0) + waited
                else:
                    new_vt = pricer.arr_line_read(core, obj.line, vt,
                                                  self._epoch)
                vt = new_vt
            else:  # _ATOMIC
                _, atom, new_value, prev_owner, wakes = op
                line = atom.line
                t_issue = vt
                op_times[i] = t_issue
                hist = atom.hist
                if hist is None:
                    atom.hist = [(t_issue, new_value)]
                else:
                    hist.append((t_issue, new_value))
                ends = line.rmw_ends
                if ends is None:
                    ends = line.rmw_ends = []
                while ends and ends[0] <= t_issue:
                    heapq.heappop(ends)
                saved_owner = line.owner_core
                saved_pending = line.pending_rmw
                line.owner_core = prev_owner
                line.pending_rmw = len(ends) + 1
                start, duration = pricer.atomic_cost(core, line, t_issue)
                line.owner_core = saved_owner
                line.pending_rmw = saved_pending
                end = start + duration
                heapq.heappush(ends, end)
                if wakes is not None:
                    for wproc, wobj in wakes:
                        self._wake(wproc, wobj, t_issue)
                vt = end
        proc.vt = vt
        if vt > self._now:
            self._now = vt
        ops.clear()
        self._terms.clear()
        self._local_sets.clear()

    def _wake(self, proc: SimProcess, obj, t_set: float) -> None:
        """Release a parked process: it pays the line fetch from the set
        time and re-enters the dispatch heap at the arrival time."""
        # A set that happened before the waiter managed to block
        # (dispatch-order skew) cannot wake it into its own past: the
        # fetch starts no earlier than the block time.
        t_from = t_set if t_set > proc.blocked_since else proc.blocked_since
        wake_t = self.pricer.arr_line_read(proc.core, obj.line, t_from,
                                           self._epoch)
        waited = wake_t - proc.blocked_since
        proc.wait_time += waited
        key = obj.wait_key
        breakdown = proc.wait_breakdown
        breakdown[key] = breakdown.get(key, 0.0) + waited
        proc.state = _READY
        proc.blocked_obj = None
        proc.waking = False
        proc.vt = wake_t
        if wake_t > self._now:
            self._now = wake_t
        heapq.heappush(self._ready, (wake_t, next(self._seq), proc))

    # -- pricing ---------------------------------------------------------

    def _eval_rows(self, terms_list: list, lo: int, hi: int,
                   t0: float) -> float:
        """Summed duration of one op's term rows ``[lo, hi)``, with
        bandwidth shares sampled at ``t0`` — the op's virtual time, which
        is the event engine's plan time for the same primitive."""
        epoch = self._epoch
        shares: dict = {}
        d = 0.0
        for terms in terms_list[lo:hi]:
            self._fill_shares(terms, shares, t0, epoch)
            d += self._eval_term_scalar(terms, shares)
        return d

    @staticmethod
    def _eval_term_scalar(terms: tuple, shares: dict) -> float:
        """``Node._eval_read`` with shares read from the bulk sample."""
        (lat_term, hit_bytes, bw_cap, route, miss_bytes,
         lat2_term, bw2_cap, route2, _) = terms
        eff_bw = bw_cap
        for r in route:
            share = shares[r]
            if share < eff_bw:
                eff_bw = share
        duration = lat_term + hit_bytes / eff_bw
        if miss_bytes > 0:
            if route2 is not None:
                bw2 = bw2_cap
                for r in route2:
                    share = shares[r]
                    if share < bw2:
                        bw2 = share
                duration = duration + (lat2_term + miss_bytes / bw2)
            else:
                duration = duration + miss_bytes / eff_bw
        return duration
