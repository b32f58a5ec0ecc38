"""The discrete-event engine.

The engine owns the event queue and the simulated processes; pricing of
memory traffic is delegated to a *pricer* (the :class:`repro.node.Node`),
which implements:

``plan_copy_span(core, src_buf, src_off, src_len, dst_buf, dst_off,
nbytes, bw_factor)``
    -> ``(duration, [resources], complete_cb)``; takes buffer offsets
    rather than a ``Copy``, so an oversized copy is priced one
    ``COPY_QUANTUM`` at a time without allocating sub-views
``plan_reduce(core, prim, now)``
    -> same shape
``line_read(core, line, t)``
    -> absolute completion time of a line fetch started at ``t``
``syscall_cost(kind)``, ``page_fault_cost(npages)``, ``store_cost``,
``atomic_cost(core, line, now)`` -> ``(start, duration)``

Event-loop layout (see docs/performance.md): heap entries are
``(time, seq, payload)`` where the payload is either a callback or a
:class:`SimProcess` — a process payload means "resume with ``None``",
which covers the overwhelming majority of events without allocating a
closure per event. Handler dispatch goes through one table,
``_HANDLERS``; the observe, race, deadlock-probe and record_copies hooks
inside the handlers each sit behind a boolean cached at construction.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from typing import Any, Callable, Generator, Optional

from ..errors import DeadlockError, SimulationError
from ..obs.spans import NULL_OBSERVER, NullObserver, Observer
from . import primitives as P
from .syncobj import Atomic, Flag


class ProcState(enum.Enum):
    READY = "ready"
    BLOCKED = "blocked"
    DONE = "done"


_READY = ProcState.READY
_BLOCKED = ProcState.BLOCKED
_DONE = ProcState.DONE


class SimProcess:
    """One simulated flow of control, pinned to a core."""

    _ids = itertools.count()

    __slots__ = ("pid", "name", "core", "gen", "state", "result",
                 "finish_time", "blocked_obj", "blocked_value", "waking",
                 "blocked_since", "wait_time", "wait_breakdown", "vt",
                 "seg")

    def __init__(self, name: str, core: int,
                 gen: Generator[Any, Any, Any]) -> None:
        self.pid = next(SimProcess._ids)
        self.name = name
        self.core = core
        self.gen = gen
        self.state = ProcState.READY
        # Local virtual time, used only by the array engine (the event
        # engine keeps one global clock; see repro.sim.array_engine).
        self.vt = 0.0
        # In-progress lowered chunk pipeline (array engine only): the
        # ``(ChunkRun, chunks_done)`` pair to resume after a mid-run park.
        self.seg: Any = None
        self.result: Any = None
        self.finish_time: float | None = None
        # The Flag/Atomic this process is blocked on (deadlock analysis
        # needs the object, not just a display string) plus the threshold
        # it waits for, and whether a satisfying write already scheduled
        # its resume — a proc with ``waking`` set is still BLOCKED but no
        # longer waiting on anyone.
        self.blocked_obj: Any = None
        self.blocked_value: int = 0
        self.waking: bool = False
        self.blocked_since: float = 0.0
        # Total time spent blocked on flags/atomics, and a breakdown by
        # the waited object's interned name family (``Flag.wait_key``,
        # e.g. "flag xhc.avail") — the first place to look when asking
        # *why* a rank was slow.
        self.wait_time: float = 0.0
        self.wait_breakdown: dict[str, float] = {}

    @property
    def blocked_on(self) -> str | None:
        """Display string of the blocked target (None when not blocked)."""
        obj = self.blocked_obj
        if obj is None:
            return None
        return f"{obj.kind} {obj.name}>={self.blocked_value}"

    def __repr__(self) -> str:
        return f"<proc {self.name} core={self.core} {self.state.value}>"


class Engine:
    """Deterministic event loop.

    Observability is opt-in through the single ``observe`` knob:

    * ``None``/``False`` (default) — no recording beyond zero-cost
      ``Trace`` annotations; each hook in the handlers costs one test of
      a cached boolean.
    * ``True`` / ``"full"`` — attach an :class:`~repro.obs.spans.Observer`
      recording spans, waits (with wakers), copy spans and metrics; also
      enables the legacy per-copy trace records.
    * ``"spans"`` — spans/waits/metrics without per-copy spans (lower
      volume for long runs).
    * an :class:`Observer` instance — bring your own (rebound to this
      engine).

    ``record_copies`` is the legacy subset (completion records in
    ``engine.trace`` for :class:`repro.sim.trace.Timeline`); it grows the
    trace list by one tuple per transfer, so leave it (and ``observe``)
    off for large sweeps — overhead numbers are in docs/observability.md.

    Correctness checking is opt-in through the ``check`` knob, mirroring
    ``observe``:

    * ``None``/``False`` (default) — no happens-before tracking; the hot
      paths pay nothing. The drain-time deadlock report and the run-loop
      watchdog stay on — a hung simulation is a bug regardless.
    * ``'race'`` — vector-clock race detection plus the XPMEM attachment
      protocol (:mod:`repro.check.race`); findings in ``checker.report()``.
    * ``'deadlock'`` — proactive wait-for-graph analysis at every block,
      raising :class:`~repro.errors.DeadlockError` the moment a cycle
      closes instead of at queue drain.
    * ``'full'``/``True`` — both.
    """

    #: Which execution model this class implements; the array-mode
    #: subclass (:class:`repro.sim.array_engine.ArrayEngine`) overrides
    #: this to ``"array"``. Matches ``RunOptions.engine``.
    engine_kind = "event"

    #: Whether components may lower zero-decision pipelined loops to
    #: :class:`~repro.sim.primitives.ChunkRun`. The event engine prices
    #: per chunk by design, so it refuses the lowered form (an unknown
    #: primitive raises in the handler table) and components must keep
    #: yielding the per-chunk stream when this is False.
    lower_chunk_runs = False

    def __init__(self, pricer, record_copies: bool = False,
                 observe: "bool | str | Observer | None" = None,
                 check: "bool | str | None" = None) -> None:
        self.pricer = pricer
        self.now = 0.0
        self._seq = itertools.count()
        self._heap: list[tuple] = []
        self.processes: list[SimProcess] = []
        self.trace: list[tuple[float, str, dict]] = []
        self.record_copies = record_copies
        self.events_processed = 0
        self._running = False
        self._current_proc: SimProcess | None = None
        self._plan_span = pricer.plan_copy_span
        if observe is None or observe is False:
            self.obs: "Observer | NullObserver" = NULL_OBSERVER
        elif observe is True or observe == "full":
            self.obs = Observer(self, record_copies=True)
        elif observe == "spans":
            self.obs = Observer(self, record_copies=False)
        elif isinstance(observe, Observer):
            self.obs = observe
            self.obs.engine = self
        else:
            raise SimulationError(
                f"unknown observe mode {observe!r}; expected True, False, "
                f"'full', 'spans' or an Observer"
            )
        self._observe = self.obs.enabled
        if self._observe and self.obs.record_copies:
            self.record_copies = True
        if check is True:
            check = "full"
        if check is None or check is False:
            self.checker = None
            self._dl_proactive = False
        elif check in ("race", "deadlock", "full"):
            from ..check.race import RaceChecker
            self.checker = (RaceChecker(self) if check in ("race", "full")
                            else None)
            self._dl_proactive = check in ("deadlock", "full")
        else:
            raise SimulationError(
                f"unknown check mode {check!r}; expected None, 'race', "
                f"'deadlock' or 'full'"
            )
        self._race = self.checker is not None
        # Progress counter for the watchdog: bumped every time a process
        # generator actually advances. A window of watchdog_every events
        # with no progress means the run is spinning (livelock) or every
        # process is unwakeably blocked (deadlock) — raise instead of
        # hanging the caller.
        self._progress = 0
        self.watchdog_every = 1_000_000
        metrics = self.obs.metrics
        self._m_flag_sets = metrics.counter(
            "flags.sets", "single-writer flag stores")
        self._m_wakeups = metrics.counter(
            "flags.wakeups", "blocked waiters released by a write")
        self._m_atomics = metrics.counter(
            "atomics.rmw", "atomic read-modify-write operations")
        # CPU occupancy horizon per core: several logical tasks may be
        # pinned to one core (nonblocking sends, XHC's reducer/monitor
        # roles), but their compute/copy work serializes on the core just
        # as it does inside a real single-threaded progress loop.
        self._core_busy: dict[int, float] = {}

    # CPU work shorter than this slips between booked work for free: a
    # few hundred nanoseconds of cache lookup or flag handling interleaves
    # with a compute phase without waiting for a scheduling slot.
    CPU_EPSILON = 2e-6

    def _cpu_start(self, core: int, duration: float) -> float:  # hot-path
        if duration < self.CPU_EPSILON:
            return self.now
        busy = self._core_busy
        start = busy.get(core, 0.0)
        if start < self.now:
            start = self.now
        busy[core] = start + duration
        return start

    # -- public API -----------------------------------------------------------

    def spawn(self, gen: Generator, core: int, name: str = "") -> SimProcess:
        proc = SimProcess(name or f"proc{len(self.processes)}", core, gen)
        self.processes.append(proc)
        if self._race:
            self.checker.on_spawn(
                self._current_proc if self._running else None, proc)
        heapq.heappush(self._heap, (self.now, next(self._seq), proc))
        return proc

    def run(self, until: float | None = None) -> float:
        """Run to quiescence (or ``until``); returns the final time."""
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        progress_mark = self._progress
        next_watch = self.events_processed + self.watchdog_every
        heap = self._heap
        pop = heapq.heappop
        resume = self._resume
        try:
            if until is None:
                # The common drain-to-quiescence loop, with the bounded
                # variant's per-event `until` comparison compiled out.
                while heap:
                    t, _, fn = pop(heap)
                    if t < self.now - 1e-18:
                        raise SimulationError("time went backwards")  # pragma: no cover
                    self.now = t
                    self.events_processed += 1
                    if fn.__class__ is SimProcess:
                        resume(fn, None)
                    else:
                        fn()
                    if self.events_processed >= next_watch:
                        if self._progress == progress_mark:
                            self._watchdog_fire()
                        progress_mark = self._progress
                        next_watch = (self.events_processed
                                      + self.watchdog_every)
            else:
                while heap:
                    t, _, fn = pop(heap)
                    if t > until:
                        heapq.heappush(heap, (t, next(self._seq), fn))
                        self.now = until
                        return self.now
                    if t < self.now - 1e-18:
                        raise SimulationError("time went backwards")  # pragma: no cover
                    self.now = t
                    self.events_processed += 1
                    if fn.__class__ is SimProcess:
                        resume(fn, None)
                    else:
                        fn()
                    if self.events_processed >= next_watch:
                        if self._progress == progress_mark:
                            self._watchdog_fire()
                        progress_mark = self._progress
                        next_watch = (self.events_processed
                                      + self.watchdog_every)
            self._check_deadlock()
            return self.now
        finally:
            self._running = False

    def alive(self) -> list[SimProcess]:
        return [p for p in self.processes if p.state is not ProcState.DONE]

    # -- internals -------------------------------------------------------------

    def _schedule(self, t: float, fn) -> None:  # hot-path
        """Queue ``fn`` at ``t``: a callback, or a SimProcess to resume."""
        heapq.heappush(self._heap, (t, next(self._seq), fn))

    def _check_deadlock(self) -> None:
        stuck = self.alive()
        if stuck:
            from ..check.deadlock import find_deadlock
            info = find_deadlock(self)
            detail = ", ".join(
                f"{p.name}(on {p.blocked_on})" for p in stuck[:8]
            )
            msg = (
                f"{len(stuck)} process(es) still blocked at t={self.now:.3e}: "
                f"{detail}"
            )
            cycle: list[str] = []
            if info is not None:
                msg += f"; {info.describe()}"
                cycle = info.cycle_names
            raise DeadlockError(msg, cycle=cycle)

    def _watchdog_fire(self) -> None:
        """No generator progressed for a whole watchdog window: decide
        between an unwakeable-blocked deadlock and a pure event spin."""
        from ..check.deadlock import find_deadlock
        info = find_deadlock(self)
        if info is not None:
            raise DeadlockError(
                f"watchdog: no process progressed in {self.watchdog_every} "
                f"events at t={self.now:.3e}; {info.describe()}",
                cycle=info.cycle_names,
            )
        raise SimulationError(
            f"watchdog: livelock — {self.watchdog_every} events at "
            f"t={self.now:.3e} without any process advancing (an unbounded "
            f"compute or a self-rescheduling event chain)"
        )

    def _deadlock_probe(self) -> None:
        """Proactive analysis at a block (check='deadlock'/'full'): raise
        the moment a wait-for cycle closes, while the rest still runs."""
        from ..check.deadlock import find_deadlock
        info = find_deadlock(self)
        if info is not None:
            raise DeadlockError(
                f"deadlock at t={self.now:.3e}: {info.describe()}",
                cycle=info.cycle_names,
            )

    def _resume(self, proc: SimProcess, send_value: Any) -> None:  # hot-path
        if proc.state is _BLOCKED:
            waited = self.now - proc.blocked_since
            proc.wait_time += waited
            obj = proc.blocked_obj
            key = obj.wait_key if obj is not None else "?"
            breakdown = proc.wait_breakdown
            breakdown[key] = breakdown.get(key, 0.0) + waited
            if self._observe:
                self.obs.end_wait(proc)
        proc.state = _READY
        proc.blocked_obj = None
        proc.waking = False
        self._progress += 1
        self._current_proc = proc
        try:
            prim = proc.gen.send(send_value)
        except StopIteration as stop:
            proc.state = _DONE
            proc.result = stop.value
            proc.finish_time = self.now
            return
        handler = _HANDLERS.get(prim.__class__)
        if handler is None:
            self._unknown_primitive(proc, prim)
            return
        handler(self, proc, prim)

    # -- primitive dispatch ------------------------------------------------

    def _unknown_primitive(self, proc: SimProcess, prim: Any) -> None:
        raise SimulationError(
            f"process {proc.name} yielded non-primitive {prim!r}"
        )

    # Long compute phases are booked in slices so that concurrent tasks on
    # the same core (nonblocking-collective progress, XHC's helper roles)
    # interleave with them — the effect of an application driving MPI
    # progress periodically, or of OS timeslicing a progress thread.
    COMPUTE_QUANTUM = 50e-6

    def _h_compute(self, proc: SimProcess, prim: P.Compute) -> None:  # hot-path
        seconds = prim.seconds
        if seconds < 0:
            raise SimulationError("negative compute time")
        if seconds <= self.COMPUTE_QUANTUM:
            start = self._cpu_start(proc.core, seconds)
            self._schedule(start + seconds, proc)
            return
        self._compute_slice(proc, seconds)

    def _compute_slice(self, proc: SimProcess, remaining: float,
                       then: Optional[Callable[[], None]] = None) -> None:
        slice_ = min(self.COMPUTE_QUANTUM, remaining)
        start = self._cpu_start(proc.core, slice_)

        def finish() -> None:
            left = remaining - slice_
            if left > 1e-15:
                self._compute_slice(proc, left, then)
            elif then is None:
                self._resume(proc, None)
            else:
                then()

        self._schedule(start + slice_, finish)

    # Long copies are re-priced in quanta so bandwidth shares track the
    # changing set of concurrent users (approximate fluid fair sharing).
    COPY_QUANTUM = 64 * 1024

    # -- copies and reduces ------------------------------------------------
    #
    # The race, observe and record_copies hooks each sit behind a boolean
    # cached at construction, so an uninstrumented run pays one test per
    # hook and allocates nothing beyond the completion closures.

    def _h_copy(self, proc: SimProcess, prim: P.Copy,
                then: Optional[Callable[[], None]] = None) -> None:  # hot-path
        if self._race:
            self.checker.on_copy(proc, prim)
        src = prim.src
        dst = prim.dst
        nbytes = src.length
        if dst.length < nbytes:
            nbytes = dst.length
        if nbytes > self.COPY_QUANTUM:
            self._copy_slice(proc, prim, nbytes, 0, then)
            return
        duration, resources, complete = self._plan_span(
            proc.core, src.buf, src.offset, src.length,
            dst.buf, dst.offset, nbytes, prim.bw_factor)
        self._transfer(proc, "copy", prim.in_kernel, nbytes, duration,
                       resources, complete, then)

    def _copy_slice(self, proc: SimProcess, prim: P.Copy, total: int,
                    done: int, then) -> None:  # hot-path
        """Price and run the next ``COPY_QUANTUM`` of an oversized copy;
        the last slice records the whole copy and resumes the process
        (or runs ``then``)."""
        n = total - done
        if n > self.COPY_QUANTUM:
            n = self.COPY_QUANTUM
        src = prim.src
        dst = prim.dst
        duration, resources, complete = self._plan_span(
            proc.core, src.buf, src.offset + done, n,
            dst.buf, dst.offset + done, n, prim.bw_factor)
        in_kernel = prim.in_kernel
        pool = self.pricer.resources
        start = self._cpu_start(proc.core, duration)

        def finish() -> None:
            for res in resources:
                res.release()
                res.bytes_served += n
            if in_kernel:
                pool.kernel_ops -= 1
            if complete is not None:
                complete()
            if done + n < total:
                self._copy_slice(proc, prim, total, done + n, then)
                return
            if self.record_copies:
                self.trace.append(
                    (self.now, "copy",
                     {"core": proc.core, "nbytes": total})  # lint: disable=RC106
                )
            if then is None:
                self._resume(proc, None)
            else:
                then()

        if self._observe and self.obs.record_copies:
            self.obs.record(proc, "copy", "copy", start, start + duration,
                            nbytes=n)
        self._hold(start, duration, resources, in_kernel, finish)

    def _h_reduce(self, proc: SimProcess, prim: P.Reduce,
                  then: Optional[Callable[[], None]] = None) -> None:  # hot-path
        if self._race:
            self.checker.on_reduce(proc, prim)
        duration, resources, complete = self.pricer.plan_reduce(
            proc.core, prim, self.now
        )
        self._transfer(proc, "reduce", False, prim.nbytes, duration,
                       resources, complete, then)

    def _transfer(self, proc: SimProcess, kind: str, in_kernel: bool,
                  nbytes: int, duration: float, resources, complete,
                  then) -> None:  # hot-path
        """Run one priced copy or reduce of ``nbytes`` on ``proc``'s core,
        then resume the process (or run ``then``)."""
        pool = self.pricer.resources
        start = self._cpu_start(proc.core, duration)

        def finish() -> None:
            for res in resources:
                res.release()
                res.bytes_served += nbytes
            if in_kernel:
                pool.kernel_ops -= 1
            if complete is not None:
                complete()
            if self.record_copies:
                self.trace.append(
                    (self.now, "copy",
                     {"core": proc.core, "nbytes": nbytes})  # lint: disable=RC106
                )
            if then is None:
                self._resume(proc, None)
            else:
                then()

        if self._observe and self.obs.record_copies:
            self.obs.record(proc, kind, "copy", start, start + duration,
                            nbytes=nbytes)
        self._hold(start, duration, resources, in_kernel, finish)

    def _hold(self, start: float, duration: float, resources,
              in_kernel: bool, finish: Callable[[], None]) -> None:  # hot-path
        """Hold the path resources only while the transfer actually runs,
        from ``start`` (the core's booked slot) until ``finish`` releases
        them at ``start + duration`` — a transfer queued behind other
        work on its core must not inflate everyone else's contention
        meanwhile."""
        pool = self.pricer.resources
        heap = self._heap
        seq = self._seq
        if start > self.now:
            def begin() -> None:
                for res in resources:
                    res.acquire()
                if in_kernel:
                    pool.kernel_ops += 1
            heapq.heappush(heap, (start, next(seq), begin))
        else:
            for res in resources:
                res.acquire()
            if in_kernel:
                pool.kernel_ops += 1
        heapq.heappush(heap, (start + duration, next(seq), finish))

    # -- copy batches --------------------------------------------------------

    def _h_copy_batch(self, proc: SimProcess, prim: P.CopyBatch) -> None:
        if not prim.steps:
            self._resume(proc, None)
            return
        self._batch_step(proc, prim.steps, 0)

    def _batch_step(self, proc: SimProcess, steps: tuple, i: int) -> None:  # hot-path
        """Run step ``i``, continuing into ``i+1`` the instant it
        completes — exactly the schedule a generator yielding the steps
        one by one would produce, minus the generator round-trips. The
        final step runs with ``then=None``, so its completion resumes the
        process directly instead of bouncing through a closing
        continuation."""
        step = steps[i]
        self._current_proc = proc
        if i + 1 == len(steps):
            then = None
        else:
            # One continuation per non-final step; a batch replaces the
            # same number of generator resumes, so this is
            # allocation-neutral at worst.
            then = lambda: self._batch_step(proc, steps, i + 1)  # noqa: E731
        cls = step.__class__
        if cls is P.Copy:
            self._h_copy(proc, step, then)
        elif cls is P.SetFlag:
            self._set_flag_exec(proc, step, then)
        elif cls is P.SetFlagGroup:
            self._set_flag_group_exec(proc, step, then)
        elif cls is P.Compute:
            seconds = step.seconds
            if seconds < 0:
                raise SimulationError("negative compute time")
            if seconds <= self.COMPUTE_QUANTUM:
                start = self._cpu_start(proc.core, seconds)
                self._schedule(start + seconds,
                               proc if then is None else then)
            else:
                self._compute_slice(proc, seconds, then)
        elif cls is P.Reduce:
            self._h_reduce(proc, step, then)
        else:
            raise SimulationError(
                f"CopyBatch steps must be Copy/Compute/Reduce/SetFlag/"  # lint: disable=RC106
                f"SetFlagGroup, got {step!r}"
            )

    # -- flags ---------------------------------------------------------------

    def _h_set_flag(self, proc: SimProcess, prim: P.SetFlag) -> None:  # hot-path
        self._set_flag_exec(proc, prim, None)

    def _set_flag_exec(self, proc: SimProcess, prim: P.SetFlag,
                       then) -> None:  # hot-path
        flag = prim.flag
        if proc.core != flag.owner_core:
            raise SimulationError(
                f"single-writer violation: core {proc.core} wrote flag "  # lint: disable=RC106
                f"{flag.name!r} owned by core {flag.owner_core}"
            )
        flag.value = prim.value
        flag.line.on_write(proc.core)
        if self._observe:
            self._m_flag_sets.inc()
        if self._race:
            self.checker.on_release(proc, flag)
        if flag.waiters:
            self._wake_waiters(flag)
        heapq.heappush(self._heap,
                       (self.now + self.pricer.store_cost, next(self._seq),
                        proc if then is None else then))

    def _h_set_flag_group(self, proc: SimProcess,
                          prim: P.SetFlagGroup) -> None:
        self._set_flag_group_exec(proc, prim, None)

    def _set_flag_group_exec(self, proc: SimProcess, prim: P.SetFlagGroup,
                             then) -> None:
        lines = []
        for flag in prim.flags:
            if proc.core != flag.owner_core:
                raise SimulationError(
                    f"single-writer violation: core {proc.core} wrote flag "
                    f"{flag.name!r} owned by core {flag.owner_core}"
                )
            flag.value = prim.value
            if flag.line not in lines:
                lines.append(flag.line)
        for line in lines:
            line.on_write(proc.core)
        if self._observe:
            self._m_flag_sets.inc(len(prim.flags))
        for flag in prim.flags:
            if self._race:
                self.checker.on_release(proc, flag)
            if flag.waiters:
                self._wake_waiters(flag)
        cost = self.pricer.store_cost * len(prim.flags)
        self._schedule(self.now + cost, proc if then is None else then)

    def _h_wait_flag(self, proc: SimProcess, prim: P.WaitFlag) -> None:  # hot-path
        flag = prim.flag
        value = prim.value
        cmp = prim.cmp
        # Inlined Flag.satisfied for the ubiquitous ">=" compare.
        if (flag.value >= value) if cmp == ">=" else flag.satisfied(value, cmp):
            if self._race:
                self.checker.on_acquire(proc, flag)
            t = self.pricer.line_read(proc.core, flag.line, self.now)
            heapq.heappush(self._heap, (t, next(self._seq), proc))
        else:
            self._block(proc, flag, value, cmp, "flag")

    def _h_atomic_rmw(self, proc: SimProcess, prim: P.AtomicRMW) -> None:
        atom = prim.atom
        line = atom.line
        line.pending_rmw += 1
        if self._observe:
            self._m_atomics.inc()
        if self._race:
            self.checker.on_rmw(proc, atom)
        start, duration = self.pricer.atomic_cost(proc.core, line, self.now)
        old = atom.value
        atom.value = old + prim.delta
        line.on_write(proc.core)
        if atom.waiters:
            self._wake_waiters(atom)

        def finish() -> None:
            line.pending_rmw -= 1
            self._resume(proc, old)

        self._schedule(start + duration, finish)

    def _h_wait_atomic(self, proc: SimProcess, prim: P.WaitAtomic) -> None:  # hot-path
        atom = prim.atom
        value = prim.value
        cmp = prim.cmp
        if (atom.value >= value) if cmp == ">=" else atom.satisfied(value, cmp):
            if self._race:
                self.checker.on_acquire(proc, atom)
            t = self.pricer.line_read(proc.core, atom.line, self.now)
            heapq.heappush(self._heap, (t, next(self._seq), proc))
        else:
            self._block(proc, atom, value, cmp, "atomic")

    def _block(self, proc: SimProcess, obj: Flag | Atomic, value: int,
               cmp: str, kind: str) -> None:  # hot-path
        proc.state = _BLOCKED
        proc.blocked_obj = obj
        proc.blocked_value = value
        proc.blocked_since = self.now
        if self._observe:
            self.obs.begin_wait(proc, obj.name, kind)
        obj.waiters.append((proc, value, cmp))
        if self._dl_proactive:
            self._deadlock_probe()

    def _wake_waiters(self, obj: Flag | Atomic) -> None:  # hot-path
        still_blocked = None
        val = obj.value
        line = obj.line
        now = self.now
        heap = self._heap
        seq = self._seq
        line_read = self.pricer.line_read
        observe = self._observe
        race = self._race
        for entry in obj.waiters:
            proc, threshold, cmp = entry
            if (val >= threshold) if cmp == ">=" \
                    else obj.satisfied(threshold, cmp):
                if observe:
                    self.obs.note_waker(proc, self._current_proc)
                    self._m_wakeups.inc()
                if race:
                    self.checker.on_acquire(proc, obj)
                proc.waking = True
                heapq.heappush(
                    heap, (line_read(proc.core, line, now), next(seq), proc))
            else:
                if still_blocked is None:
                    still_blocked = []  # lint: disable=RC106
                still_blocked.append(entry)
        if still_blocked is None:
            obj.waiters.clear()
        else:
            obj.waiters[:] = still_blocked

    def _h_syscall(self, proc: SimProcess, prim: P.Syscall) -> None:  # hot-path
        cost = self.pricer.syscall_cost(prim.kind)
        heapq.heappush(self._heap,
                       (self.now + cost, next(self._seq), proc))

    def _h_page_faults(self, proc: SimProcess, prim: P.PageFaults) -> None:
        cost = self.pricer.page_fault_cost(prim.npages)
        self._schedule(self.now + cost, proc)

    def _h_trace(self, proc: SimProcess, prim: P.Trace) -> None:
        self.trace.append((self.now, prim.label, prim.meta))
        if self._observe:
            self.obs.instant(proc, prim.label, prim.meta)
        self._resume(proc, None)


_HANDLERS = {
    P.Compute: Engine._h_compute,
    P.Copy: Engine._h_copy,
    P.CopyBatch: Engine._h_copy_batch,
    P.Reduce: Engine._h_reduce,
    P.SetFlag: Engine._h_set_flag,
    P.SetFlagGroup: Engine._h_set_flag_group,
    P.WaitFlag: Engine._h_wait_flag,
    P.AtomicRMW: Engine._h_atomic_rmw,
    P.WaitAtomic: Engine._h_wait_atomic,
    P.Syscall: Engine._h_syscall,
    P.PageFaults: Engine._h_page_faults,
    P.Trace: Engine._h_trace,
}
