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
``_HANDLERS``; the observe, race and deadlock-probe hooks inside the
handlers each sit behind a boolean cached at construction. A handler
returns True for a primitive that takes no simulated time (a ``Trace``,
a ``ChunkRun`` with nothing to wait for, look up, move or set), and
``_resume`` sends into the generator again in its own loop, so no run of
such primitives nests frames. A :class:`~repro.sim.primitives.ChunkRun`
runs as exactly the per-chunk events it stands for, chained in-engine
(see ``_h_chunk_run``). A wait is satisfied exactly when ``value >=
threshold``: flags and atomics carry monotonic counters.

Ownership (see docs/architecture.md): the Node owns its engine, and the
engine owns its observer and checker. The three back-references — the
engine's ``pricer`` and the observer's and checker's ``engine`` — are
``weakref.proxy`` objects except while :meth:`Engine.run` executes,
which swaps in the strong references the handlers read per event and
swaps the proxies back when it returns or raises. A finished run's
object graph is therefore freed by reference counting alone.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import weakref
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
    """One simulated flow of control, pinned to a core.

    ``cont`` is the continuation of a :class:`~repro.sim.primitives.
    ChunkRun` parked on a wait: the event engine's resume runs it instead
    of sending into the generator, which stays suspended at the run's
    ``yield`` until the run finishes.
    """

    _ids = itertools.count()

    __slots__ = ("pid", "name", "core", "gen", "state", "result",
                 "finish_time", "blocked_obj", "blocked_value", "waking",
                 "blocked_since", "vt", "seg", "cont")

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
        self.cont: Optional[Callable[[], None]] = None
        self.result: Any = None
        self.finish_time: float | None = None
        # The Flag/Atomic this process is blocked on (deadlock analysis
        # needs the object, not just a display string) plus the threshold
        # it waits for, and whether a satisfying write already scheduled
        # its resume — a proc with ``waking`` set is still BLOCKED but no
        # longer waiting on anyone. The array engine prices a wake from
        # no earlier than ``blocked_since``.
        self.blocked_obj: Any = None
        self.blocked_value: int = 0
        self.waking: bool = False
        self.blocked_since: float = 0.0

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

    * ``None``/``False`` (default) — no recording at all; each hook in
      the handlers costs one test of a cached boolean.
    * ``True`` / ``"full"`` — attach an :class:`~repro.obs.spans.Observer`
      recording spans, waits (with wakers), copy spans and metrics.
    * ``"spans"`` — spans/waits/metrics without per-copy spans (lower
      volume for long runs).

    The observer is a run's only recorder: ``Trace`` annotations (Table
    II's ``"message"`` records) become its instants and are dropped on
    an unobserved run. Leave ``observe`` off for large sweeps —
    overhead numbers are in docs/observability.md.

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

    def __init__(self, pricer,
                 observe: "bool | str | None" = None,
                 check: "bool | str | None" = None) -> None:
        # The pricer (the Node) owns this engine, so the engine holds it
        # strongly only while run() executes (see _bind_run) and through
        # a proxy otherwise.
        self._pricer_ref = weakref.ref(pricer)
        self._pricer_proxy = weakref.proxy(pricer)
        self.pricer = self._pricer_proxy
        self._plan_span = None
        self.now = 0.0
        self._seq = itertools.count()
        self._heap: list[tuple] = []
        self.processes: list[SimProcess] = []
        self.events_processed = 0
        self._running = False
        self._current_proc: SimProcess | None = None
        self._proxy = weakref.proxy(self)
        if observe is None or observe is False:
            self.obs: "Observer | NullObserver" = NULL_OBSERVER
        elif observe is True or observe == "full":
            self.obs = Observer(self._proxy, record_copies=True)
        elif observe == "spans":
            self.obs = Observer(self._proxy, record_copies=False)
        else:
            raise SimulationError(
                f"unknown observe mode {observe!r}; expected True, False, "
                f"'full' or 'spans'"
            )
        self._observe = self.obs.enabled
        if check is True:
            check = "full"
        self._dl_probe = None
        if check is None or check is False:
            self.checker = None
            self._dl_proactive = False
        elif check in ("race", "deadlock", "full"):
            from ..check.deadlock import WaitChainProbe
            from ..check.race import RaceChecker
            self.checker = (RaceChecker(self._proxy)
                            if check in ("race", "full") else None)
            self._dl_proactive = check in ("deadlock", "full")
            if self._dl_proactive:
                self._dl_probe = WaitChainProbe()
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

    def run(self) -> float:
        """Drain the event queue; returns the final time."""
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        progress_mark = self._progress
        next_watch = self.events_processed + self.watchdog_every
        heap = self._heap
        pop = heapq.heappop
        resume = self._resume
        try:
            self._bind_run()
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
            self._check_deadlock()
            return self.now
        finally:
            self._running = False
            self._unbind_run()

    def _bind_run(self) -> None:
        """Hold the pricer strongly, and hand the observer and checker
        this engine itself, for the duration of run(): the handlers read
        them on every event, which must not pay a proxy dereference."""
        pricer = self._pricer_ref()
        if pricer is None:
            raise SimulationError(
                "the engine's Node has been freed; keep a reference to "
                "the Node while using node.engine")
        self.pricer = pricer
        self._plan_span = pricer.plan_copy_span
        if self._observe:
            self.obs.engine = self
        if self._race:
            self.checker.engine = self

    def _unbind_run(self) -> None:
        """Undo :meth:`_bind_run` when run() returns or raises, so a
        finished run leaves no reference cycle through the engine."""
        self.pricer = self._pricer_proxy
        self._plan_span = None
        if self._observe:
            self.obs.engine = self._proxy
        if self._race:
            self.checker.engine = self._proxy

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

    def _deadlock_probe(self, obj: Flag | Atomic) -> None:
        """Proactive analysis at a block on ``obj`` (check='deadlock'/
        'full'): raise the moment a wait-for cycle closes, while the rest
        still runs."""
        info = self._dl_probe.probe(self, obj)
        if info is not None:
            raise DeadlockError(
                f"deadlock at t={self.now:.3e}: {info.describe()}",
                cycle=info.cycle_names,
            )

    def _resume(self, proc: SimProcess, send_value: Any) -> None:  # hot-path
        if self._observe and proc.state is _BLOCKED:
            self.obs.end_wait(proc)
        proc.state = _READY
        proc.blocked_obj = None
        proc.waking = False
        self._progress += 1
        self._current_proc = proc
        cont = proc.cont
        if cont is not None:
            # A parked ChunkRun: True means it ended without taking time.
            proc.cont = None
            if not cont():
                return
            self._progress += 1
        gen = proc.gen
        while True:
            try:
                prim = gen.send(send_value)
            except StopIteration as stop:
                proc.state = _DONE
                proc.result = stop.value
                proc.finish_time = self.now
                if self._dl_proactive:
                    self._dl_probe.stale = True
                return
            handler = _HANDLERS.get(prim.__class__)
            if handler is None:
                self._unknown_primitive(proc, prim)
                return
            if not handler(self, proc, prim):
                return
            # A zero-time primitive (a Trace, a ChunkRun that took no
            # time): resume the generator here, not through a nested
            # _resume, so a long run of them cannot exhaust the stack.
            send_value = None
            self._progress += 1

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
    # The race and observe hooks each sit behind a boolean cached at
    # construction, so an uninstrumented run pays one test per hook and
    # allocates nothing beyond the completion closures.

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
        each slice records its own span, and the last one resumes the
        process (or runs ``then``)."""
        n = total - done
        if n > self.COPY_QUANTUM:
            n = self.COPY_QUANTUM
        src = prim.src
        dst = prim.dst
        duration, resources, complete = self._plan_span(
            proc.core, src.buf, src.offset + done, n,
            dst.buf, dst.offset + done, n, prim.bw_factor)
        after = then
        if done + n < total:
            def after() -> None:
                self._copy_slice(proc, prim, total, done + n, then)
        self._transfer(proc, "copy", prim.in_kernel, n, duration,
                       resources, complete, after)

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
        then resume the process (or run ``then``).

        The path resources are held only while the transfer actually
        runs, from ``start`` (the core's booked slot) until ``finish``
        releases them at ``start + duration``: a transfer queued behind
        other work on its core must not inflate everyone else's
        contention meanwhile.
        """
        pool = self.pricer.resources
        start = self._cpu_start(proc.core, duration)

        def finish() -> None:
            for res in resources:
                res.release()
            if in_kernel:
                pool.kernel_ops -= 1
            if complete is not None:
                complete()
            if then is None:
                self._resume(proc, None)
            else:
                then()

        if self._observe and self.obs.record_copies:
            self.obs.record(proc, kind, "copy", start, start + duration,
                            nbytes=nbytes)
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

    # -- chunk runs ----------------------------------------------------------
    #
    # A ChunkRun runs chunk by chunk as exactly the events of the
    # per-chunk loop it stands for: each gated wait, one Compute per
    # registration-cache lookup, the Copy or Reduce, then each set. The
    # non-wait steps chain through their ``then`` continuation, as the
    # next primitive would start the instant the previous one resumed the
    # generator; a wait parks the run in ``proc.cont``, which _resume runs
    # in place of the generator. A chunk with none of these steps takes no
    # time, so _run_chunk goes on to the next chunk in its own loop, and a
    # run that ends that way returns True to whoever resumes the
    # generator: _resume's loop, or the continuation that ran the run.
    # Otherwise the last step of the last chunk resumes the generator.

    def _h_chunk_run(self, proc: SimProcess, prim: P.ChunkRun) -> bool:
        """Start the run; True (resume the generator at once) when it
        takes no time. A run with no chunks is empty, as on the array
        engine."""
        if prim.stop <= prim.start or prim.chunk <= 0:
            return True
        if prim.first_ready:
            return self._run_chunk(proc, prim, prim.start, len(prim.waits), 0)
        return self._run_chunk(proc, prim, prim.start, 0, prim.lookups)

    def _run_chunk(self, proc: SimProcess, prim: P.ChunkRun, o: int, j: int,
                   k: int) -> bool:  # hot-path
        """Issue the chunk at offset ``o`` from wait spec ``j`` on, with
        ``k`` lookups left, then its body and sets; True when the run
        ended without taking time, and the caller resumes the generator."""
        self._current_proc = proc
        waits = prim.waits
        stop = prim.stop
        while True:
            e = o + prim.chunk
            if e > stop:
                e = stop
            while j < len(waits):
                flag, base, lo, hi = waits[j]
                j += 1
                if e < hi:
                    hi = e
                if hi <= lo:
                    continue
                value = base + hi - lo
                proc.cont = lambda: self._run_chunk(  # noqa: E731
                    proc, prim, o, j, prim.lookups)
                if flag.value >= value:
                    if self._race:
                        self.checker.on_acquire(proc, flag)
                    t = self.pricer.line_read(proc.core, flag.line, self.now)
                    heapq.heappush(self._heap, (t, next(self._seq), proc))
                else:
                    self._block(proc, flag, value)
                return False
            if k:
                seconds = prim.lookup_cost
                then = lambda: (self._run_chunk(  # noqa: E731
                    proc, prim, o, j, k - 1) and self._resume(proc, None))
                if seconds <= self.COMPUTE_QUANTUM:
                    start = self._cpu_start(proc.core, seconds)
                    self._schedule(start + seconds, then)
                else:
                    self._compute_slice(proc, seconds, then)
                return False
            self._progress += 1
            if prim.copy is None and prim.reduce is None:
                if prim.sets:
                    self._run_sets(proc, prim, e, 0)
                    return False
                if e == stop:
                    return True
                o = e
                j = 0
                k = prim.lookups
                continue
            # Every chunk of a run with a body or sets takes time, so the
            # continuations here and in _run_sets ignore _run_chunk's
            # result.
            if prim.sets:
                then = lambda: self._run_sets(proc, prim, e, 0)  # noqa: E731
            elif e < stop:
                then = lambda: self._run_chunk(  # noqa: E731
                    proc, prim, e, 0, prim.lookups)
            else:
                then = None
            n = e - o
            if prim.copy is not None:
                src, dst = prim.copy
                self._h_copy(proc, P.Copy(src=src.sub(o, n),
                                          dst=dst.sub(o, n)), then)
            else:
                srcs, dst, op, dtype = prim.reduce
                self._h_reduce(proc, P.Reduce(
                    srcs=tuple(s.sub(o, n) for s in srcs), dst=dst.sub(o, n),
                    op=op, dtype=dtype), then)
            return False

    def _run_sets(self, proc: SimProcess, prim: P.ChunkRun, e: int,
                  j: int) -> None:  # hot-path
        """Publish set ``j`` of the chunk ending at ``e``."""
        self._current_proc = proc
        sets = prim.sets
        flags, base = sets[j]
        if j + 1 < len(sets):
            then = lambda: self._run_sets(proc, prim, e, j + 1)  # noqa: E731
        elif e < prim.stop:
            then = lambda: self._run_chunk(  # noqa: E731
                proc, prim, e, 0, prim.lookups)
        else:
            then = None
        value = base + (e - prim.start)
        if len(flags) == 1:
            self._set_flag_exec(proc, flags[0], value, then)
        else:
            self._set_flag_group_exec(proc, flags, value, then)

    # -- flags ---------------------------------------------------------------

    def _h_set_flag(self, proc: SimProcess, prim: P.SetFlag) -> None:  # hot-path
        self._set_flag_exec(proc, prim.flag, prim.value, None)

    def _set_flag_exec(self, proc: SimProcess, flag: Flag, value: int,
                       then) -> None:  # hot-path
        if proc.core != flag.owner_core:
            raise SimulationError(
                f"single-writer violation: core {proc.core} wrote flag "  # lint: disable=RC106
                f"{flag.name!r} owned by core {flag.owner_core}"
            )
        flag.value = value
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
        self._set_flag_group_exec(proc, prim.flags, prim.value, None)

    def _set_flag_group_exec(self, proc: SimProcess, flags: tuple,
                             value: int, then) -> None:
        lines = []
        for flag in flags:
            if proc.core != flag.owner_core:
                raise SimulationError(
                    f"single-writer violation: core {proc.core} wrote flag "
                    f"{flag.name!r} owned by core {flag.owner_core}"
                )
            flag.value = value
            if flag.line not in lines:
                lines.append(flag.line)
        for line in lines:
            line.on_write(proc.core)
        if self._observe:
            self._m_flag_sets.inc(len(flags))
        for flag in flags:
            if self._race:
                self.checker.on_release(proc, flag)
            if flag.waiters:
                self._wake_waiters(flag)
        cost = self.pricer.store_cost * len(flags)
        self._schedule(self.now + cost, proc if then is None else then)

    def _h_wait_flag(self, proc: SimProcess, prim: P.WaitFlag) -> None:  # hot-path
        flag = prim.flag
        value = prim.value
        if flag.value >= value:
            if self._race:
                self.checker.on_acquire(proc, flag)
            t = self.pricer.line_read(proc.core, flag.line, self.now)
            heapq.heappush(self._heap, (t, next(self._seq), proc))
        else:
            self._block(proc, flag, value)

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
        if atom.value >= value:
            if self._race:
                self.checker.on_acquire(proc, atom)
            t = self.pricer.line_read(proc.core, atom.line, self.now)
            heapq.heappush(self._heap, (t, next(self._seq), proc))
        else:
            self._block(proc, atom, value)

    def _block(self, proc: SimProcess, obj: Flag | Atomic,
               value: int) -> None:  # hot-path
        """Park ``proc`` until ``obj.value >= value``."""
        proc.state = _BLOCKED
        proc.blocked_obj = obj
        proc.blocked_value = value
        if self._observe:
            self.obs.begin_wait(proc, obj.name, obj.kind)
        obj.waiters.append((proc, value))
        if self._dl_proactive:
            self._deadlock_probe(obj)

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
            proc, threshold = entry
            if val >= threshold:
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

    def _h_trace(self, proc: SimProcess, prim: P.Trace) -> bool:
        """An observer instant, taking no time: True resumes the
        generator at once."""
        if self._observe:
            self.obs.instant(proc, prim.label, prim.meta)
        return True


_HANDLERS = {
    P.Compute: Engine._h_compute,
    P.Copy: Engine._h_copy,
    P.ChunkRun: Engine._h_chunk_run,
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
