"""Hierarchical span tracing over simulated time.

A *span* is a named interval on a *track* (one simulated process): the
XHC broadcast a rank executes, the fan-out pull loop inside it, one copy
the engine booked, one blocked wait on a flag. Spans nest per track —
algorithm code opens them with::

    with node.obs.span("xhc.bcast", cat="coll", rank=me, nbytes=n):
        ...

inside a simulated generator (``with`` works across ``yield``: the enter
and exit timestamps are read from the engine's simulated clock at the
resumes where control actually passes through them). The engine itself
records copy/reduce spans and blocked-wait spans, including *who* ended
each wait — the dependency edges :mod:`repro.obs.critical_path` walks.

When observability is off the :data:`NULL_OBSERVER` stands in: its
``span()`` returns a shared no-op context manager and its registry hands
out no-op metric handles, so instrumented code costs one attribute call
per site (measured < 2% on the OSU bcast sweep; see
docs/observability.md).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Generator, Iterator

from .metrics import NULL_METRICS, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Engine, SimProcess

# Track used for code that runs outside any simulated process (component
# setup, hierarchy construction).
SETUP_TRACK = -1


class SpanRecord:
    """One closed interval on a track. ``cat`` groups spans for display
    and analysis: "coll" (collective entry), "phase" (algorithm step),
    "copy" (engine transfer), "wait" (blocked on a flag/atomic),
    "shmem" (mapping syscalls)."""

    __slots__ = ("id", "name", "cat", "track", "start", "end", "parent",
                 "args")

    def __init__(self, id: int, name: str, cat: str, track: int,
                 start: float, end: float | None = None,
                 parent: int | None = None,
                 args: dict | None = None) -> None:
        self.id = id
        self.name = name
        self.cat = cat
        self.track = track
        self.start = start
        self.end = end
        self.parent = parent
        self.args = args

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def __repr__(self) -> str:
        return (f"<span {self.name} [{self.start:.3e}"
                f"..{'open' if self.end is None else format(self.end, '.3e')}]"
                f" track={self.track}>")


def span_label(rec: SpanRecord) -> str:
    """How a finding names the phase it happened in: the span's name,
    plus its rank argument if it has one."""
    if rec.args and "rank" in rec.args:
        return f"{rec.name}(rank={rec.args['rank']})"
    return rec.name


class _SpanContext:
    """Context manager handed out by :meth:`Observer.span`."""

    __slots__ = ("obs", "name", "cat", "args", "rec")

    def __init__(self, obs: "Observer", name: str, cat: str,
                 args: dict | None) -> None:
        self.obs = obs
        self.name = name
        self.cat = cat
        self.args = args
        self.rec: SpanRecord | None = None

    def __enter__(self) -> SpanRecord:
        self.rec = self.obs._begin(self.name, self.cat, self.args)
        return self.rec

    def __exit__(self, exc_type, exc, tb) -> None:
        self.obs._end(self.rec)


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpanContext()


class WaitRecord:
    """One blocked interval: [start, end] on ``track``, waiting on
    ``target``. ``waker`` is the track whose write satisfied the wait (at
    simulated time ``woke_at``); the gap [woke_at, end] is the waiter's
    line-fetch latency."""

    __slots__ = ("track", "target", "kind", "start", "end", "waker",
                 "woke_at")

    def __init__(self, track: int, target: str, kind: str,
                 start: float) -> None:
        self.track = track
        self.target = target
        self.kind = kind
        self.start = start
        self.end: float | None = None
        self.waker: int | None = None
        self.woke_at: float | None = None

    @property
    def group(self) -> str:
        """Aggregation key: the target's name family (xhc.avail.7 ->
        xhc.avail), the same interning :attr:`Flag.wait_key` uses, so
        ``f"{kind} {group}"`` is the waited object's ``wait_key`` — the
        row :func:`repro.sim.stats.collect_stats` sums this wait into."""
        from ..sim.syncobj import wait_group
        return wait_group(self.target)


class Observer:
    """Collects spans, waits, instants and metrics for one engine run.

    ``engine`` is the engine itself while :meth:`Engine.run` executes and
    a ``weakref.proxy`` to it otherwise: the engine owns its observer, so
    a strong reference held past the run would make a reference cycle.
    """

    def __init__(self, engine: "Engine", record_copies: bool = True,
                 span_limit: int = 2_000_000) -> None:
        self.engine = engine
        self.enabled = True
        self.record_copies = record_copies
        self.span_limit = span_limit
        self.metrics = MetricsRegistry()
        self.spans: list[SpanRecord] = []
        self.waits: list[WaitRecord] = []
        self.instants: list[tuple[float, int, str, dict]] = []
        self.dropped = 0
        # track id (SimProcess.pid, or SETUP_TRACK) -> (name, core)
        self.tracks: dict[int, tuple[str, int]] = {
            SETUP_TRACK: ("setup", -1)}
        self._ids = itertools.count()
        self._stacks: dict[int, list[SpanRecord]] = {}
        self._pending_waits: dict[int, WaitRecord] = {}
        self._m_messages = self.metrics.counter(
            "messages.count", "logical messages emitted by collectives")
        self._m_msg_bytes = self.metrics.counter(
            "messages.bytes", "total logical-message payload")
        # end_wait's metric handles, registered by the first blocked wait
        # so that a snapshot lists them only once a wait has happened, and
        # its span names by ``Flag.wait_key`` ("flag xhc.avail" ->
        # "wait:xhc.avail").
        self._m_blocked_waits = None
        self._m_wait_seconds = None
        self._wait_span_names: dict[str, str] = {}

    # -- track bookkeeping --------------------------------------------------

    def _track_of(self, proc: "SimProcess | None") -> int:
        if proc is None:
            return SETUP_TRACK
        track = proc.pid
        if track not in self.tracks:
            self.tracks[track] = (proc.name, proc.core)
        return track

    def track_name(self, track: int) -> str:
        return self.tracks.get(track, (f"track{track}", -1))[0]

    def track_core(self, track: int) -> int:
        return self.tracks.get(track, ("?", -1))[1]

    def current_span(self, track: int) -> str | None:
        """Name (plus rank arg, if any) of the innermost open span on
        ``track`` — the phase context repro.check attaches to findings."""
        rec = self.open_span(track)
        return None if rec is None else span_label(rec)

    def open_span(self, track: int) -> SpanRecord | None:
        """The innermost open span on ``track``, if any."""
        stack = self._stacks.get(track)
        return stack[-1] if stack else None

    # -- stack spans --------------------------------------------------------

    def span(self, name: str, cat: str = "phase", **args: Any):
        """Context manager timing a nested phase on the current track."""
        return _SpanContext(self, name, cat, args or None)

    def wrap(self, gen: Generator, name: str, cat: str = "coll",
             **args: Any) -> Iterator:
        """Run ``gen`` inside a span (used to instrument whole
        collectives at the Communicator layer)."""
        with _SpanContext(self, name, cat, args or None):
            yield from gen

    def _begin(self, name: str, cat: str, args: dict | None) -> SpanRecord:
        track = self._track_of(self.engine._current_proc)
        stack = self._stacks.setdefault(track, [])
        parent = stack[-1].id if stack else None
        rec = SpanRecord(next(self._ids), name, cat, track,
                         self.engine.now, None, parent, args)
        stack.append(rec)
        return rec

    def _end(self, rec: SpanRecord | None) -> None:
        if rec is None:  # pragma: no cover - defensive
            return
        rec.end = self.engine.now
        stack = self._stacks.get(rec.track)
        if stack and stack[-1] is rec:
            stack.pop()
        elif stack and rec in stack:  # out-of-order close (abandoned gen)
            stack.remove(rec)
        self._store(rec)

    def _store(self, rec: SpanRecord) -> None:
        if len(self.spans) >= self.span_limit:
            self.dropped += 1
            return
        self.spans.append(rec)

    # -- point-recorded spans (engine copies, attaches) ---------------------

    def record(self, proc: "SimProcess | None", name: str, cat: str,
               start: float, end: float, **args: Any) -> None:
        """A span whose bounds are already known (engine transfers)."""
        track = self._track_of(proc)
        stack = self._stacks.get(track)
        parent = stack[-1].id if stack else None
        self._store(SpanRecord(next(self._ids), name, cat, track,
                               start, end, parent, args or None))

    # -- waits (engine-driven) ----------------------------------------------

    def begin_wait(self, proc: "SimProcess", target: str,
                   kind: str = "flag") -> None:
        track = self._track_of(proc)
        self._pending_waits[track] = WaitRecord(
            track, target, kind, self.engine.now)

    def note_waker(self, proc: "SimProcess",
                   waker: "SimProcess | None") -> None:
        """Called at the write that satisfies ``proc``'s pending wait."""
        wait = self._pending_waits.get(proc.pid)
        if wait is not None and wait.waker is None:
            wait.waker = self._track_of(waker)
            wait.woke_at = self.engine.now

    def end_wait(self, proc: "SimProcess") -> None:
        """Called at the resume that ends ``proc``'s blocked wait, while
        ``proc.blocked_obj`` still names the waited object."""
        wait = self._pending_waits.pop(proc.pid, None)
        if wait is None:
            return
        wait.end = self.engine.now
        self.waits.append(wait)
        stack = self._stacks.get(wait.track)
        parent = stack[-1].id if stack else None
        obj = proc.blocked_obj
        if obj is None:
            name = f"wait:{wait.group}"
        else:
            key = obj.wait_key
            name = self._wait_span_names.get(key)
            if name is None:
                # The key is "<kind> <group>"; the span is named by the
                # group, the WaitRecord's own.
                name = self._wait_span_names[key] = \
                    "wait:" + key.partition(" ")[2]
        self._store(SpanRecord(
            next(self._ids), name, "wait", wait.track,
            wait.start, wait.end, parent,
            {"target": wait.target, "waker": wait.waker}))
        if self._m_blocked_waits is None:
            self._m_blocked_waits = self.metrics.counter(
                "flags.blocked_waits")
            self._m_wait_seconds = self.metrics.histogram(
                "flags.wait_seconds", scale=1e-9)
        self._m_blocked_waits.inc()
        self._m_wait_seconds.observe(wait.end - wait.start)

    # -- instants -----------------------------------------------------------

    def instant(self, proc: "SimProcess | None", label: str,
                meta: dict) -> None:
        """Zero-duration annotation: one per ``Trace`` primitive a run
        yields (``sim.trace`` reads the ``"message"`` ones)."""
        track = self._track_of(proc)
        self.instants.append((self.engine.now, track, label, meta))
        if label == "message":
            self._m_messages.inc()
            nbytes = meta.get("nbytes", 0)
            self._m_msg_bytes.inc(nbytes)
            src, dst = meta.get("src"), meta.get("dst")
            if src is not None and dst is not None:
                from ..topology.distance import message_distance_label
                label_ = message_distance_label(
                    self.engine.pricer.topo, src, dst)
                self.metrics.counter(f"message.bytes.{label_}").inc(nbytes)

    # -- finishing ----------------------------------------------------------

    def flush_open(self) -> None:
        """Close any still-open spans/waits at the current simulated time
        (abandoned generators); call before exporting."""
        now = self.engine.now
        for stack in self._stacks.values():
            while stack:
                rec = stack.pop()
                rec.end = now
                self._store(rec)
        for track in list(self._pending_waits):
            wait = self._pending_waits.pop(track)
            wait.end = now
            self.waits.append(wait)

    def span_tree(self) -> dict[int, list[SpanRecord]]:
        """Finished spans grouped by track, sorted by (start, -duration)."""
        out: dict[int, list[SpanRecord]] = {}
        for rec in self.spans:
            if rec.end is None:
                continue
            out.setdefault(rec.track, []).append(rec)
        for spans in out.values():
            spans.sort(key=lambda s: (s.start, -(s.end - s.start)))
        return out


class NullObserver:
    """Observability off: every operation is a no-op, every handle is
    shared. ``enabled`` gates any per-chunk instrumentation."""

    enabled = False
    record_copies = False
    metrics = NULL_METRICS
    spans: tuple = ()
    waits: tuple = ()
    instants: tuple = ()
    tracks: dict = {}
    dropped = 0

    __slots__ = ()

    def span(self, name: str, cat: str = "phase", **args: Any):
        return _NULL_SPAN

    def wrap(self, gen: Generator, name: str, cat: str = "coll",
             **args: Any) -> Generator:
        return gen

    def record(self, proc, name, cat, start, end, **args) -> None:
        pass

    def begin_wait(self, proc, target, kind="flag") -> None:
        pass

    def note_waker(self, proc, waker) -> None:
        pass

    def end_wait(self, proc) -> None:
        pass

    def instant(self, proc, label, meta) -> None:
        pass

    def flush_open(self) -> None:
        pass

    def span_tree(self) -> dict:
        return {}

    def track_name(self, track: int) -> str:
        return f"track{track}"

    def track_core(self, track: int) -> int:
        return -1

    def current_span(self, track: int) -> None:
        return None

    def open_span(self, track: int) -> None:
        return None


NULL_OBSERVER = NullObserver()
