"""Wait-for-graph deadlock analysis for the engine.

A blocked process waits on a flag or an atomic. Who could unblock it?

* a :class:`~repro.sim.syncobj.Flag` is single-writer: only processes on
  ``flag.owner_core`` can store it (the engine enforces this), so they
  are the only candidate wakers;
* an :class:`~repro.sim.syncobj.Atomic` can be bumped by anyone alive.

A set of blocked processes is *stuck* when every candidate waker of every
member is itself in the set (greatest fixpoint). Its complement, the
processes that can still run, is a least fixpoint and is found in one
worklist pass: every alive process that is not waiting is free, a flag
waiter is freed once its owner core has a free process, and an atomic
waiter once any process is free. This is sound here because new
processes are only ever spawned onto the spawner's own core, so a stuck
core cannot grow a fresh writer. The engine consults this module in
three places: at event-queue drain (always — the classic "everyone still
blocked" deadlock), from the run-loop watchdog (always — catches spins
that would otherwise hang pytest), and proactively at every block when
constructed with ``check='deadlock'`` or ``'full'`` (reports the cycle
the moment it closes, while the rest of the node still runs).

The per-block probe (:class:`WaitChainProbe`) rarely needs the full
analysis. No stuck set exists before a block: the previous block was
probed, and a finish, the only other event that can strand a waiter,
makes the next probe a full one. A stuck set after the block must then
hold the new waiter, so the probe only asks whether the waiter can still
be woken, by walking its wait-for chain core by core.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim.engine import ProcState
from .report import Finding

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Engine, SimProcess
    from ..sim.syncobj import Atomic, Flag

_BLOCKED = ProcState.BLOCKED
_DONE = ProcState.DONE


class DeadlockInfo:
    """A stuck set plus one representative wait-for cycle through it."""

    def __init__(self, stuck: "list[SimProcess]",
                 cycle: "list[SimProcess]") -> None:
        self.stuck = stuck
        self.cycle = cycle

    @property
    def cycle_names(self) -> list[str]:
        return [p.name for p in self.cycle]

    def describe(self) -> str:
        if not self.cycle:
            return "no wait-for cycle (blocked with no possible waker)"
        hops = " -> ".join(
            f"{p.name}(core {p.core}, on {p.blocked_on})" for p in self.cycle
        )
        return f"wait-for cycle: {hops} -> back to {self.cycle[0].name}"

    def finding(self, now: float) -> Finding:
        return Finding(
            kind="deadlock",
            message=(f"{len(self.stuck)} process(es) can never be woken: "
                     f"{self.describe()}"),
            procs=tuple(p.name for p in self.stuck),
            time=now,
        )


def _candidate_wakers(engine: "Engine",
                      proc: "SimProcess") -> "list[SimProcess]":
    """Alive processes that could satisfy ``proc``'s pending wait."""
    obj = proc.blocked_obj
    owner_core = getattr(obj, "owner_core", None)
    out = []
    for p in engine.processes:
        if p is proc or p.state is _DONE:
            continue
        if owner_core is not None and p.core != owner_core:
            continue
        out.append(p)
    return out


def find_deadlock(engine: "Engine") -> DeadlockInfo | None:
    """Stuck-set analysis; ``None`` when every blocked process still has
    a reachable waker.

    One pass indexes the waiters by the core that can wake them; the
    worklist then holds cores known to have a free process, and popping
    a core frees every waiter on a flag it owns.
    """
    work: list[int] = []              # cores with a free process
    by_owner: dict[int, list] = {}    # flag waiters by the flag's owner core
    on_atomic: list = []              # waiters any other process may wake
    for p in engine.processes:
        state = p.state
        if state is _DONE:
            continue
        if state is _BLOCKED and not p.waking:
            owner = getattr(p.blocked_obj, "owner_core", None)
            if owner is None:
                on_atomic.append(p)
            else:
                by_owner.setdefault(owner, []).append(p)
        else:
            work.append(p.core)
    if work:
        work.extend(p.core for p in on_atomic)
        on_atomic = []
    while work:
        for p in by_owner.pop(work.pop(), ()):
            work.append(p.core)
    stuck = on_atomic + [p for waiters in by_owner.values() for p in waiters]
    if not stuck:
        return None
    ordered = sorted(stuck, key=lambda p: p.pid)
    return DeadlockInfo(ordered, _extract_cycle(engine, set(stuck)))


def _extract_cycle(engine: "Engine",
                   stuck: "set[SimProcess]") -> "list[SimProcess]":
    """Walk p -> (its lowest-pid stuck candidate waker) until a node
    repeats; the tail from the repeat is a cycle. A walk that dead-ends
    (a wait with no candidates at all) returns the chain instead."""
    start = min(stuck, key=lambda p: p.pid)
    order: "list[SimProcess]" = []
    index: dict[int, int] = {}
    p = start
    while p is not None and p.pid not in index:
        index[p.pid] = len(order)
        order.append(p)
        nxt = [c for c in _candidate_wakers(engine, p) if c in stuck]
        p = min(nxt, key=lambda c: c.pid) if nxt else None
    if p is None:
        return order
    return order[index[p.pid]:]


class WaitChainProbe:
    """The proactive probe the engine runs at every block under
    ``check='deadlock'``/``'full'``; same verdicts as :func:`find_deadlock`.

    :meth:`probe` walks the new waiter's wait-for chain: it starts at the
    owner core of the blocked-on flag (every core, for an atomic) and
    stops at the first process there that is not waiting (READY, or
    BLOCKED with ``waking`` set); otherwise it continues at the owner
    cores of the waiters found there, visiting each core once. The full
    analysis runs only when the walk finds no free process, which is
    exactly when a stuck set exists, or when ``stale`` is set: the engine
    sets it when a process finishes, and it stays set until a full
    analysis finds no stuck set.

    The walk reads a per-core index of the processes. It is rebuilt,
    without the finished ones, at every full analysis that finds no stuck
    set; in between, processes spawned since are appended to it at the
    next probe. The probe holds no reference to its engine.
    """

    __slots__ = ("stale", "_by_core", "_indexed")

    def __init__(self) -> None:
        self.stale = True
        self._by_core: dict[int, list] = {}
        self._indexed = 0

    def probe(self, engine: "Engine",
              obj: "Flag | Atomic") -> DeadlockInfo | None:
        """Stuck-set analysis after a process blocked on ``obj``."""
        if not self.stale and self.wakeable(engine, obj):
            return None
        info = find_deadlock(engine)
        if info is None:
            self._reindex(engine)
        else:
            self.stale = True
        return info

    def wakeable(self, engine: "Engine", obj: "Flag | Atomic") -> bool:
        """Whether some process that is not waiting can reach a waiter on
        ``obj`` along the wait-for edges: the owner core of a flag, or
        any core for an atomic."""
        procs = engine.processes
        by_core = self._by_core
        for i in range(self._indexed, len(procs)):
            p = procs[i]
            by_core.setdefault(p.core, []).append(p)
        self._indexed = len(procs)
        owner = getattr(obj, "owner_core", None)
        if owner is None:
            return self._any_free()
        todo = [owner]
        seen = {owner}
        while todo:
            for p in by_core.get(todo.pop(), ()):
                state = p.state
                if state is _DONE:
                    continue
                if state is not _BLOCKED or p.waking:
                    return True
                nxt = getattr(p.blocked_obj, "owner_core", None)
                if nxt is None:
                    return self._any_free()
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return False

    def _any_free(self) -> bool:
        """An atomic waiter is free iff any process is not waiting."""
        for procs in self._by_core.values():
            for p in procs:
                state = p.state
                if state is not _DONE and (state is not _BLOCKED
                                           or p.waking):
                    return True
        return False

    def _reindex(self, engine: "Engine") -> None:
        by_core: dict[int, list] = {}
        for p in engine.processes:
            if p.state is not _DONE:
                by_core.setdefault(p.core, []).append(p)
        self._by_core = by_core
        self._indexed = len(engine.processes)
        self.stale = False
