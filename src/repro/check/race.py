"""Happens-before race detection over simulated shared memory.

The engine calls into a :class:`RaceChecker` (when constructed with
``check='race'`` or ``'full'``) at every point where ordering is created
or consumed:

* ``on_spawn`` — a spawned process inherits its spawner's clock;
* ``on_release`` — a flag store joins the writer's clock into the flag's
  clock (release semantics of ``P.SetFlag`` / ``P.SetFlagGroup``);
* ``on_acquire`` — a satisfied wait joins the flag's clock into the
  reader's clock (acquire semantics of ``P.WaitFlag`` / ``P.WaitAtomic``);
* ``on_rmw`` — an atomic RMW is both (acquire then release);
* ``on_copy`` / ``on_reduce`` — the actual memory accesses.

Two accesses to overlapping byte ranges of the same buffer race when they
come from different processes, at least one writes, and neither is
ordered before the other by the happens-before relation built from those
edges. Accesses are stamped with FastTrack-style epochs (see
:mod:`repro.check.vclock`), so the common ordered case is one dict lookup.

Each buffer keeps its last ``max_history`` accesses (:class:`_History`),
indexed by read/write and by byte range, so a new access visits only the
recorded accesses it overlaps, and a read only the writes among them.

A second rule rides along on the same hooks: reading or writing a peer's
*non-shared* buffer requires a live XPMEM attachment by the accessing
core (kernel-assisted CMA/KNEM copies are exempt — they carry
``in_kernel=True``). :mod:`repro.shmem.xpmem` reports attach/detach so
use-after-detach and missing-attach accesses surface as ``xpmem``
findings.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import TYPE_CHECKING

from ..obs.spans import span_label
from ..shmem.segment import SharedSegment
from .report import CheckReport, Finding
from .vclock import VClock

if TYPE_CHECKING:  # pragma: no cover
    from ..memory.address_space import Buffer, BufView
    from ..obs.spans import SpanRecord
    from ..sim.engine import Engine, SimProcess
    from ..sim.syncobj import Atomic, Flag
    from ..sim import primitives as P

#: ``RaceChecker._releaser`` value of a sync object released by more than
#: one process.
_SHARED = -1


class Access:
    """One recorded read or write of a byte range.

    ``seq`` orders the accesses of a checker; ``span`` is the span open
    on the accessing process at the time (``None`` without observe), so
    its label is formatted only when a finding names it.
    """

    __slots__ = ("seq", "pid", "proc", "write", "lo", "hi", "epoch",
                 "time", "label", "span")

    def __init__(self, seq: int, proc: "SimProcess", write: bool,
                 lo: int, hi: int, epoch: int, time: float, label: str,
                 span: "SpanRecord | None") -> None:
        self.seq = seq
        self.pid = proc.pid
        self.proc = proc
        self.write = write
        self.lo = lo
        self.hi = hi
        self.epoch = epoch
        self.time = time
        self.label = label
        self.span = span

    @property
    def name(self) -> str:
        return self.proc.name

    @property
    def span_name(self) -> str | None:
        return None if self.span is None else span_label(self.span)

    def describe(self) -> str:
        rw = "write" if self.write else "read"
        where = f"[{self.lo}:{self.hi}]"
        span = self.span_name
        ctx = f" in {span}" if span else ""
        return (f"{self.name} (core {self.proc.core}) {self.label}-{rw} "
                f"{where} at t={self.time:.3e}{ctx}")


class _History:
    """One buffer's last accesses, oldest first in ``order``.

    ``writes`` and ``reads`` each map a range length ``n`` to a pair
    ``(starts, groups)``: ``starts`` is sorted, and ``groups[i]`` lists,
    oldest first, the accesses of ``[starts[i], starts[i] + n)``. A range
    of length ``n`` overlaps ``[lo, hi)`` exactly when its start lies in
    ``(lo - n, hi)``, so two bisections per length find every
    overlapping group and no other.
    """

    __slots__ = ("order", "writes", "reads")

    def __init__(self) -> None:
        # A list, not a deque: most histories are a few accesses long,
        # and dropping the head of one of at most 512 is a short move.
        self.order: list[Access] = []
        self.writes: dict[int, tuple[list[int], list[list[Access]]]] = {}
        self.reads: dict[int, tuple[list[int], list[list[Access]]]] = {}

    def add(self, acc: Access) -> None:
        index = self.writes if acc.write else self.reads
        lo = acc.lo
        entry = index.get(acc.hi - lo)
        if entry is None:
            index[acc.hi - lo] = ([lo], [[acc]])
        else:
            starts, groups = entry
            i = bisect_left(starts, lo)
            if i < len(starts) and starts[i] == lo:
                groups[i].append(acc)
            else:
                starts.insert(i, lo)
                groups.insert(i, [acc])
        self.order.append(acc)

    def evict_oldest(self) -> None:
        """Forget the oldest access, which is the first of its group."""
        acc = self.order.pop(0)
        index = self.writes if acc.write else self.reads
        n = acc.hi - acc.lo
        starts, groups = index[n]
        i = bisect_left(starts, acc.lo)
        group = groups[i]
        del group[0]
        if not group:
            del starts[i]
            del groups[i]
            if not starts:
                del index[n]


def _unordered(index: dict, lo: int, hi: int, pid: int, clock: dict,
               out: "list[Access] | None") -> "list[Access] | None":
    """Append to ``out`` (made on demand) every access in ``index`` that
    overlaps ``[lo, hi)``, comes from another process and is not ordered
    before the point ``clock`` stands for."""
    for n, (starts, groups) in index.items():
        i = bisect_right(starts, lo - n)
        j = bisect_left(starts, hi)
        while i < j:
            for old in groups[i]:
                if old.pid != pid and old.epoch > clock.get(old.pid, 0):
                    if out is None:
                        out = []
                    out.append(old)
            i += 1
    return out


class RaceChecker:
    """Per-engine happens-before state and findings.

    Like :class:`~repro.obs.spans.Observer`, it holds its engine strongly
    only while :meth:`Engine.run` executes and through a
    ``weakref.proxy`` otherwise, so the pair forms no reference cycle.
    """

    def __init__(self, engine: "Engine", max_history: int = 512,
                 max_findings: int = 200) -> None:
        self.engine = engine
        self.max_history = max_history
        self.max_findings = max_findings
        self.findings: list[Finding] = []
        self._clocks: dict[int, VClock] = {}
        self._sync: dict[int, VClock] = {}
        # The pid of each sync object's only releaser so far, or _SHARED.
        self._releaser: dict[int, int] = {}
        self._hist: dict[int, _History] = {}
        self._seq = itertools.count()
        self._attached: set[tuple[int, int]] = set()
        self._dedup: set[tuple] = set()

    # -- clock plumbing -----------------------------------------------------

    def _clock(self, proc: "SimProcess") -> VClock:
        vc = self._clocks.get(proc.pid)
        if vc is None:
            vc = VClock({proc.pid: 1})
            self._clocks[proc.pid] = vc
        return vc

    def on_spawn(self, parent: "SimProcess | None",
                 child: "SimProcess") -> None:
        if parent is None:
            self._clock(child)
            return
        pc = self._clock(parent)
        cc = pc.copy()
        cc.tick(child.pid)
        self._clocks[child.pid] = cc
        # The spawner's subsequent accesses are concurrent with the child.
        pc.tick(parent.pid)

    def on_release(self, proc: "SimProcess", obj: "Flag | Atomic") -> None:
        """Join the releaser's clock into the object's. While one process
        is the object's only releaser, the join equals a copy of its
        clock, which already holds every clock it released before."""
        vc = self._clock(proc)
        key = id(obj)
        pid = proc.pid
        releaser = self._releaser.get(key)
        if releaser is None or releaser == pid:
            self._sync[key] = vc.copy()
            self._releaser[key] = pid
        else:
            if releaser != _SHARED:
                self._releaser[key] = _SHARED
            self._sync[key].join(vc)
        vc.tick(pid)

    def on_acquire(self, proc: "SimProcess", obj: "Flag | Atomic") -> None:
        sc = self._sync.get(id(obj))
        if sc is not None:
            self._clock(proc).join(sc)

    def on_rmw(self, proc: "SimProcess", obj: "Atomic") -> None:
        self.on_acquire(proc, obj)
        self.on_release(proc, obj)

    # -- memory accesses ----------------------------------------------------

    def on_copy(self, proc: "SimProcess", prim: "P.Copy") -> None:
        n = prim.nbytes
        self._access(proc, prim.src, n, False, "copy", prim.in_kernel)
        self._access(proc, prim.dst, n, True, "copy", prim.in_kernel)

    def on_reduce(self, proc: "SimProcess", prim: "P.Reduce") -> None:
        in_kernel = getattr(prim, "in_kernel", False)
        for src in prim.srcs:
            self._access(proc, src, src.length, False, "reduce", in_kernel)
        if prim.accumulate:
            self._access(proc, prim.dst, prim.nbytes, False, "reduce",
                         in_kernel)
        self._access(proc, prim.dst, prim.nbytes, True, "reduce", in_kernel)

    def _access(self, proc: "SimProcess", view: "BufView", nbytes: int,
                write: bool, label: str, in_kernel: bool) -> None:
        if nbytes <= 0:
            return
        buf = view.buf
        self._check_attached(proc, buf, write, in_kernel)
        clock = self._clock(proc).c
        lo = view.offset
        hi = lo + min(nbytes, view.length)
        hist = self._hist.get(buf.id)
        if hist is None:
            hist = self._hist[buf.id] = _History()
        pid = proc.pid
        racy = _unordered(hist.writes, lo, hi, pid, clock, None)
        if write:
            racy = _unordered(hist.reads, lo, hi, pid, clock, racy)
        engine = self.engine
        acc = Access(next(self._seq), proc, write, lo, hi, clock.get(pid, 0),
                     engine.now, label, engine.obs.open_span(pid))
        if racy is not None:
            # Oldest first: the order a scan of the whole window met them.
            racy.sort(key=attrgetter("seq"))
            for old in racy:
                self._report_race(old, acc, buf)
        hist.add(acc)
        if len(hist.order) > self.max_history:
            hist.evict_oldest()

    # -- xpmem attachment protocol ------------------------------------------

    def on_attach(self, proc: "SimProcess | None", buf: "Buffer") -> None:
        if proc is not None:
            self._attached.add((proc.core, buf.id))

    def on_detach(self, proc: "SimProcess | None", buf: "Buffer") -> None:
        if proc is not None:
            self._attached.discard((proc.core, buf.id))

    def _check_attached(self, proc: "SimProcess", buf: "Buffer",
                        write: bool, in_kernel: bool) -> None:
        if buf.shared or in_kernel or buf.owner_core == proc.core:
            return
        if (proc.core, buf.id) in self._attached:
            return
        key = ("xpmem", proc.core, buf.id)
        if key in self._dedup:
            return
        self._dedup.add(key)
        rw = "wrote" if write else "read"
        self._add(Finding(
            kind="xpmem",
            message=(f"{proc.name} (core {proc.core}) {rw} peer buffer "
                     f"{buf.name!r} (owner core {buf.owner_core}) with no "
                     f"live XPMEM attachment — missing attach or "
                     f"use-after-detach"),
            where=buf.name,
            procs=(proc.name,),
            time=self.engine.now,
            span=self._span_of(proc),
        ))

    # -- reporting ----------------------------------------------------------

    def _span_of(self, proc: "SimProcess") -> str | None:
        obs = self.engine.obs
        if not obs.enabled:
            return None
        return obs.current_span(proc.pid)

    def _where(self, buf: "Buffer", lo: int, hi: int) -> str:
        base = buf.name
        seg = SharedSegment.lookup(buf)
        if seg is not None:
            region = seg.region_at(lo)
            if region is not None:
                base = f"{base}:{region}"
        return f"{base}[{lo}:{hi}]"

    def _report_race(self, old: Access, new: Access, buf: "Buffer") -> None:
        key = ("race", buf.id,
               (old.name, old.label, old.write),
               (new.name, new.label, new.write))
        if key in self._dedup:
            return
        self._dedup.add(key)
        lo = max(old.lo, new.lo)
        hi = min(old.hi, new.hi)
        where = self._where(buf, lo, hi)
        self._add(Finding(
            kind="race",
            message=(f"data race on {where}: {new.describe()} is not "
                     f"ordered after {old.describe()} — no happens-before "
                     f"edge (release/acquire chain) connects them"),
            where=where,
            procs=(old.name, new.name),
            time=new.time,
            span=new.span_name or old.span_name,
            extra={"overlap": [lo, hi],
                   "first": old.describe(), "second": new.describe()},
        ))

    def _add(self, finding: Finding) -> None:
        if len(self.findings) < self.max_findings:
            self.findings.append(finding)

    def report(self) -> CheckReport:
        return CheckReport(self.findings)
