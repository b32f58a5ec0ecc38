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

A second rule rides along on the same hooks: reading or writing a peer's
*non-shared* buffer requires a live XPMEM attachment by the accessing
core (kernel-assisted CMA/KNEM copies are exempt — they carry
``in_kernel=True``). :mod:`repro.shmem.xpmem` reports attach/detach so
use-after-detach and missing-attach accesses surface as ``xpmem``
findings.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from ..shmem.segment import SharedSegment
from .report import CheckReport, Finding
from .vclock import VClock

if TYPE_CHECKING:  # pragma: no cover
    from ..memory.address_space import Buffer, BufView
    from ..sim.engine import Engine, SimProcess
    from ..sim.syncobj import Atomic, Flag
    from ..sim import primitives as P


class Access:
    """One recorded read or write of a byte range."""

    __slots__ = ("pid", "name", "core", "write", "lo", "hi", "epoch",
                 "time", "label", "span")

    def __init__(self, pid: int, name: str, core: int, write: bool,
                 lo: int, hi: int, epoch: int, time: float, label: str,
                 span: str | None) -> None:
        self.pid = pid
        self.name = name
        self.core = core
        self.write = write
        self.lo = lo
        self.hi = hi
        self.epoch = epoch
        self.time = time
        self.label = label
        self.span = span

    def describe(self) -> str:
        rw = "write" if self.write else "read"
        where = f"[{self.lo}:{self.hi}]"
        ctx = f" in {self.span}" if self.span else ""
        return (f"{self.name} (core {self.core}) {self.label}-{rw} "
                f"{where} at t={self.time:.3e}{ctx}")


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
        self._hist: dict[int, deque[Access]] = {}
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
        vc = self._clock(proc)
        sc = self._sync.get(id(obj))
        if sc is None:
            sc = VClock()
            self._sync[id(obj)] = sc
        sc.join(vc)
        vc.tick(proc.pid)

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
        vc = self._clock(proc)
        lo = view.offset
        hi = lo + min(nbytes, view.length)
        hist = self._hist.get(buf.id)
        if hist is None:
            hist = deque(maxlen=self.max_history)
            self._hist[buf.id] = hist
        span = self._span_of(proc)
        for acc in hist:
            if acc.pid == proc.pid:
                continue
            if not (write or acc.write):
                continue
            if acc.lo >= hi or acc.hi <= lo:
                continue
            if vc.happened_before(acc.pid, acc.epoch):
                continue
            self._report_race(
                acc,
                Access(proc.pid, proc.name, proc.core, write, lo, hi,
                       vc.get(proc.pid), self.engine.now, label, span),
                buf,
            )
        hist.append(
            Access(proc.pid, proc.name, proc.core, write, lo, hi,
                   vc.get(proc.pid), self.engine.now, label, span))

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
            span=new.span or old.span,
            extra={"overlap": [lo, hi],
                   "first": old.describe(), "second": new.describe()},
        ))

    def _add(self, finding: Finding) -> None:
        if len(self.findings) < self.max_findings:
            self.findings.append(finding)

    def report(self) -> CheckReport:
        return CheckReport(self.findings)
