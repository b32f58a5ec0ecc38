"""Differential test of the race checker's indexed history.

``RaceChecker`` keeps each buffer's last 512 accesses indexed by
read/write and byte range, and copies a flag's clock on a release by its
only releaser so far. The deque scan and the always-join release it
replaced are kept below verbatim, apart from the ``_Ref``/``_DequeChecker``
names, as the reference. Both checkers are fed the same seeded random
streams of spawns, releases, acquires, span changes and accesses, and
must report the same races in the same order and end with the same
clocks.
"""

import random
from collections import deque
from types import SimpleNamespace

import pytest

from repro.check.race import RaceChecker
from repro.check.report import Finding
from repro.check.vclock import VClock
from repro.node import Node
from repro.obs.spans import Observer
from repro.options import RunOptions
from repro.sim.engine import SimProcess
from repro.sim.syncobj import Atomic, Flag

from conftest import small_topo


class _RefAccess:
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


class _DequeChecker(RaceChecker):
    """The checker with the deque scan and the always-join release."""

    def on_release(self, proc, obj) -> None:
        vc = self._clock(proc)
        sc = self._sync.get(id(obj))
        if sc is None:
            sc = VClock()
            self._sync[id(obj)] = sc
        sc.join(vc)
        vc.tick(proc.pid)

    def _access(self, proc, view, nbytes, write, label, in_kernel) -> None:
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
                _RefAccess(proc.pid, proc.name, proc.core, write, lo, hi,
                           vc.get(proc.pid), self.engine.now, label, span),
                buf,
            )
        hist.append(
            _RefAccess(proc.pid, proc.name, proc.core, write, lo, hi,
                       vc.get(proc.pid), self.engine.now, label, span))

    def _span_of(self, proc):
        obs = self.engine.obs
        if not obs.enabled:
            return None
        return obs.current_span(proc.pid)

    def _report_race(self, old, new, buf) -> None:
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


def _recording(cls):
    """``cls`` plus a log of every race it checks, before deduplication."""

    class Recording(cls):
        def __init__(self, engine, **kw):
            super().__init__(engine, **kw)
            self.races = []

        def _report_race(self, old, new, buf) -> None:
            self.races.append((buf.id, old.name, old.write, old.lo, old.hi,
                               old.epoch, old.time, old.label, new.name,
                               new.write, new.lo, new.hi, new.epoch))
            super()._report_race(old, new, buf)

    return Recording


_Ref = _recording(_DequeChecker)
_New = _recording(RaceChecker)


def _ranges(rng, size):
    """Chunk-aligned, nested, whole-buffer, arbitrary and empty ranges."""
    out = [(0, size)]
    for chunk in (64, 256, 1000):
        out += [(o, min(chunk, size - o)) for o in range(0, size, chunk)]
    for _ in range(12):
        lo = rng.randrange(size)
        out.append((lo, rng.randint(0, size - lo)))
    for lo, n in list(out[:8]):
        if n > 2:
            inner = rng.randrange(lo, lo + n - 1)
            out.append((inner, rng.randint(1, lo + n - inner)))
    return out


def _pair():
    """A reference and a new checker over one stand-in engine, whose
    observer opens spans on ``engine._current_proc``."""
    engine = SimpleNamespace(now=0.0, _current_proc=None)
    engine.obs = Observer(engine, record_copies=False)
    return (_Ref(engine, max_findings=100_000),
            _New(engine, max_findings=100_000))


def _stream(seed, n_events, sync_rate):
    """Drive a reference and a new checker with one random stream; returns
    both. ``sync_rate`` is the share of events that release or acquire,
    from mostly racy (low) to mostly ordered (high)."""
    rng = random.Random(seed)
    node = Node(small_topo(), options=RunOptions(data_movement=False))
    both = ref, new = _pair()
    engine = ref.engine

    n_cores = rng.randint(2, 4)
    spaces = [node.new_address_space(rank=c, core=c) for c in range(n_cores)]
    bufs = []
    for i in range(rng.randint(1, 3)):
        bufs.append(spaces[0].alloc(f"pub{i}", rng.choice((512, 4096, 5000)),
                                    shared=True))
    private = spaces[0].alloc("priv", 2048)
    bufs.append(private)
    ranges = {b.id: _ranges(rng, b.size) for b in bufs}
    syncs = [Flag(f"f{i}", owner_core=rng.randrange(n_cores))
             for i in range(rng.randint(1, 4))]
    syncs += [Atomic(f"a{i}", home_core=0) for i in range(rng.randint(0, 2))]

    procs = []

    def spawn(parent, core):
        proc = SimProcess(f"p{len(procs)}", core, None)
        procs.append(proc)
        for chk in both:
            chk.on_spawn(parent, proc)

    for _ in range(rng.randint(2, 6)):
        spawn(None, rng.randrange(n_cores))
    open_spans = {}
    for _ in range(n_events):
        engine.now += rng.choice((0.0, 1e-7, 1e-6))
        proc = rng.choice(procs)
        r = rng.random()
        if r < sync_rate:
            obj = rng.choice(syncs)
            kind = rng.randrange(3)
            for chk in both:
                if kind == 0 and isinstance(obj, Flag):
                    chk.on_release(proc, obj)
                elif kind == 0:
                    chk.on_rmw(proc, obj)
                else:
                    chk.on_acquire(proc, obj)
        elif r < sync_rate + 0.02 and len(procs) < 12:
            spawn(proc, proc.core)
        elif r < sync_rate + 0.06:
            stack = open_spans.setdefault(proc.pid, [])
            if stack and rng.random() < 0.5:
                stack.pop().__exit__(None, None, None)
            else:
                engine._current_proc = proc
                ctx = engine.obs.span(f"phase{rng.randrange(3)}",
                                      **({"rank": proc.core}
                                         if rng.random() < 0.7 else {}))
                ctx.__enter__()
                stack.append(ctx)
        elif r < sync_rate + 0.08:
            attach = rng.random() < 0.5
            for chk in both:
                if attach:
                    chk.on_attach(proc, private)
                else:
                    chk.on_detach(proc, private)
        else:
            buf = rng.choice(bufs)
            lo, n = rng.choice(ranges[buf.id])
            nbytes = n + rng.choice((0, 0, 0, 7, -n))
            write = rng.random() < 0.4
            label = rng.choice(("copy", "reduce"))
            view = buf.view(lo, n)
            in_kernel = rng.random() < 0.05
            for chk in both:
                chk._access(proc, view, nbytes, write, label, in_kernel)
    return ref, new


@pytest.mark.parametrize("seed,sync_rate", [
    (1, 0.05), (2, 0.15), (3, 0.3), (4, 0.5), (5, 0.1), (6, 0.4)])
def test_indexed_history_reports_what_the_deque_scan_did(seed, sync_rate):
    ref, new = _stream(seed, 8000, sync_rate)
    assert new.races == ref.races
    assert new.findings == ref.findings
    assert new._clocks == ref._clocks
    assert new._sync == ref._sync
    # The stream means it: a full window on some buffer, ordered and
    # unordered pairs alike, and more race pairs than findings.
    assert max(len(h) for h in ref._hist.values()) == 512
    assert ref.races and len(ref.findings) < len(ref.races)


def test_ordered_stream_is_clean_in_both():
    ref, new = _stream(7, 3000, 0.9)
    assert new.races == ref.races
    assert new.findings == ref.findings


def test_window_evicts_the_oldest_access_first():
    """After 512 younger accesses to another range, a racy write to the
    first range is no longer seen, in both checkers."""
    ref, new = _pair()
    node = Node(small_topo(), options=RunOptions(data_movement=False))
    space = node.new_address_space(rank=0, core=0)
    buf = space.alloc("win", 8192, shared=True)
    a = SimProcess("a", 0, None)
    b = SimProcess("b", 1, None)
    for chk in (ref, new):
        chk.on_spawn(None, a)
        chk.on_spawn(None, b)
        chk._access(a, buf.view(0, 64), 64, True, "copy", False)
        for i in range(511):
            chk._access(a, buf.view(4096, 64), 64, False, "copy", False)
        chk._access(b, buf.view(0, 64), 64, True, "copy", False)
        chk._access(a, buf.view(4096, 64), 64, False, "copy", False)
        chk._access(b, buf.view(32, 64), 64, True, "copy", False)
    assert new.races == ref.races
    assert [r[1:5] for r in ref.races] == [("a", True, 0, 64)]


def test_new_history_keeps_no_empty_groups():
    _ref, new = _stream(9, 3000, 0.2)
    for hist in new._hist.values():
        assert len(hist.order) <= 512
        for index in (hist.writes, hist.reads):
            total = 0
            for n, (starts, groups) in index.items():
                assert starts == sorted(set(starts))
                assert len(starts) == len(groups) and all(groups)
                for lo, group in zip(starts, groups):
                    assert all(acc.lo == lo and acc.hi - acc.lo == n
                               for acc in group)
                    seqs = [acc.seq for acc in group]
                    assert seqs == sorted(seqs)
                total += sum(map(len, groups))
            assert total == sum(1 for acc in hist.order
                                if acc.write == (index is hist.writes))


def test_sole_releaser_copies_and_a_second_one_joins():
    engine = SimpleNamespace(now=0.0, obs=None)
    chk = RaceChecker(engine)
    a = SimProcess("a", 0, None)
    b = SimProcess("b", 1, None)
    flag = Flag("one", owner_core=0)
    for p in (a, b):
        chk.on_spawn(None, p)
    chk.on_release(a, flag)
    first = chk._sync[id(flag)]
    assert first.c == {a.pid: 1}
    chk.on_release(a, flag)
    assert chk._sync[id(flag)] is not first
    assert chk._sync[id(flag)].c == {a.pid: 2}
    assert chk._clocks[a.pid].c == {a.pid: 3}
    chk.on_release(b, flag)
    chk.on_release(a, flag)
    assert chk._sync[id(flag)].c == {a.pid: 3, b.pid: 1}
    assert chk._releaser[id(flag)] == -1
