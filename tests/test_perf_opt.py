"""The perf work's equivalence guarantees (docs/performance.md).

Every optimization in the hot-path pass claims to be invisible to
simulated time. These tests check each claim in isolation — the event
engine's chunk-run expansion, the handlers' instrumentation hooks, the
bounded topology memo — so a future regression names its culprit
instead of just failing a golden snapshot. (Source selection has its
differential test in tests/test_property_fuzz.py.)
"""

import pytest

from repro.mpi import FLOAT, SUM
from repro.node import Node
from repro.options import RunOptions
from repro.sim import primitives as P
from repro.sim.syncobj import Atomic, Flag, wait_group

from conftest import small_topo


def _hex(x: float) -> str:
    return float.hex(x)


# Every instrumentation hook the engine's handlers carry; none may move
# simulated time.
HOOKS = [
    pytest.param({"observe": "spans"}, id="observe-spans"),
    pytest.param({"observe": "full"}, id="observe-full"),
    pytest.param({"check": "race"}, id="check-race"),
    pytest.param({"check": "deadlock"}, id="check-deadlock"),
]


# -- ChunkRun: the event engine runs it as its exact per-chunk events -------

# Each case hand-builds a ChunkRun on a consumer (core 1) whose waits are
# fed by producers publishing one chunk per ``pace`` seconds (cores 0 and
# 2); a neighbour on the consumer's core keeps it busy, so lookups and
# bodies queue behind other work.
RUN_CASES = {
    "copy-odd-tail": dict(size=50_000, chunk=16384),
    "reduce-lookups": dict(size=50_000, chunk=16384, body="reduce",
                           lookups=3),
    "multi-flag-set": dict(size=50_000, chunk=16384, sets="group"),
    "blocks-mid-run": dict(size=50_000, chunk=16384, pace=40e-6,
                           clamped=True, body="reduce", lookups=2),
    "first-ready": dict(size=50_000, chunk=16384, first_ready=True,
                        body="reduce", lookups=2),
    "one-chunk": dict(size=8_000, chunk=16384, first_ready=True),
    "quantum-chunks": dict(size=200_000, chunk=96 * 1024,
                           lookup_cost=60e-6),
    # No body: the chunks are their waits, lookups and sets.
    "bodiless": dict(size=50_000, chunk=16384, body="none", lookups=2),
    # Waits alone, on a producer of the last two chunks only: the chunks
    # before them take no time and follow one another in a loop.
    "wait-only": dict(size=64 * 2000, chunk=64, body="none", sets="none",
                      lookups=0, tail=2),
    # The last step of the run is a lookup, whose completion resumes the
    # generator.
    "ends-in-lookup": dict(size=50_000, chunk=16384, body="none",
                           sets="none", lookups=2),
}


def _run_world(options, case: dict):
    """The case's ChunkRun plus the producers and neighbour around it."""
    node = Node(small_topo(), options=options)
    size, chunk = case["size"], case["chunk"]
    spaces = [node.new_address_space(r, r) for r in range(3)]
    src_a = spaces[0].alloc("src.a", size)
    src_b = spaces[2].alloc("src.b", size)
    dst = spaces[1].alloc("dst", size)
    avail = [Flag("t.avail.0", owner_core=0), Flag("t.avail.2", owner_core=2)]
    outs = tuple(Flag(f"t.out.{i}", owner_core=1) for i in range(3))
    pace = case.get("pace", 2e-6)

    # A producer of the tail covers the last ``tail`` chunks alone.
    first = size - case["tail"] * chunk if "tail" in case else 0

    def producer(flag):
        for done in range(first + chunk, size + chunk, chunk):
            yield P.Compute(pace)
            yield P.SetFlag(flag, 100 + min(done, size))

    def neighbour():
        for _ in range(12):
            yield P.Compute(3e-6)
            yield P.Compute(1e-7)

    node.engine.spawn(producer(avail[0]), core=0)
    node.engine.spawn(producer(avail[1]), core=2)
    node.engine.spawn(neighbour(), core=1)
    waits = [(avail[0], 100 + first, first, size)]
    if case.get("body") == "reduce":
        # The second producer covers only [chunk, size): its clamped
        # spec does not gate the first chunk.
        lo = chunk if case.get("clamped") else 0
        waits.append((avail[1], 100 + lo, lo, size))
    sets = [((outs[0],), 7)]
    if case.get("sets") == "group":
        sets.append((outs, 9))
    elif case.get("sets") == "none":
        sets = []
    body = {"copy": {"copy": (src_a.whole(), dst.whole())},
            "reduce": {"reduce": ((src_a.whole(), src_b.whole(),
                                   dst.whole()), dst.whole(), SUM, FLOAT)},
            "none": {}}[case.get("body", "copy")]
    run = P.ChunkRun(start=0, stop=size, chunk=chunk, waits=tuple(waits),
                     sets=tuple(sets), lookups=case.get("lookups", 1),
                     lookup_cost=case.get("lookup_cost", 1e-7),
                     first_ready=case.get("first_ready", False), **body)
    return node, run


def _chunk_steps(run: P.ChunkRun, o: int):
    """The per-chunk primitives the chunk at ``o`` stands for, as
    (waits and lookups, body and sets)."""
    e = min(o + run.chunk, run.stop)
    n = e - o
    sync = [P.WaitFlag(flag, base + min(e, hi) - lo)
            for flag, base, lo, hi in run.waits if min(e, hi) > lo]
    sync += [P.Compute(run.lookup_cost)] * run.lookups
    if run.copy is not None:
        src, dst = run.copy
        rest = [P.Copy(src=src.sub(o, n), dst=dst.sub(o, n))]
    elif run.reduce is not None:
        srcs, dst, op, dtype = run.reduce
        rest = [P.Reduce(srcs=tuple(s.sub(o, n) for s in srcs),
                         dst=dst.sub(o, n), op=op, dtype=dtype)]
    else:
        rest = []
    for flags, base in run.sets:
        value = base + (e - run.start)
        rest.append(P.SetFlag(flags[0], value) if len(flags) == 1
                    else P.SetFlagGroup(flags, value))
    return sync, rest


def _drive(options, case: dict, lowered: bool):
    node, run = _run_world(options, case)

    def per_chunk():
        for o in range(run.start, run.stop, run.chunk):
            sync, rest = _chunk_steps(run, o)
            for prim in sync + rest:
                yield prim

    def as_run():
        if run.first_ready:
            for prim in _chunk_steps(run, run.start)[0]:
                yield prim
        yield run
        yield P.Compute(1e-6)

    def reference():
        yield from per_chunk()
        yield P.Compute(1e-6)

    node.engine.spawn(as_run() if lowered else reference(), core=1)
    end = node.engine.run()
    waits = [(w.target, w.start, w.end, w.woke_at) for w in node.obs.waits]
    return end, node.engine.events_processed, waits


@pytest.mark.parametrize("hooks", [pytest.param({}, id="plain")] + HOOKS)
@pytest.mark.parametrize("case", RUN_CASES)
def test_chunk_run_is_its_per_chunk_events(case, hooks):
    """End time, event count and (observed) wait records of a ChunkRun
    equal those of its per-chunk primitives yielded one at a time, and
    no hook moves them."""
    options = RunOptions(**hooks)
    t_run, ev_run, waits_run = _drive(options, RUN_CASES[case], True)
    t_ref, ev_ref, waits_ref = _drive(options, RUN_CASES[case], False)
    assert (_hex(t_run), ev_run) == (_hex(t_ref), ev_ref)
    assert waits_run == waits_ref
    t_plain, _, _ = _drive(RunOptions(), RUN_CASES[case], True)
    assert _hex(t_run) == _hex(t_plain)


def test_blocking_case_really_blocks_mid_run():
    _end, _events, waits = _drive(RunOptions(observe="spans"),
                                  RUN_CASES["blocks-mid-run"], True)
    assert len(waits) > 1


def test_empty_chunk_run_is_a_noop():
    node = Node(small_topo())

    def prog():
        yield P.ChunkRun(start=64, stop=64, chunk=16)
        yield P.Compute(1e-6)
    node.engine.spawn(prog(), core=0)
    assert node.engine.run() == pytest.approx(1e-6)


@pytest.mark.parametrize("engine", ["event", "array"])
def test_chunk_run_without_a_chunk_size_is_empty(engine):
    """A run whose chunk size is not positive has no chunks, on both
    engines."""
    node = Node(small_topo(), options=RunOptions(engine=engine))

    def prog():
        yield P.ChunkRun(start=0, stop=64, chunk=0)
        yield P.Compute(1e-6)
    node.engine.spawn(prog(), core=0)
    assert node.engine.run() == pytest.approx(1e-6)


# -- instrumentation hooks leave prices unchanged ---------------------------

def _collective_latency(**kwargs):
    from repro.bench.components import make_component
    from repro.bench.osu import run_collective
    return run_collective(
        "bcast", "epyc-1p", 16, lambda: make_component("xhc-tree"),
        65536, warmup=1, iters=2, **kwargs)


@pytest.mark.parametrize("hooks", HOOKS)
def test_hooked_run_prices_identically(hooks):
    plain = _collective_latency()
    hooked = _collective_latency(options=RunOptions(**hooks))
    assert _hex(hooked) == _hex(plain)


# -- wait interning ---------------------------------------------------------

def test_wait_group_drops_rank_segments():
    assert wait_group("xhc.avail.3") == "xhc.avail"
    assert wait_group("xhc.ready.3.l2") == "xhc.ready.l2"
    assert wait_group("barrier") == "barrier"
    assert wait_group("7.3") == "7.3"  # all-numeric names kept as-is


def test_flag_and_atomic_wait_keys_are_interned_families():
    assert Flag("xhc.avail.5", owner_core=0).wait_key == "flag xhc.avail"
    assert Atomic("sm.ctr.2", home_core=0).wait_key == "atomic sm.ctr"


def test_wait_record_group_matches_wait_key_family():
    from repro.obs.spans import WaitRecord
    rec = WaitRecord(track=1, target="xhc.ready.3.l2", kind="flag",
                     start=0.0)
    assert rec.group == "xhc.ready.l2"


def test_runstats_wait_breakdown_merged_by_family():
    from repro.bench.components import make_component
    from repro.bench.osu import run_collective
    from repro.sim.stats import collect_stats
    from repro.topology import get_system
    node = Node(get_system("epyc-1p"), options=RunOptions(observe="spans"))
    run_collective("bcast", "epyc-1p", 16,
                   lambda: make_component("xhc-tree"),
                   65536, warmup=0, iters=1, node=node)
    stats = collect_stats(node)
    assert stats.wait_breakdown, "expected blocked time in a 16-rank bcast"
    for key in stats.wait_breakdown:
        kind, _, family = key.partition(" ")
        assert kind in ("flag", "atomic")
        # Interned: no purely-numeric rank segment survives.
        assert not any(seg.isdigit() for seg in family.split("."))
    rendered = stats.render()
    assert "blocked time by wait family" in rendered


# -- bounded topology memo --------------------------------------------------

def test_topo_memo_eviction_keeps_results_identical(monkeypatch):
    from repro.exec import worker

    monkeypatch.setattr(worker, "_TOPO_MEMO_CAP", 2)
    monkeypatch.setattr(worker, "_TOPO_MEMO", {})

    def latency():
        from repro.bench.components import make_component
        from repro.bench.osu import run_collective
        return run_collective(
            "bcast", "epyc-1p", 8, lambda: make_component("xhc-tree"),
            4096, warmup=1, iters=2,
            node=Node(worker.get_topology("epyc-1p")))

    before = latency()
    first = worker.get_topology("epyc-1p")
    # Churn past the cap so epyc-1p is evicted...
    worker.get_topology("epyc-2p")
    worker.get_topology("arm-n1")
    assert "epyc-1p" not in worker._TOPO_MEMO
    assert len(worker._TOPO_MEMO) <= 2
    # ...then a rebuilt topology yields a bit-identical measurement.
    rebuilt = worker.get_topology("epyc-1p")
    assert rebuilt is not first
    assert _hex(latency()) == _hex(before)


def test_topo_memo_hit_refreshes_recency(monkeypatch):
    from repro.exec import worker

    monkeypatch.setattr(worker, "_TOPO_MEMO_CAP", 2)
    monkeypatch.setattr(worker, "_TOPO_MEMO", {})
    a = worker.get_topology("epyc-1p")
    worker.get_topology("epyc-2p")
    assert worker.get_topology("epyc-1p") is a  # touch: now most recent
    worker.get_topology("arm-n1")               # evicts epyc-2p, not 1p
    assert "epyc-1p" in worker._TOPO_MEMO
    assert "epyc-2p" not in worker._TOPO_MEMO


# -- perf harness + CLI -----------------------------------------------------

def test_engine_micro_reports_sane_numbers():
    from repro.perf.harness import run_engine_micro
    rec = run_engine_micro(rounds=50, nprocs=4, repeats=1)
    assert rec["events"] > 0
    assert rec["events_per_sec"] > 0
    assert rec["cpu_s"] > 0


def test_emit_record_schema(tmp_path):
    from repro.exec.cache import SIM_VERSION
    from repro.perf.harness import emit_record, run_engine_micro
    engine = run_engine_micro(rounds=50, nprocs=4, repeats=1)
    macro = {"points": [], "wall_s": 1.0, "cpu_s": 1.0,
             "system": "epyc-1p", "nranks": 32, "iters": 1}
    rec = emit_record(engine, macro,
                      baseline_wall_s=2.0, baseline_cpu_s=3.0, note="t")
    assert rec["bench_schema"] == 1
    assert rec["kind"] == "perf"
    assert rec["sim_version"] == SIM_VERSION
    assert rec["engine_micro"] is engine
    assert rec["baseline"]["speedup_wall"] == pytest.approx(2.0)
    assert rec["baseline"]["speedup_cpu"] == pytest.approx(3.0)
    assert rec["note"] == "t"


def test_cli_perf_quick_emits_bench(tmp_path, capsys):
    import json
    from repro.cli import main
    out = tmp_path / "BENCH_perf.json"
    report = tmp_path / "report.json"
    code = main(["perf", "--quick", "--repeats", "1",
                 "--emit-bench", str(out), "--json", str(report)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "events/s" in stdout
    doc = json.loads(out.read_text())
    assert doc["kind"] == "perf"
    assert doc["macro"]["points"]
    rep = json.loads(report.read_text())
    assert rep["engine_micro"]["events_per_sec"] > 0
