"""The perf work's equivalence guarantees (docs/performance.md).

Every optimization in the hot-path pass claims to be invisible to
simulated time. These tests check each claim in isolation — batching,
the handlers' instrumentation hooks, smsc step emission, the bounded
topology memo — so a future regression names its culprit instead of
just failing a golden snapshot. (Source selection has its differential
test in tests/test_property_fuzz.py.)
"""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.node import Node
from repro.options import RunOptions
from repro.sim import primitives as P
from repro.sim.syncobj import Atomic, Flag, wait_group

from conftest import small_topo


def _hex(x: float) -> str:
    return float.hex(x)


# -- CopyBatch: batched steps == the same steps yielded one at a time -------

# Every instrumentation hook the engine's handlers carry; none may move
# simulated time.
HOOKS = [
    pytest.param({"record_copies": True}, id="record_copies"),
    pytest.param({"observe": "spans"}, id="observe-spans"),
    pytest.param({"observe": "full"}, id="observe-full"),
    pytest.param({"check": "race"}, id="check-race"),
    pytest.param({"check": "deadlock"}, id="check-deadlock"),
]


def _batch_world(options=None):
    node = Node(small_topo(), options=options)
    a_sp = node.new_address_space(0, 0)
    b_sp = node.new_address_space(1, 1)
    src = a_sp.alloc("src", 64 * 1024)
    dst = b_sp.alloc("dst", 64 * 1024)
    acc = b_sp.alloc("acc", 64 * 1024)
    flag = Flag("t.avail", owner_core=1)
    steps = (
        P.Copy(src=src.whole(), dst=dst.whole()),
        P.Compute(3e-6),
        P.Reduce(srcs=(src.whole(), dst.whole()), dst=acc.whole(),
                 op=np.add, dtype=np.float32),
        P.SetFlag(flag, 7),
        P.Copy(src=acc.view(0, 4096), dst=dst.view(0, 4096)),
    )
    return node, steps, flag


def test_copybatch_bit_identical_to_unbatched():
    node_a, steps_a, flag_a = _batch_world()

    def unbatched():
        for step in steps_a:
            yield step
    node_a.engine.spawn(unbatched(), core=1)
    t_unbatched = node_a.engine.run()
    assert flag_a.value == 7

    node_b, steps_b, flag_b = _batch_world()

    def batched():
        yield P.CopyBatch(steps_b)
    node_b.engine.spawn(batched(), core=1)
    t_batched = node_b.engine.run()
    assert flag_b.value == 7

    assert _hex(t_batched) == _hex(t_unbatched)


@pytest.mark.parametrize("hooks", HOOKS)
def test_copybatch_prices_identically_with_hooks(hooks):
    """A batch's steps cross the same race, observe and record hooks as
    yielded steps; with any of them on, the simulated end time still
    matches the plain run exactly."""
    node_a, steps_a, _ = _batch_world()

    def batched_a():
        yield P.CopyBatch(steps_a)
    node_a.engine.spawn(batched_a(), core=1)
    t_plain = node_a.engine.run()

    node_b, steps_b, _ = _batch_world(RunOptions(**hooks))

    def batched_b():
        yield P.CopyBatch(steps_b)
    node_b.engine.spawn(batched_b(), core=1)
    t_hooked = node_b.engine.run()

    assert _hex(t_hooked) == _hex(t_plain)


def test_copybatch_rejects_waits():
    node = Node(small_topo())
    flag = Flag("t.f", owner_core=0)

    def prog():
        yield P.CopyBatch((P.WaitFlag(flag, 1),))
    node.engine.spawn(prog(), core=0)
    with pytest.raises(SimulationError):
        node.engine.run()


def test_copybatch_rejects_atomic_rmw():
    node = Node(small_topo())
    atom = Atomic("t.a", home_core=0)

    def prog():
        yield P.CopyBatch((P.AtomicRMW(atom, 1),))
    node.engine.spawn(prog(), core=0)
    with pytest.raises(SimulationError):
        node.engine.run()


def test_empty_copybatch_is_a_noop():
    node = Node(small_topo())

    def prog():
        yield P.CopyBatch(())
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
    node = Node(get_system("epyc-1p"))
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


# -- smsc step emission -----------------------------------------------------

def test_reduce_from_steps_matches_generator_path():
    """The batched Reduce emission prices and accounts exactly like the
    generator path it replaces."""
    from repro.shmem.smsc import SmscConfig, SmscEndpoint

    def build():
        node = Node(small_topo())
        owner = node.new_address_space(0, 0)
        peer = node.new_address_space(1, 2)
        src = owner.alloc("src", 64 * 1024)
        dst = peer.alloc("dst", 64 * 1024)
        ep = SmscEndpoint(node, 1, SmscConfig(mechanism="xpmem"))
        node.engine.spawn(node.xpmem.expose(src), core=0)
        node.engine.run()
        return node, ep, src, dst

    def drive(node, gen, core=2):
        node.engine.spawn(gen, core=core)
        t0 = node.engine.now
        node.engine.run()
        return node.engine.now - t0

    node_a, ep_a, src_a, dst_a = build()
    node_b, ep_b, src_b, dst_b = build()

    # Cold operands must decline (the attach generator has to run)...
    assert ep_b.reduce_from_steps([src_b.whole()], dst_b.whole(),
                                  op=np.add, dtype=np.float32) is None
    # ...so warm both worlds identically through the generator path.
    drive(node_a, ep_a.reduce_from([src_a.whole()], dst_a.whole(),
                                   op=np.add, dtype=np.float32))
    drive(node_b, ep_b.reduce_from([src_b.whole()], dst_b.whole(),
                                   op=np.add, dtype=np.float32))

    t_gen = drive(node_a, ep_a.reduce_from([src_a.whole()],
                                           dst_a.whole(), op=np.add,
                                           dtype=np.float32))

    steps = ep_b.reduce_from_steps([src_b.whole()], dst_b.whole(),
                                   op=np.add, dtype=np.float32)
    assert steps is not None

    def prog():
        yield P.CopyBatch(steps)
    t_steps = drive(node_b, prog())

    assert _hex(t_steps) == _hex(t_gen)
    # Accounting parity: both paths charged the same regcache traffic.
    assert (ep_b.regcache.hits, ep_b.regcache.misses) == \
        (ep_a.regcache.hits, ep_a.regcache.misses)


def test_reduce_from_steps_declines_unmapped_operands():
    from repro.shmem.smsc import SmscConfig, SmscEndpoint
    node = Node(small_topo())
    owner = node.new_address_space(0, 0)
    peer = node.new_address_space(1, 2)
    src = owner.alloc("src", 64 * 1024)   # never exposed/attached
    dst = peer.alloc("dst", 64 * 1024)
    ep = SmscEndpoint(node, 1, SmscConfig(mechanism="xpmem"))
    hits, misses = ep.regcache.hits, ep.regcache.misses
    assert ep.reduce_from_steps([src.whole()], dst.whole(),
                                op=np.add, dtype=np.float32) is None
    # Declining has no side effects on the cache accounting.
    assert (ep.regcache.hits, ep.regcache.misses) == (hits, misses)


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
