"""The shared executor: batching, caching, pooling, budget, dedupe."""

import pytest

from repro.errors import ConfigError
from repro.exec import Executor, RunRequest, run_inline
from repro.exec.executor import Executor as _Executor
from repro.options import RunOptions
from repro.xhc import XhcConfig

SIZES = (64, 1024, 16384)


def _requests(sizes=SIZES, **kw):
    base = dict(system="epyc-1p", collective="bcast", nranks=8,
                component="xhc-tree", warmup=1, iters=2)
    base.update(kw)
    return [RunRequest(size=size, **base) for size in sizes]


def test_inline_matches_direct_run_collective():
    from repro.bench.osu import run_collective
    req = _requests(sizes=(4096,))[0]
    direct = run_collective(
        "bcast", "epyc-1p", 8, lambda: _make_xhc_tree(), 4096,
        warmup=1, iters=2, options=RunOptions(data_movement=False))
    with Executor(workers=0) as ex:
        via_exec = ex.run(req)
    assert via_exec.latency_s == direct


def _make_xhc_tree():
    from repro.bench.components import make_component
    return make_component("xhc-tree")


def test_parallel_results_identical_to_serial():
    reqs = _requests()
    with Executor(workers=0) as serial:
        expect = [r.latency_s for r in serial.run_many(reqs)]
    with Executor(workers=2) as parallel:
        got = [r.latency_s for r in parallel.run_many(reqs)]
    # Bit-identical, not approximately equal: the simulator is
    # deterministic and worker-side topology memoization must not be able
    # to perturb a result.
    assert got == expect


def test_warm_cache_performs_zero_simulations(tmp_path):
    path = tmp_path / "cache.json"
    reqs = _requests()
    with Executor(workers=0, cache=path) as cold:
        first = cold.run_many(reqs)
        assert cold.simulations == len(reqs)
    with Executor(workers=0, cache=path) as warm:
        second = warm.run_many(reqs)
        assert warm.simulations == 0
        assert warm.cache.hits == len(reqs)
    assert [r.latency_s for r in second] == [r.latency_s for r in first]
    assert all(r.cached for r in second)


def test_in_call_dedupe_simulates_once():
    req = _requests(sizes=(1024,))[0]
    with Executor(workers=0) as ex:
        results = ex.run_many([req, req, req])
    assert ex.simulations == 1
    assert [r.latency_s for r in results] == [results[0].latency_s] * 3
    assert [r.cached for r in results] == [False, True, True]


def test_a_duplicate_of_a_failed_request_carries_its_error(monkeypatch):
    # A run that fails (say, the drain-time deadlock check) has no
    # latency; its in-call duplicate must fail with it, not read as a hit.
    import repro.exec.executor as executor_module
    from repro.exec import RunResult

    error = {"type": "DeadlockError", "message": "cycle", "cycle": [0, 1]}
    monkeypatch.setattr(
        executor_module, "execute",
        lambda req: RunResult(request=req, latency_s=None, error=error))
    req = _requests(sizes=(1024,))[0]
    with Executor(workers=0) as ex:
        results = ex.run_many([req, req])
    assert ex.simulations == 1
    assert [(r.latency_s, r.cached, r.error) for r in results] \
        == [(None, False, error)] * 2


def test_budget_drops_excess_requests():
    reqs = _requests()
    with Executor(workers=0, budget=2) as ex:
        results = ex.run_many(reqs)
    assert ex.simulations == 2
    assert ex.budget_left == 0
    done = [r for r in results if r is not None]
    assert len(done) == 2
    # Request order is preserved: the dropped slot is the tail.
    assert results[-1] is None


def test_make_batches_groups_and_balances():
    reqs = _requests(sizes=(64, 1024, 16384, 262144)) \
        + _requests(sizes=(64, 1024), component="sm")
    todo = list(enumerate(reqs))
    batches = _Executor._make_batches(todo, nworkers=1)
    # 1 worker * 4 batches-per-worker cap, none empty, nothing lost.
    assert 1 <= len(batches) <= 4
    flat = sorted(i for batch in batches for i, _ in batch)
    assert flat == list(range(len(reqs)))
    # Single batch when only one slot is available.
    single = _Executor._make_batches(todo[:3], nworkers=0)
    assert len(single) == 1 and len(single[0]) == 3


def test_pingpong_requests_run():
    req = RunRequest("epyc-1p", "pingpong", 4096, 2, component="tuned",
                     mapping=(0, 4), warmup=1, iters=2)
    with Executor(workers=0) as ex:
        result = ex.run(req)
    assert result.latency_s > 0


def test_pingpong_requires_core_pair():
    with pytest.raises(ValueError):
        RunRequest("epyc-1p", "pingpong", 4096, 2, component="tuned")


def test_unknown_collective_rejected():
    with pytest.raises(ValueError):
        RunRequest("epyc-1p", "scan", 4096, 8)


def test_config_only_valid_for_xhc():
    with pytest.raises(ValueError):
        run_inline(RunRequest("epyc-1p", "bcast", 1024, 8, component="sm",
                              config={"hierarchy": "flat"}))


def test_explicit_config_request():
    req = RunRequest("epyc-1p", "bcast", 1024, 8, component="xhc",
                     config={"hierarchy": "flat",
                             "flag_layout": "multi-separate"})
    with Executor(workers=0) as ex:
        result = ex.run(req)
    assert result.latency_s > 0


def test_explicit_config_fields_reach_the_component():
    """Every field of a request's ``config`` dict lands in the
    component's XhcConfig; a JSON list chunk size becomes a tuple."""
    from repro.exec.worker import resolve_component
    comp = resolve_component("xhc", {"hierarchy": "flat",
                                     "cico_threshold": 0,
                                     "chunk_size": [4096],
                                     "flag_layout": "multi-shared",
                                     "reduce_min": 64, "cico_ring": 2})()
    assert comp.cfg == XhcConfig(hierarchy="flat", cico_threshold=0,
                                 chunk_size=(4096,),
                                 flag_layout="multi-shared",
                                 reduce_min=64, cico_ring=2)
    # Fields the dict leaves out keep the paper's defaults.
    assert resolve_component("xhc", {"hierarchy": "flat"})().cfg \
        == XhcConfig(hierarchy="flat")


@pytest.mark.parametrize("config", [{"chunk_size": -5},
                                    {"flag_layout": "diagonal"},
                                    {"cico_ring": 1}])
def test_explicit_config_is_validated(config):
    from repro.exec.worker import resolve_component
    with pytest.raises(ConfigError):
        resolve_component("xhc", config)


def test_instrumented_request_bypasses_cache_and_carries_findings():
    options = RunOptions(data_movement=False, observe="spans", check="full")
    req = RunRequest("epyc-1p", "bcast", 1024, 8, warmup=0, iters=1,
                     options=options)
    assert not req.cacheable
    with Executor(workers=0, cache=None) as ex:
        r1 = ex.run(req)
        r2 = ex.run(req)
    assert ex.simulations == 2          # never answered from cache
    assert not r1.cached and not r2.cached
    assert r1.findings == r2.findings   # (clean protocol: both empty)


def test_run_inline_attaches_live_node():
    req = RunRequest("epyc-1p", "bcast", 1024, 8, warmup=0, iters=1,
                     options=RunOptions(data_movement=False,
                                        observe="spans"))
    result = run_inline(req)
    assert result.node is not None
    assert result.node.obs.spans
    # strip() is what pool transport uses; it must drop the node only.
    stripped = result.strip()
    assert stripped.node is None
    assert stripped.latency_s == result.latency_s


def test_warm_pool_reuse_keeps_results_stable():
    reqs = _requests(sizes=(64, 1024))
    with Executor(workers=2) as ex:
        first = [r.latency_s for r in ex.run_many(reqs)]
        pool = ex._pool
        # Second sweep on different sizes reuses the same pool...
        ex.run_many(_requests(sizes=(4096,)))
        assert ex._pool is pool
        # ...and re-running the originals (cached) returns identical values.
        again = [r.latency_s for r in ex.run_many(reqs)]
    assert again == first


def test_evaluator_rides_the_executor(tmp_path):
    from repro.tune import Evaluator, ResultCache
    from repro.xhc.config import XhcConfig
    cache = ResultCache(tmp_path / "cache.json")
    ev = Evaluator(cache=cache, workers=0)
    configs = [XhcConfig(), XhcConfig(hierarchy="flat")]
    scores = ev.evaluate("epyc-1p", "bcast", 1024, 8, configs,
                         iters=dict(warmup=1, iters=2))
    assert set(scores) == set(configs)
    assert ev.simulations == 2
    # Same evaluation again: all cache hits, zero new simulations.
    again = ev.evaluate("epyc-1p", "bcast", 1024, 8, configs,
                        iters=dict(warmup=1, iters=2))
    assert again == scores
    assert ev.simulations == 2
    ev.close()


def test_lookup_answers_store_hits_and_leaves_the_rest():
    # The store pass run_many starts with, and the one the serve daemon
    # calls at submit: hits in request order, None for misses and for
    # instrumented requests, which are never cached.
    warm = _requests(sizes=(64, 1024))
    observed = RunRequest("epyc-1p", "bcast", 64, 8, warmup=1, iters=2,
                          options=RunOptions(data_movement=False,
                                             observe="spans"))
    cold = _requests(sizes=(4096,))[0]
    with Executor(workers=0) as ex:
        direct = ex.run_many(warm)
        before = (ex.cache.hits, ex.cache.misses)
        found = ex.lookup([warm[1], cold, observed, warm[0]],
                          count_misses=False)
        assert (ex.cache.hits, ex.cache.misses) == (before[0] + 2,
                                                     before[1])
        assert ex.simulations == 2
        counted = ex.lookup([cold])
    assert [r is None for r in found] == [False, True, True, False]
    assert found[0].cached and found[0].latency_s == direct[1].latency_s
    assert found[3].request is warm[0]
    assert found[3].latency_s == direct[0].latency_s
    assert counted == [None]
    assert ex.cache.misses == before[1] + 1
