"""The promoted result cache: key discipline and the tune shim."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.exec import RunRequest, SIM_VERSION, ResultCache, cache_key
from repro.exec.cache import default_cache_path


def test_key_stable_across_dict_orderings():
    a = RunRequest("epyc-1p", "bcast", 1024, 32,
                   component="xhc", config={"hierarchy": "numa",
                                            "chunk_size": 16384})
    b = RunRequest("epyc-1p", "bcast", 1024, 32,
                   component="xhc", config={"chunk_size": 16384,
                                            "hierarchy": "numa"})
    assert a.key() == b.key()


def test_key_stable_across_process_boundaries():
    # A fresh interpreter (different PYTHONHASHSEED, different dict
    # insertion history) must derive the identical digest — the persistent
    # cache is shared across runs and machines.
    req = RunRequest("epyc-1p", "bcast", 1024, 32,
                     component="xhc", config={"b": 2, "a": 1})
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = ("from repro.exec import RunRequest\n"
            "print(RunRequest('epyc-1p', 'bcast', 1024, 32,\n"
            "      component='xhc', config={'a': 1, 'b': 2}).key())")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "12345"}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == req.key()


def test_key_includes_sim_version(monkeypatch):
    req = RunRequest("epyc-1p", "bcast", 1024, 32)
    before = req.key()
    import repro.exec.cache as cache_mod
    monkeypatch.setattr(cache_mod, "SIM_VERSION", SIM_VERSION + 1)
    assert req.key() != before


def test_sim_version_bump_misses_cleanly(tmp_path, monkeypatch):
    path = tmp_path / "cache.json"
    cache = ResultCache(path)
    cache.put(RunRequest("epyc-1p", "bcast", 1024, 32).payload(), 2e-6)
    cache.save()
    assert len(ResultCache(path)) == 1

    import repro.exec.cache as cache_mod
    monkeypatch.setattr(cache_mod, "SIM_VERSION", SIM_VERSION + 1)
    stale = ResultCache(path)
    assert len(stale) == 0
    assert stale.get(RunRequest("epyc-1p", "bcast", 1024, 32).payload()) \
        is None


def test_options_do_not_affect_the_key():
    from repro.options import RunOptions
    plain = RunRequest("epyc-1p", "bcast", 1024, 32)
    instrumented = RunRequest("epyc-1p", "bcast", 1024, 32,
                              options=RunOptions(data_movement=True,
                                                 observe="spans"))
    # Instrumentation never changes simulated time, so the payloads (and
    # keys) match; the instrumented request is simply not cacheable.
    assert plain.payload() == instrumented.payload()
    assert plain.cacheable and not instrumented.cacheable


def test_tune_cache_shim_is_the_exec_cache():
    import repro.exec.cache as exec_cache
    import repro.tune.cache as tune_cache
    for name in tune_cache.__all__:
        with pytest.warns(DeprecationWarning, match="repro.exec.cache"):
            assert getattr(tune_cache, name) is getattr(exec_cache, name)
    with pytest.raises(AttributeError):
        tune_cache.no_such_name
    # And the package-level re-exports agree, without a warning.
    from repro.tune import ResultCache as tune_rc
    assert tune_rc is exec_cache.ResultCache


def test_default_cache_path_shape():
    # The default is the store *root* directory now (sharded layout).
    assert default_cache_path().endswith(os.path.join("results", "cache"))


def test_payload_is_json_safe():
    from repro.shmem.smsc import SmscConfig
    req = RunRequest("epyc-2p", "pingpong", 65536, 2,
                     component="tuned", mapping=(0, 8),
                     smsc=SmscConfig(mechanism="cma"))
    round_tripped = json.loads(json.dumps(req.payload()))
    assert cache_key(round_tripped) == req.key()


@pytest.mark.parametrize("engine", ["event", "array"])
def test_from_payload_inverts_payload(engine):
    from repro.options import RunOptions
    from repro.shmem.smsc import SmscConfig
    plain = RunRequest("epyc-1p", "bcast", 1024, 16,
                       options=RunOptions(data_movement=False, engine=engine))
    rich = RunRequest("epyc-2p", "pingpong", 65536, 2, component="xhc",
                      config={"hierarchy": "numa"}, mapping=(0, 8),
                      smsc=SmscConfig(mechanism="cma"),
                      options=RunOptions(data_movement=False, engine=engine))
    for req in (plain, rich):
        wire = json.loads(json.dumps(req.payload()))
        assert RunRequest.from_payload(wire) == req


def test_from_payload_takes_an_explicit_options_dict():
    from repro.options import RunOptions
    options = RunOptions(data_movement=False, observe="spans")
    req = RunRequest("epyc-1p", "bcast", 64, 8, options=options)
    wire = {**req.payload(), "options": {"data_movement": False,
                                         "observe": "spans"}}
    assert RunRequest.from_payload(wire) == req
    # The payload's engine overrides the dict's.
    wire["engine"] = "array"
    assert RunRequest.from_payload(wire).options \
        == options.with_(engine="array")


def test_requests_share_the_default_options():
    # RunOptions is frozen: every latency-only request, built directly
    # or from the wire, holds the same instance rather than a copy.
    a = RunRequest("epyc-1p", "bcast", 64, 8)
    b = RunRequest("epyc-1p", "bcast", 4096, 8)
    assert a.options is b.options
    assert a.options.data_movement is False
    assert RunRequest.from_payload(a.payload()).options is a.options


# -- corruption hardening (sharded store, via the cache API) -----------------


def test_corrupt_entry_is_a_miss_with_warning_not_a_crash(tmp_path):
    import pytest

    payload = RunRequest("epyc-1p", "bcast", 1024, 32).payload()
    cache = ResultCache(tmp_path)
    cache.put(payload, 2e-6)
    cache.save()
    # Truncate the on-disk entry mid-token (a killed writer pre-dating
    # atomic replace, a bad disk, a bad rsync).
    entry_path = cache.store.entry_path(SIM_VERSION, cache_key(payload))
    with open(entry_path, "w") as fh:
        fh.write('{"latency_s": 2e')

    fresh = ResultCache(tmp_path)
    with pytest.warns(RuntimeWarning, match="quarantined"):
        assert fresh.get(payload) is None          # a miss, not a crash
    assert fresh.misses == 1
    # The bad file moved to quarantine and is never parsed again.
    assert os.listdir(fresh.store.quarantine_root)
    assert not os.path.exists(entry_path)
    # The slot is reusable: a re-run repopulates and serves normally.
    fresh.put(payload, 2e-6)
    fresh.save()
    assert ResultCache(tmp_path).get(payload) == 2e-6


def test_save_is_atomic_under_interruption(tmp_path, monkeypatch):
    # Kill the process (simulated) between the tmp write and the replace:
    # the store must contain either the old state or the new, never a
    # half-written entry.
    payload = RunRequest("epyc-1p", "bcast", 1024, 32).payload()
    cache = ResultCache(tmp_path)
    cache.put(payload, 2e-6)

    real_replace = os.replace
    calls = {"n": 0}

    def dying_replace(src, dst):
        calls["n"] += 1
        raise KeyboardInterrupt("simulated kill mid-save")

    monkeypatch.setattr(os, "replace", dying_replace)
    try:
        cache.save()
    except KeyboardInterrupt:
        pass
    monkeypatch.setattr(os, "replace", real_replace)
    assert calls["n"] == 1
    # Nothing landed, nothing is torn: a fresh cache simply misses.
    fresh = ResultCache(tmp_path)
    assert fresh.get(payload) is None
    leftovers = [name for _d, _s, names in os.walk(tmp_path)
                 for name in names if name.endswith(".tmp")]
    assert leftovers == []


# -- sharing one cache between threads ----------------------------------------


def test_threads_share_one_cache_and_every_get_counts_once(tmp_path):
    # The serve daemon's event loop answers store hits at submit while
    # its worker thread looks up and records a chunk's simulations, both
    # on one ResultCache. More threads than cores and a short switch
    # interval make a lost update likely if the cache were not locked.
    import sys
    import threading

    cache = ResultCache(tmp_path)
    nthreads, gets, failures = 3, 10_000, []

    def work(base):
        try:
            for i in range(gets):
                point = base + i % 200
                if cache.get({"point": point}) is None:
                    cache.put({"point": point}, 1e-6 * point)
                if i % 100 == 0:              # the status op's reads
                    cache.stats()
                    len(cache)
        except Exception as exc:      # reported by the main thread
            failures.append(exc)

    threads = [threading.Thread(target=work, args=(100 * n,))
               for n in range(nthreads)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert cache.hits + cache.misses == nthreads * gets
    cache.save()
    assert len(cache) == cache.stats().entries == 400
    assert ResultCache(tmp_path).get({"point": 350}) == pytest.approx(350e-6)


def test_an_uncounted_miss_leaves_the_miss_count_alone():
    cache = ResultCache()
    payload = RunRequest("epyc-1p", "bcast", 1024, 32).payload()
    assert cache.get(payload, count_miss=False) is None
    assert (cache.hits, cache.misses) == (0, 0)
    cache.put(payload, 2e-6)
    assert cache.get(payload, count_miss=False) == 2e-6
    assert (cache.hits, cache.misses) == (1, 0)
