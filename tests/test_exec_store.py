"""The sharded result store: layout, atomicity, eviction, concurrency."""

import json
import os
import subprocess
import sys
import threading
import warnings

import pytest

import repro
from repro.exec import RunRequest, SIM_VERSION, ResultCache, cache_key
from repro.exec.cache import store_layout
from repro.exec.store import ShardedStore, _atomic_write_json


def _entry(latency=1e-6, tag=0):
    payload = RunRequest("epyc-1p", "bcast", 64 + tag, 8).payload()
    return cache_key(payload), {"latency_s": latency, "request": payload,
                                "sim_version": SIM_VERSION}


def _fill(store, n, version=SIM_VERSION):
    digests = []
    for i in range(n):
        digest, entry = _entry(tag=i)
        store.write(version, digest, entry)
        digests.append(digest)
    return digests


# -- layout ------------------------------------------------------------------


def test_entries_shard_by_digest_prefix(tmp_path):
    store = ShardedStore(tmp_path)
    digest, entry = _entry()
    path = store.write(SIM_VERSION, digest, entry)
    assert path == os.path.join(
        str(tmp_path), "objects", f"v{SIM_VERSION}", digest[:2],
        digest + ".json")
    assert os.path.isfile(path)
    assert store.read(SIM_VERSION, digest) == entry


def test_generations_are_separate_subtrees(tmp_path):
    store = ShardedStore(tmp_path)
    digest, entry = _entry()
    store.write(SIM_VERSION, digest, entry)
    store.write(SIM_VERSION + 1, digest, entry)
    assert store.count(SIM_VERSION) == 1
    assert store.count(SIM_VERSION + 1) == 1
    assert store.totals() == (2, store.totals()[1])


def test_store_layout_resolves_legacy_json_paths(tmp_path):
    root = str(tmp_path / "cache")
    assert store_layout(root) == root
    # A *.json path names the same store as its directory.
    assert store_layout(str(tmp_path / "cache" / "sim_cache.json")) == root
    assert store_layout("cache.json") == "."


def test_result_cache_json_path_and_directory_share_one_store(tmp_path):
    """``--cache dir/cache.json`` and ``--cache dir`` open the same
    store; a flat-format file left at the *.json path is neither read
    nor removed."""
    flat = tmp_path / "cache.json"
    flat.write_text(json.dumps({"sim_version": SIM_VERSION,
                                "entries": dict([_entry(tag=9)])}))
    payload = RunRequest("epyc-1p", "bcast", 64, 8).payload()
    by_file = ResultCache(flat)
    assert len(by_file) == 0
    by_file.put(payload, 2e-6)
    by_file.save()
    by_dir = ResultCache(tmp_path)
    assert len(by_dir) == 1
    assert by_dir.get(payload) == 2e-6
    assert json.loads(flat.read_text())["entries"]


# -- atomic writes -----------------------------------------------------------


def test_writes_are_atomic_no_tmp_litter(tmp_path):
    store = ShardedStore(tmp_path)
    _fill(store, 8)
    leftovers = [name for _dir, _sub, names in os.walk(tmp_path)
                 for name in names if name.endswith(".tmp")]
    assert leftovers == []


def test_failed_write_leaves_no_partial_entry(tmp_path, monkeypatch):
    # If the dump itself explodes mid-write, neither the entry nor its
    # tmp sibling may survive.
    class Boom(RuntimeError):
        pass

    real_dumps = json.dumps

    def exploding_dumps(payload, **kwargs):
        raise Boom()

    monkeypatch.setattr(json, "dumps", exploding_dumps)
    with pytest.raises(Boom):
        _atomic_write_json(str(tmp_path / "x" / "entry.json"), {"a": 1})
    monkeypatch.setattr(json, "dumps", real_dumps)
    assert list(os.listdir(tmp_path / "x")) == []


def test_two_writers_of_one_path_do_not_share_a_temp_file(tmp_path,
                                                         monkeypatch):
    # A second writer (another thread) writes the same path between the
    # first writer's write and its replace; both must complete.
    path = str(tmp_path / "x" / "entry.json")
    real_replace = os.replace
    temps, errors = [], []

    def second_writer():
        try:
            _atomic_write_json(path, {"writer": 2})
        except BaseException as exc:
            errors.append(exc)

    def interleaving_replace(src, dst):
        temps.append(src)
        if len(temps) == 1:
            thread = threading.Thread(target=second_writer)
            thread.start()
            thread.join(timeout=30)
            assert not thread.is_alive()
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", interleaving_replace)
    _atomic_write_json(path, {"writer": 1})
    monkeypatch.setattr(os, "replace", real_replace)
    assert errors == []
    assert len(temps) == 2 and all(t.endswith(".tmp") for t in temps)
    with open(path) as fh:
        assert json.load(fh) == {"writer": 1}
    assert os.listdir(tmp_path / "x") == ["entry.json"]


# -- corruption quarantine ---------------------------------------------------


def test_corrupt_entry_is_a_miss_and_quarantined(tmp_path):
    store = ShardedStore(tmp_path)
    digest, entry = _entry()
    path = store.write(SIM_VERSION, digest, entry)
    with open(path, "w") as fh:
        fh.write('{"latency_s": 1e-')  # truncated mid-token
    with pytest.warns(RuntimeWarning, match="quarantined"):
        assert store.read(SIM_VERSION, digest) is None
    assert not os.path.exists(path)
    quarantined = os.listdir(store.quarantine_root)
    assert quarantined == [digest + ".json.corrupt"]
    # And the store keeps working: a rewrite serves again.
    store.write(SIM_VERSION, digest, entry)
    assert store.read(SIM_VERSION, digest) == entry


def test_entry_without_latency_is_quarantined(tmp_path):
    store = ShardedStore(tmp_path)
    digest, _entry_ = _entry()
    path = store.entry_path(SIM_VERSION, digest)
    _atomic_write_json(path, {"not": "a result"})
    with pytest.warns(RuntimeWarning):
        assert store.read(SIM_VERSION, digest) is None
    assert not os.path.exists(path)


def test_quarantine_names_never_collide(tmp_path):
    store = ShardedStore(tmp_path)
    digest, entry = _entry()
    for _ in range(3):
        path = store.write(SIM_VERSION, digest, entry)
        with open(path, "w") as fh:
            fh.write("garbage")
        with pytest.warns(RuntimeWarning):
            store.read(SIM_VERSION, digest)
    assert sorted(os.listdir(store.quarantine_root)) == [
        digest + ".json.corrupt",
        digest + ".json.corrupt.1",
        digest + ".json.corrupt.2",
    ]


# -- eviction ----------------------------------------------------------------


def test_evict_by_entry_count_drops_oldest_first(tmp_path):
    store = ShardedStore(tmp_path, max_entries=3)
    digests = _fill(store, 5)
    # Deterministic recency: stamp strictly increasing mtimes.
    for i, digest in enumerate(digests):
        path = store.entry_path(SIM_VERSION, digest)
        os.utime(path, ns=(1_000_000 * i, 1_000_000 * i))
    with pytest.warns(RuntimeWarning, match="evicted"):
        assert store.evict() == 2
    survivors = store.digests(SIM_VERSION)
    assert survivors == set(digests[2:])


def test_evict_by_bytes(tmp_path):
    store = ShardedStore(tmp_path)
    digests = _fill(store, 4)
    for i, digest in enumerate(digests):
        path = store.entry_path(SIM_VERSION, digest)
        os.utime(path, ns=(1_000_000 * i, 1_000_000 * i))
    _count, size = store.totals()
    per_entry = size // 4
    store.max_bytes = per_entry * 2 + 1  # room for two entries only
    with pytest.warns(RuntimeWarning, match="evicted"):
        assert store.evict() == 2
    assert store.totals()[0] == 2
    assert store.digests(SIM_VERSION) == set(digests[2:])


def test_reads_refresh_lru_recency(tmp_path):
    store = ShardedStore(tmp_path, max_entries=1)
    digests = _fill(store, 2)
    for i, digest in enumerate(digests):
        path = store.entry_path(SIM_VERSION, digest)
        os.utime(path, ns=(1_000_000 * i, 1_000_000 * i))
    # Touch the *older* entry via a read: it becomes the survivor.
    assert store.read(SIM_VERSION, digests[0]) is not None
    with pytest.warns(RuntimeWarning, match="evicted"):
        store.evict()
    assert store.digests(SIM_VERSION) == {digests[0]}


def test_stale_generations_age_out_via_eviction(tmp_path):
    store = ShardedStore(tmp_path, max_entries=2)
    old = _fill(store, 2, version=SIM_VERSION - 1)
    for digest in old:
        path = store.entry_path(SIM_VERSION - 1, digest)
        os.utime(path, ns=(0, 0))
    new = _fill(store, 2)
    with pytest.warns(RuntimeWarning, match="evicted"):
        store.evict()
    assert store.count(SIM_VERSION - 1) == 0
    assert store.digests(SIM_VERSION) == set(new)


def test_unbounded_store_never_evicts(tmp_path):
    store = ShardedStore(tmp_path)
    _fill(store, 10)
    assert store.evict() == 0
    assert store.count(SIM_VERSION) == 10


# -- ledger ------------------------------------------------------------------


def test_ledger_totals_match_filesystem(tmp_path):
    store = ShardedStore(tmp_path)
    _fill(store, 5)
    ledger = store.save_ledger()
    count, size = store.totals()
    assert ledger["entries"] == count == 5
    assert ledger["bytes"] == size
    with open(store.ledger_path) as fh:
        on_disk = json.load(fh)
    assert on_disk == ledger


def test_ledger_counters_accumulate_across_instances(tmp_path):
    store = ShardedStore(tmp_path, max_entries=1)
    _fill(store, 3)
    with pytest.warns(RuntimeWarning, match="evicted"):
        store.evict()
    ledger = store.save_ledger()
    assert ledger["evictions"] == 2
    # A second instance folds its own evictions on top.
    again = ShardedStore(tmp_path, max_entries=0)
    with pytest.warns(RuntimeWarning, match="evicted"):
        again.evict()
    ledger = again.save_ledger()
    assert ledger["evictions"] == 3
    assert ledger["entries"] == 0


def test_unreadable_ledger_is_quarantined_not_fatal(tmp_path):
    store = ShardedStore(tmp_path)
    with open(store.ledger_path, "w") as fh:
        fh.write("{broken")
    with pytest.warns(RuntimeWarning):
        assert store.load_ledger() == {}
    assert store.save_ledger()["entries"] == 0


# -- cross-process consistency -----------------------------------------------

_WRITER = """
import sys
from repro.exec import RunRequest, SIM_VERSION
from repro.exec.cache import ResultCache

which, root = sys.argv[1], sys.argv[2]
cache = ResultCache(root)
base = 0 if which == "a" else 100
for i in range(5):
    payload = RunRequest("epyc-1p", "bcast", 1024 + base + i, 8).payload()
    cache.put(payload, 1e-6 * (i + 1))
cache.save()
print(len(cache))
"""


def _run_writer(which, root):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", _WRITER, which, str(root)],
                          env=env, capture_output=True, text=True)


def test_two_processes_writing_lose_no_entries(tmp_path):
    # Two separate interpreters write disjoint entry sets into one root
    # concurrently; the union must land intact and the ledger must
    # describe exactly the files on disk (no double-counted bytes).
    import threading
    results = {}

    def run(which):
        results[which] = _run_writer(which, tmp_path)

    threads = [threading.Thread(target=run, args=(w,)) for w in ("a", "b")]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for which, proc in results.items():
        assert proc.returncode == 0, proc.stderr

    store = ShardedStore(tmp_path)
    count, size = store.totals()
    assert count == 10
    real_size = sum(
        os.path.getsize(os.path.join(dirpath, name))
        for dirpath, _subdirs, names in os.walk(
            os.path.join(tmp_path, "objects"))
        for name in names)
    ledger = store.load_ledger()
    # Whichever save landed last described the actual files.
    assert ledger["bytes"] <= real_size
    assert ledger["entries"] <= count
    final = store.save_ledger()
    assert final["entries"] == 10
    assert final["bytes"] == real_size


def test_concurrent_eviction_converges_without_errors(tmp_path):
    # Pre-populate, then let two processes evict the same over-full
    # store; races on unlink are tolerated and the bound holds after.
    cache = ResultCache(tmp_path)
    for i in range(12):
        cache.put(RunRequest("epyc-1p", "bcast", 2048 + i, 8).payload(),
                  1e-6)
    cache.save()

    code = """
import sys
from repro.exec.store import ShardedStore
store = ShardedStore(sys.argv[1], max_entries=4)
store.evict()
store.save_ledger()
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    procs = [subprocess.Popen([sys.executable, "-c", code, str(tmp_path)],
                              env=env, stderr=subprocess.PIPE)
             for _ in range(2)]
    for proc in procs:
        _out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err.decode()
    store = ShardedStore(tmp_path)
    count, _size = store.totals()
    assert count == 4
    assert store.save_ledger()["entries"] == 4


# -- the ResultCache facade over the store -----------------------------------


def test_cache_len_covers_memory_and_disk(tmp_path):
    cache = ResultCache(tmp_path)
    payload = RunRequest("epyc-1p", "bcast", 64, 8).payload()
    cache.put(payload, 1e-6)
    assert len(cache) == 1          # dirty, not yet flushed
    cache.save()
    assert len(cache) == 1
    other = ResultCache(tmp_path)
    assert len(other) == 1          # visible to a fresh instance


def test_cache_eviction_bounds_apply_on_save(tmp_path):
    cache = ResultCache(tmp_path, max_entries=2)
    for i in range(5):
        cache.put(RunRequest("epyc-1p", "bcast", 64 + i, 8).payload(), 1e-6)
    with pytest.warns(RuntimeWarning, match="evicted"):
        cache.save()
    info = cache.store_info()
    assert info["entries"] == 2
    assert info["max_entries"] == 2


def test_cache_len_drops_evicted_entries(tmp_path):
    """``len()`` (and ``stats().entries``) count what the store holds
    plus unflushed puts, not every entry this process ever touched."""
    cache = ResultCache(tmp_path, max_entries=2)
    for i in range(5):
        cache.put(RunRequest("epyc-1p", "bcast", 64 + i, 8).payload(), 1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            cache.save()
        assert len(cache) == min(i + 1, 2)
    assert cache.stats().entries == 2
    cache.put(RunRequest("epyc-1p", "bcast", 4096, 8).payload(), 1e-6)
    assert len(cache) == 3          # two stored, one not yet flushed


def test_cache_len_counts_entries_another_process_wrote(tmp_path):
    cache = ResultCache(tmp_path)
    mine = RunRequest("epyc-1p", "bcast", 64, 8).payload()
    cache.put(mine, 1e-6)
    cache.save()                    # the digest set is scanned now
    theirs = RunRequest("epyc-1p", "bcast", 128, 8).payload()
    other = ResultCache(tmp_path)
    other.put(theirs, 2e-6)
    other.save()
    assert len(cache) == 1          # not seen yet
    assert cache.get(theirs) == pytest.approx(2e-6)
    assert len(cache) == 2


def test_store_info_shape(tmp_path):
    cache = ResultCache(tmp_path, max_bytes=1 << 20)
    cache.put(RunRequest("epyc-1p", "bcast", 64, 8).payload(), 1e-6)
    cache.save()
    info = cache.store_info()
    assert info["root"] == str(tmp_path)
    assert info["entries"] == 1
    assert info["bytes"] > 0
    assert info["current_version_entries"] == 1
    assert info["sim_version"] == SIM_VERSION
    assert ResultCache().store_info() is None


def test_reads_do_not_warn_on_healthy_store(tmp_path):
    cache = ResultCache(tmp_path)
    payload = RunRequest("epyc-1p", "bcast", 64, 8).payload()
    cache.put(payload, 1e-6)
    cache.save()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ResultCache(tmp_path).get(payload) == pytest.approx(1e-6)


# -- eviction/quarantine visibility (warnings + lifetime totals) --------------


def test_eviction_warns_with_counts_and_accumulates_totals(tmp_path):
    store = ShardedStore(tmp_path, max_entries=3)
    _fill(store, 5)
    assert store.evictions_total == 0
    with pytest.warns(RuntimeWarning,
                      match=r"evicted 2 result-cache entries .* \(2 total"):
        assert store.evict() == 2
    assert store.evictions_total == 2
    # A second round keeps counting from where the first left off.
    _fill(store, 5)
    with pytest.warns(RuntimeWarning, match=r"\(4 total this process\)"):
        store.evict()
    assert store.evictions_total == 4
    # The non-total ledger counter resets on save; the total does not.
    store.save_ledger()
    assert store.evictions_total == 4


def test_noop_eviction_does_not_warn(tmp_path):
    store = ShardedStore(tmp_path, max_entries=100)
    _fill(store, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert store.evict() == 0
    assert store.evictions_total == 0


def test_quarantine_total_counts_lifetime(tmp_path):
    store = ShardedStore(tmp_path)
    digests = _fill(store, 2)
    for digest in digests:
        with open(store.entry_path(SIM_VERSION, digest), "w") as fh:
            fh.write("{corrupt")
    with pytest.warns(RuntimeWarning, match=r"\(1 total this process\)"):
        assert store.read(SIM_VERSION, digests[0]) is None
    with pytest.warns(RuntimeWarning, match=r"\(2 total this process\)"):
        assert store.read(SIM_VERSION, digests[1]) is None
    assert store.quarantined_total == 2


def test_result_cache_stats_snapshot(tmp_path):
    from repro.exec import CacheStats

    cache = ResultCache(tmp_path, max_entries=2)
    payloads = [RunRequest("epyc-1p", "bcast", 64 + i, 8).payload()
                for i in range(4)]
    assert cache.get(payloads[0]) is None          # miss
    for p in payloads:
        cache.put(p, 1e-6)
    assert cache.get(payloads[3]) == pytest.approx(1e-6)   # hit
    with pytest.warns(RuntimeWarning):
        cache.save()                                # evicts down to 2
    stats = cache.stats()
    assert isinstance(stats, CacheStats)
    assert stats.hits == 1
    assert stats.misses == 1
    assert stats.evictions == 2
    assert stats.quarantined == 0
    assert stats.hit_rate == pytest.approx(0.5)
    d = stats.as_dict()
    assert d["hits"] == 1 and d["hit_rate"] == pytest.approx(0.5)


# -- ResultCache.save(): the ledger is rewritten only when something changed --


def _saved_cache(tmp_path, n=2):
    cache = ResultCache(tmp_path)
    payloads = [RunRequest("epyc-1p", "bcast", 64 + i, 8).payload()
                for i in range(n)]
    for p in payloads:
        cache.put(p, 1e-6)
    cache.save()
    return cache, payloads


def test_clean_save_leaves_ledger_untouched_and_skips_scan(tmp_path,
                                                           monkeypatch):
    cache, payloads = _saved_cache(tmp_path)
    ledger_path = cache.store.ledger_path
    with open(ledger_path, "rb") as fh:
        before = fh.read()
    mtime_before = os.stat(ledger_path).st_mtime_ns
    # An all-hit chunk: every lookup served, nothing new to flush.
    assert all(cache.get(p) == pytest.approx(1e-6) for p in payloads)

    def no_scan(self):
        raise AssertionError("clean save walked the store")

    monkeypatch.setattr(ShardedStore, "scan", no_scan)
    cache.save()
    cache.save()
    with open(ledger_path, "rb") as fh:
        assert fh.read() == before
    assert os.stat(ledger_path).st_mtime_ns == mtime_before


def test_clean_save_on_a_bounded_store_skips_eviction_scan(tmp_path,
                                                           monkeypatch):
    """Eviction runs only when a save wrote an entry: an all-hit chunk on
    a bounded store must not scan and stat every entry."""
    cache = ResultCache(tmp_path, max_entries=100)
    payloads = [RunRequest("epyc-1p", "bcast", 64 + i, 8).payload()
                for i in range(5)]
    for p in payloads:
        cache.put(p, 1e-6)
    cache.save()
    assert all(cache.get(p) == pytest.approx(1e-6) for p in payloads)
    scans = _count_calls(monkeypatch, ShardedStore, "scan")
    cache.save()
    cache.save()
    assert scans == []
    # A save that writes still evicts down to the bound.
    cache.store.max_entries = 5
    cache.put(RunRequest("epyc-1p", "bcast", 4096, 8).payload(), 1e-6)
    with pytest.warns(RuntimeWarning, match="evicted 1"):
        cache.save()
    assert cache.store_info()["entries"] == 5


def test_dirty_save_rewrites_derived_totals(tmp_path):
    cache, _payloads = _saved_cache(tmp_path, n=2)
    assert cache.store.load_ledger()["entries"] == 2
    cache.put(RunRequest("epyc-1p", "bcast", 4096, 8).payload(), 2e-6)
    cache.save()
    ledger = cache.store.load_ledger()
    count, size = cache.store.totals()
    assert ledger["entries"] == count == 3
    assert ledger["bytes"] == size


def test_save_after_quarantine_folds_in_the_count(tmp_path):
    _saved_cache(tmp_path, n=2)
    cache = ResultCache(tmp_path)
    (digest, *_rest) = sorted(cache.store.digests(SIM_VERSION))
    with open(cache.store.entry_path(SIM_VERSION, digest), "w") as fh:
        fh.write("{corrupt")
    payload = next(
        p for p in (RunRequest("epyc-1p", "bcast", 64 + i, 8).payload()
                    for i in range(2))
        if cache_key(p) == digest)
    with pytest.warns(RuntimeWarning, match="quarantined"):
        assert cache.get(payload) is None
    cache.save()                    # nothing dirty, but the store changed
    ledger = cache.store.load_ledger()
    assert ledger["quarantined"] == 1
    assert ledger["entries"] == 1
    assert cache.store.quarantined == 0     # folded, so a re-save is clean


def test_memory_only_cache_stats_are_zeroed():
    from repro.exec import CacheStats

    cache = ResultCache()
    stats = cache.stats()
    assert stats == CacheStats(hits=0, misses=0, entries=0,
                               evictions=0, quarantined=0)
    assert stats.hit_rate == 0.0


# -- bookkeeping cost does not grow with the store ----------------------------


def _count_calls(monkeypatch, obj, name):
    calls = []
    real = getattr(obj, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(obj, name, counted)
    return calls


def _no_scan(self):
    raise AssertionError("save walked the store")


def _ledger_matches_files(store):
    ledger = store.load_ledger()
    assert (ledger["entries"], ledger["bytes"]) == store.totals()


def test_writes_scan_shards_once_per_generation(tmp_path, monkeypatch):
    _fill(ShardedStore(tmp_path), 40)
    store = ShardedStore(tmp_path)
    scans = _count_calls(monkeypatch, ShardedStore, "_scan_digests")
    listings = _count_calls(monkeypatch, os, "scandir")
    for i in range(40, 60):
        digest, entry = _entry(tag=i)
        store.write(SIM_VERSION, digest, entry)
    assert len(listings) == 1
    assert store.count(SIM_VERSION) == 60
    assert len(scans) == 1


def test_dirty_save_after_own_writes_does_not_walk_the_store(tmp_path,
                                                           monkeypatch):
    cache, _payloads = _saved_cache(tmp_path, n=3)
    monkeypatch.setattr(ShardedStore, "scan", _no_scan)
    for i in range(4):
        cache.put(RunRequest("epyc-1p", "bcast", 8192 + i, 8).payload(),
                  2e-6)
        cache.save()
    monkeypatch.undo()
    _ledger_matches_files(cache.store)
    assert cache.store.load_ledger()["entries"] == 7


def test_ledger_saved_by_another_instance_forces_a_rescan(tmp_path,
                                                          monkeypatch):
    mine = ShardedStore(tmp_path)
    _fill(mine, 3)
    mine.save_ledger()
    other = ShardedStore(tmp_path)
    digest, entry = _entry(tag=100)
    other.write(SIM_VERSION, digest, entry)
    other.save_ledger()
    digest, entry = _entry(tag=101)
    mine.write(SIM_VERSION, digest, entry)
    scans = _count_calls(monkeypatch, ShardedStore, "scan")
    ledger = mine.save_ledger()
    assert len(scans) == 1
    assert ledger["entries"] == 5
    _ledger_matches_files(mine)


def test_save_after_eviction_rescans(tmp_path, monkeypatch):
    store = ShardedStore(tmp_path, max_entries=3)
    digests = _fill(store, 3)
    store.save_ledger()
    for i, digest in enumerate(digests):
        path = store.entry_path(SIM_VERSION, digest)
        os.utime(path, ns=(1_000_000 * i, 1_000_000 * i))
    _fill(store, 5)             # two new entries over the bound
    with pytest.warns(RuntimeWarning, match="evicted 2"):
        assert store.evict() == 2
    scans = _count_calls(monkeypatch, ShardedStore, "scan")
    ledger = store.save_ledger()
    assert len(scans) == 1
    assert ledger["entries"] == 3
    _ledger_matches_files(store)


def test_save_after_quarantine_rescans(tmp_path, monkeypatch):
    store = ShardedStore(tmp_path)
    digests = _fill(store, 3)
    store.save_ledger()
    with open(store.entry_path(SIM_VERSION, digests[0]), "w") as fh:
        fh.write("{corrupt")
    with pytest.warns(RuntimeWarning, match="quarantined"):
        assert store.read(SIM_VERSION, digests[0]) is None
    scans = _count_calls(monkeypatch, ShardedStore, "scan")
    ledger = store.save_ledger()
    assert len(scans) == 1
    assert ledger["entries"] == 2
    assert ledger["quarantined"] == 1
    _ledger_matches_files(store)


def test_dirty_save_under_the_bound_does_not_walk_the_store(tmp_path,
                                                           monkeypatch):
    """A bounded store's eviction check reads the running ledger totals:
    a save that writes, but stays under the bound, makes no scan."""
    cache = ResultCache(tmp_path, max_entries=100)
    for i in range(3):
        cache.put(RunRequest("epyc-1p", "bcast", 64 + i, 8).payload(), 1e-6)
    cache.save()
    scans = _count_calls(monkeypatch, ShardedStore, "scan")
    for i in range(4):
        cache.put(RunRequest("epyc-1p", "bcast", 8192 + i, 8).payload(),
                  2e-6)
        cache.save()
    assert scans == []
    monkeypatch.undo()
    _ledger_matches_files(cache.store)
    assert cache.store.load_ledger()["entries"] == 7


def _aged_store(root, n):
    """A bounded store of ``n`` entries with strictly increasing mtimes
    and a saved ledger."""
    store = ShardedStore(root, max_entries=n)
    digests = _fill(store, n)
    for i, digest in enumerate(digests):
        path = store.entry_path(SIM_VERSION, digest)
        os.utime(path, ns=(1_000_000 * i, 1_000_000 * i))
    store.save_ledger()
    return store, digests


def test_crossing_the_bound_evicts_what_a_scan_would(tmp_path,
                                                     monkeypatch):
    """Past the bound, the running totals defer to a scan: the victims
    are the ones a fresh instance, which knows no totals, evicts."""
    mine, digests = _aged_store(tmp_path / "mine", 4)
    fresh, same = _aged_store(tmp_path / "fresh", 4)
    assert same == digests
    fresh = ShardedStore(tmp_path / "fresh", max_entries=4)
    for store in (mine, fresh):
        for tag in (50, 51):
            digest, entry = _entry(tag=tag)
            store.write(SIM_VERSION, digest, entry)
            path = store.entry_path(SIM_VERSION, digest)
            os.utime(path, ns=(10**9 + tag, 10**9 + tag))
    scans = _count_calls(monkeypatch, ShardedStore, "scan")
    with pytest.warns(RuntimeWarning, match="evicted 2"):
        assert mine.evict() == 2
    with pytest.warns(RuntimeWarning, match="evicted 2"):
        assert fresh.evict() == 2
    assert len(scans) == 2
    assert mine.digests(SIM_VERSION) == fresh.digests(SIM_VERSION)
    assert set(digests[:2]).isdisjoint(mine.digests(SIM_VERSION))


def test_eviction_after_another_instances_save_rescans(tmp_path,
                                                       monkeypatch):
    """Running totals are trusted only while ``ledger.json`` is the file
    this instance wrote: another writer's entries may fill the store."""
    mine, _digests = _aged_store(tmp_path, 4)
    mine.max_entries = 5
    other = ShardedStore(tmp_path)
    for tag in (60, 61):
        digest, entry = _entry(tag=tag)
        other.write(SIM_VERSION, digest, entry)
    other.save_ledger()
    digest, entry = _entry(tag=62)
    mine.write(SIM_VERSION, digest, entry)
    scans = _count_calls(monkeypatch, ShardedStore, "scan")
    with pytest.warns(RuntimeWarning, match="evicted 2"):
        assert mine.evict() == 2
    assert len(scans) == 1
    assert mine.totals()[0] == 5


def test_rewriting_an_existing_digest_keeps_the_ledger_exact(tmp_path):
    store = ShardedStore(tmp_path)
    digests = _fill(store, 3)
    store.save_ledger()
    _digest, longer = _entry(latency=1.25e-6, tag=0)
    longer["note"] = "x" * 100
    store.write(SIM_VERSION, digests[0], longer)
    assert store.save_ledger()["entries"] == 3
    _ledger_matches_files(store)


def test_write_recreates_a_shard_directory_removed_since(tmp_path):
    store = ShardedStore(tmp_path)
    digest, entry = _entry()
    path = store.write(SIM_VERSION, digest, entry)
    os.unlink(path)
    os.rmdir(os.path.dirname(path))
    store.write(SIM_VERSION, digest, entry)
    assert store.read(SIM_VERSION, digest) == entry


def test_memory_hits_refresh_lru_recency(tmp_path):
    cache = ResultCache(tmp_path, max_entries=2)
    hot, cold, new = (RunRequest("epyc-1p", "bcast", 64 + i, 8).payload()
                      for i in range(3))
    for payload in (hot, cold):
        cache.put(payload, 1e-6)
    cache.save()
    for payload, stamp in ((hot, 1), (cold, 2)):
        path = cache.store.entry_path(SIM_VERSION, cache_key(payload))
        os.utime(path, ns=(stamp * 1_000_000, stamp * 1_000_000))
    for _ in range(5):
        assert cache.get(hot) == pytest.approx(1e-6)   # served from memory
    cache.put(new, 1e-6)
    with pytest.warns(RuntimeWarning, match="evicted 1"):
        cache.save()
    assert cache.store.digests(SIM_VERSION) == {cache_key(hot),
                                                cache_key(new)}


def test_memory_hit_on_an_unflushed_entry_is_harmless(tmp_path):
    cache = ResultCache(tmp_path)
    payload = RunRequest("epyc-1p", "bcast", 64, 8).payload()
    cache.put(payload, 1e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cache.get(payload) == pytest.approx(1e-6)
    assert not os.path.exists(
        cache.store.entry_path(SIM_VERSION, cache_key(payload)))
