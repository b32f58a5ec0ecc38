"""Content-addressed result cache: hit/miss accounting + persistence.

The cache lives in ``repro.exec.cache`` now; this suite imports it through
the deprecated ``repro.tune.cache`` shim on purpose, so a regression in
the shim fails loudly here — and the import must warn once per name,
pointing at ``repro.exec.cache``.
"""

import pytest

with pytest.warns(DeprecationWarning, match="repro.exec.cache") as _caught:
    from repro.tune.cache import SIM_VERSION, ResultCache, cache_key
_SHIM_WARNINGS = [str(w.message) for w in _caught]


def test_shim_import_warns_once_per_name():
    assert len(_SHIM_WARNINGS) == 3
    for name, message in zip(("SIM_VERSION", "ResultCache", "cache_key"),
                             _SHIM_WARNINGS):
        assert message.startswith(f"repro.tune.cache.{name} is deprecated")


def payload(**kw):
    base = dict(system="epyc-1p", collective="bcast", size=1024, nranks=32,
                mapping="core", warmup=1, iters=3,
                config={"hierarchy": "numa"})
    base.update(kw)
    return base


def test_key_is_content_addressed():
    assert cache_key(payload()) == cache_key(payload())
    # Any field change changes the digest.
    for change in (dict(size=2048), dict(nranks=16), dict(iters=4),
                   dict(config={"hierarchy": "flat"})):
        assert cache_key(payload(**change)) != cache_key(payload())


def test_hit_miss_accounting():
    cache = ResultCache()
    assert cache.get(payload()) is None
    assert (cache.hits, cache.misses) == (0, 1)
    cache.put(payload(), 1.5e-6)
    assert cache.get(payload()) == 1.5e-6
    assert (cache.hits, cache.misses) == (1, 1)
    assert cache.hit_rate == 0.5


def test_persistence_round_trip(tmp_path):
    path = tmp_path / "sub" / "cache.json"
    cache = ResultCache(path)
    cache.put(payload(), 2e-6)
    cache.put(payload(size=4096), 3e-6)
    cache.save()

    warm = ResultCache(path)
    assert len(warm) == 2
    assert warm.get(payload()) == 2e-6
    assert warm.get(payload(size=4096)) == 3e-6
    assert warm.misses == 0


def test_sim_version_mismatch_discards(tmp_path, monkeypatch):
    path = tmp_path / "cache.json"
    cache = ResultCache(path)
    cache.put(payload(), 2e-6)
    cache.save()

    # The behavior lives in repro.exec.cache (the shim only re-exports),
    # so the version check must be patched at its home module.
    import repro.exec.cache as cache_mod
    monkeypatch.setattr(cache_mod, "SIM_VERSION", SIM_VERSION + 1)
    stale = ResultCache(path)
    assert len(stale) == 0  # old entries must not be served


def test_unpersisted_cache_save_is_noop():
    ResultCache().save()  # no path -> silently does nothing
