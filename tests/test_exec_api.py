"""The unified run API surface: RunOptions, deprecations, __all__."""

import warnings

import pytest

import repro
from repro import Node, RunOptions
from repro.exec import Executor, get_executor, using_executor
from repro.options import DEFAULT_OPTIONS, resolve_options


def _topo():
    from repro.topology import build_symmetric
    return build_symmetric("mini", 2, 2, 4, 2)


def test_options_equivalent_to_legacy_kwargs():
    topo = _topo()
    new = Node(topo, options=RunOptions(data_movement=False,
                                        observe="spans", check="race"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        old = Node(topo, data_movement=False, observe="spans", check="race")
    assert new.options == old.options
    assert new.data_movement is old.data_movement is False
    assert new.engine.obs is not None and old.engine.obs is not None


def test_legacy_kwargs_warn_exactly_once_per_call():
    topo = _topo()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        Node(topo, data_movement=False, observe="spans")
    deprecations = [w for w in caught
                    if issubclass(w.category, DeprecationWarning)]
    assert len(deprecations) == 1
    message = str(deprecations[0].message)
    # One warning names every legacy kwarg used, so the fix is one edit.
    assert "data_movement" in message and "observe" in message
    assert "options=RunOptions" in message


def test_options_plus_legacy_kwargs_is_an_error():
    with pytest.raises(TypeError):
        Node(_topo(), options=RunOptions(), data_movement=False)


def _copy_spans(node):
    """Run one 64 KiB copy on ``node`` and return its observer's copy
    spans."""
    from repro.sim import primitives as P
    src = node.new_address_space(0, 0).alloc("src", 1 << 16)
    dst = node.new_address_space(1, 4).alloc("dst", 1 << 16)

    def prog():
        yield P.Copy(src=src.whole(), dst=dst.whole())
    node.engine.spawn(prog(), core=4)
    node.engine.run()
    return [s for s in node.obs.spans if s.cat == "copy"]


def _deprecations(caught):
    return [w for w in caught if issubclass(w.category, DeprecationWarning)]


def test_record_copies_option_is_a_deprecated_observe_full_alias():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        opts = RunOptions(data_movement=False, record_copies=True)
    (warning,) = _deprecations(caught)
    assert 'observe="full"' in str(warning.message)
    assert warning.filename == __file__
    assert opts == RunOptions(data_movement=False, observe="full")
    assert opts.instrumented and not opts.record_copies
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        node = Node(_topo(), options=opts)
        opts.with_(check="race")
    assert not _deprecations(caught)   # normalized: no second warning
    assert _copy_spans(node)


def test_legacy_record_copies_keyword_warns_once_and_observes_copies():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        node = Node(_topo(), data_movement=False, record_copies=True)
    (warning,) = _deprecations(caught)
    assert "record_copies" in str(warning.message)
    assert node.options.observe == "full"
    assert _copy_spans(node)


def test_resolve_options_passthrough():
    opts = RunOptions(observe="spans")
    assert resolve_options(opts) is opts
    assert resolve_options(None) is DEFAULT_OPTIONS


def test_run_options_with():
    base = RunOptions(data_movement=False)
    varied = base.with_(check="full")
    assert varied.check == "full" and not varied.data_movement
    assert base.check is None          # frozen: original untouched
    assert not base.instrumented and varied.instrumented


def test_node_default_options_unchanged():
    node = Node(_topo())
    assert node.options == DEFAULT_OPTIONS
    assert node.data_movement is True


def test_ambient_executor_scoping():
    default = get_executor()
    assert default.workers == 0
    scoped = Executor(workers=0)
    with using_executor(scoped) as active:
        assert active is scoped
        assert get_executor() is scoped
    assert get_executor() is not scoped
    scoped.close()


def test_public_surface_exports():
    for name in ("Node", "RunOptions", "World", "Xhc", "XhcConfig",
                 "Executor", "ResultCache", "RunRequest", "RunResult",
                 "run", "run_inline", "run_many", "using_executor",
                 "get_system", "build_symmetric",
                 "bench", "check", "exec", "obs", "tune"):
        assert name in repro.__all__, name
        assert getattr(repro, name) is not None


def test_sweeps_pick_up_the_ambient_executor(tmp_path):
    # An osu sweep deep inside a figure driver must hit the scoped
    # executor's cache without any parameter threading.
    from repro.bench.osu import osu_bcast
    with Executor(workers=0, cache=tmp_path / "c.json") as ex, \
            using_executor(ex):
        osu_bcast("epyc-1p", 8, "xhc-tree", sizes=(64, 1024), iters=2)
        assert ex.simulations == 2
        osu_bcast("epyc-1p", 8, "xhc-tree", sizes=(64, 1024), iters=2)
        assert ex.simulations == 2      # second sweep fully cached
        assert ex.cache.hits == 2


def test_legacy_callable_component_still_sweeps():
    # Factory callables cannot be addressed by the cache; the sweep falls
    # back to the inline path and still produces the same curve.
    from repro.bench.components import COMPONENTS, make_component
    from repro.bench.osu import osu_bcast
    by_name = osu_bcast("epyc-1p", 8, "xhc-tree", sizes=(1024,), iters=2)
    by_callable = osu_bcast("epyc-1p", 8, COMPONENTS["xhc-tree"],
                            sizes=(1024,), iters=2)
    assert by_name.latency == by_callable.latency
    assert callable(make_component)


def test_check_runner_reports_through_exec():
    from repro.check.runner import run_sanitized
    report = run_sanitized(system="epyc-1p", colls=("bcast",),
                           sizes=(1024,), nranks=8, iters=1)
    assert report.ok  # the shipped protocols are clean


def test_trace_runner_returns_live_node():
    from repro.obs.runner import run_traced
    node = run_traced("epyc-1p", "bcast", size=4096, nranks=8)
    assert node.obs.spans
    assert node.engine.now > 0
