"""TunedXhc: decision-table dispatch over per-size Xhc delegates."""

import pytest

from repro.mpi.colls import TunedXhc
from repro.tune.table import DecisionTable
from repro.xhc import XhcConfig

from conftest import (assert_allreduce_correct, assert_bcast_correct,
                      run_allreduce, run_bcast)

SMALL_CFG = XhcConfig(hierarchy="flat", cico_threshold=4096)
LARGE_CFG = XhcConfig(hierarchy="l3+numa", chunk_size=16384)
REDUCE_CFG = XhcConfig(hierarchy="numa", chunk_size=16384)


def mini_table():
    table = DecisionTable()
    table.record("mini", "bcast", 1024, SMALL_CFG, 1e-6)
    table.record("mini", "bcast", 100_000, LARGE_CFG, 2e-6)
    table.record("mini", "allreduce", 100_000, REDUCE_CFG, 3e-6)
    return table


def make_tuned():
    return TunedXhc(table=mini_table())


@pytest.mark.parametrize("size", [64, 1024, 9000, 100_000])
def test_bcast_correct_across_buckets(size):
    out, _ = run_bcast(make_tuned, nranks=16, size=size, iters=2)
    assert_bcast_correct(out, 16, 101)


@pytest.mark.parametrize("size", [64, 9000, 100_000])
def test_allreduce_correct_across_buckets(size):
    out, _ = run_allreduce(make_tuned, nranks=16, size=size, iters=2)
    assert_allreduce_correct(out, 16, iters=2)


def test_dispatch_picks_size_specific_config():
    comp = make_tuned()
    out, _ = run_bcast(lambda: comp, nranks=16, size=100_000)
    assert comp.config_for("bcast", 64) == SMALL_CFG
    assert comp.config_for("bcast", 100_000) == LARGE_CFG
    # Untuned sizes fall back to the nearest tuned bucket, not the default.
    assert comp.config_for("bcast", 10_000_000) == LARGE_CFG


def test_multiple_delegates_share_one_communicator():
    """Small and large bcasts in one run bind two Xhc instances to the
    same communicator; each must keep a private ledger (a ledger kept on
    the communicator would be shared by both)."""
    comp = make_tuned()
    out, _ = run_bcast(lambda: comp, nranks=16, size=64, iters=2)
    assert_bcast_correct(out, 16, 101)
    out, _unused = None, None
    assert comp.config_for("bcast", 64) == SMALL_CFG
    out2, _ = run_bcast(make_tuned, nranks=16, size=100_000, iters=2)
    assert_bcast_correct(out2, 16, 101)


def test_empty_table_uses_fallback():
    fallback = XhcConfig(hierarchy="socket")
    comp = TunedXhc(table=DecisionTable(), fallback=fallback)
    assert comp.fallback == fallback
    out, _ = run_bcast(lambda: comp, nranks=8, size=1024)
    assert_bcast_correct(out, 8, 101)
    assert comp.config_for("bcast", 1024) == fallback


def test_alias_collectives_follow_swept_shapes():
    comp = make_tuned()
    run_bcast(lambda: comp, nranks=8, size=64)  # trigger setup
    assert comp.config_for("reduce", 100_000) == REDUCE_CFG
    assert comp.config_for("gather", 100_000) == LARGE_CFG
    assert comp.config_for("barrier", 1) == SMALL_CFG


def test_depth_mismatch_degrades_to_fallback():
    """A chunk tuple tuned at another rank count may not match this
    communicator's hierarchy depth; dispatch degrades to the fallback
    instead of raising mid-collective."""
    table = DecisionTable()
    # Valid at 16 ranks (3 levels) but not at 8 ranks, where the socket
    # level is degenerate and only 2 levels build.
    table.record("mini", "bcast", 1024,
                 XhcConfig(hierarchy="numa+socket", chunk_size=(1024,) * 3),
                 1e-6)
    comp = TunedXhc(table=table)
    out, _ = run_bcast(lambda: comp, nranks=8, size=1024, iters=2)
    assert_bcast_correct(out, 8, 101)
    assert comp._delegates[comp.config_for("bcast", 1024)].cfg \
        == comp.fallback
