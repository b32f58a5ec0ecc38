"""The shared start-of-op ledger (``OpLedger``) and its linear footprint.

xhc, ucc, sm and smhc derive every flag threshold from everyone's
cumulative counters at the start of the op. Each component keeps one
snapshot of them per op that some rank is still in, not one copy per
rank, so the integers a component holds grow linearly with the rank
count. The latencies this leaves unchanged are pinned by the goldens;
``tests/test_coll_schedules.py`` replays the update rules themselves.
"""

import pytest

from repro.bench.components import make_component
from repro.cluster import build_cluster
from repro.mpi import FLOAT, SUM, World
from repro.mpi.colls.base import OpLedger
from repro.options import RunOptions


def _bump(counters, q, amount):
    counters["a"][q] += amount
    counters["ops"] += 1


def test_first_leaver_builds_next_snapshot_and_last_leaver_frees():
    ledger = OpLedger(3, {"a": [0, 0, 0], "ops": 0})
    start = ledger.at(0)
    calls = []

    def rule(counters, q, amount):
        calls.append(q)
        _bump(counters, q, amount)

    ledger.advance(1, rule, 2, 5)
    assert ledger.live == 2
    assert ledger.at(1) == {"a": [0, 0, 5], "ops": 1}
    # Ranks still in op 0 read the untouched start-of-op values, and the
    # rule runs once however many ranks leave the op.
    assert ledger.at(0) is start and start == {"a": [0, 0, 0], "ops": 0}
    ledger.advance(0, rule, 2, 5)
    assert calls == [2]
    assert ledger.at(0) is ledger.at(1)
    ledger.advance(2, rule, 2, 5)
    assert ledger.live == 1
    assert ledger.at(2) == {"a": [0, 0, 5], "ops": 1}
    # A leaver's own snapshot stays readable after it advanced.
    assert start == {"a": [0, 0, 0], "ops": 0}


def test_snapshots_copy_nested_rows():
    ledger = OpLedger(2, {"ready": [[0, 0], [0, 0]], "ops": 0})
    first = ledger.at(0)

    def rule(counters):
        counters["ready"][1][0] += 7

    ledger.advance(0, rule)
    assert ledger.at(0)["ready"] == [[0, 0], [7, 0]]
    assert first["ready"] == [[0, 0], [0, 0]]


def test_ranks_several_ops_apart_each_read_their_own_op():
    ledger = OpLedger(2, {"a": [0, 0], "ops": 0})
    for _ in range(3):
        ledger.advance(0, _bump, 0, 1)
    assert ledger.live == 4
    assert ledger.at(0)["ops"] == 3 and ledger.at(1)["ops"] == 0
    for _ in range(3):
        ledger.advance(1, _bump, 0, 1)
    assert ledger.live == 1
    assert ledger.at(1) == {"a": [3, 0], "ops": 3}


# -- linear growth --------------------------------------------------------------

GROWTH_COMPONENTS = ("xhc-tree", "xhc-flat", "ucc", "sm", "smhc-flat")
SIZE = 1024


def _run_sequence(name, nranks):
    """One bcast + allreduce + barrier on 32-core cluster nodes."""
    node, topo, _model = build_cluster(
        n_nodes=nranks // 32, options=RunOptions(data_movement=False))
    assert topo.n_cores == nranks
    comp = make_component(name)
    comm = World(node, nranks).communicator(comp)

    def program(comm_, ctx):
        buf, sbuf, rbuf = (ctx.alloc(tag, SIZE) for tag in ("b", "s", "r"))
        yield from comm_.bcast(ctx, buf.whole(), 0)
        yield from comm_.allreduce(ctx, sbuf.whole(), rbuf.whole(), SUM,
                                   FLOAT)
        yield from comm_.barrier(ctx)

    comm.run(program)
    return comp


def held_ints(comp) -> int:
    """The integers a component keeps, its ledgers among them: every int
    reachable through dicts, lists, tuples and ledgers from its
    attributes."""
    seen = set()

    def walk(obj):
        if type(obj) is int:
            return 1
        if isinstance(obj, OpLedger):
            children = [getattr(obj, slot) for slot in OpLedger.__slots__]
        elif isinstance(obj, dict):
            children = obj.values()
        elif isinstance(obj, (list, tuple)):
            children = obj
        else:
            return 0
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return sum(walk(child) for child in children)

    return walk(vars(comp))


@pytest.mark.parametrize("name", GROWTH_COMPONENTS)
def test_ledger_ints_grow_linearly_with_ranks(name):
    counts = {}
    for nranks in (128, 256):
        comp = _run_sequence(name, nranks)
        # Every rank left every op, so only the final snapshot is held.
        assert comp.ledger.live == 1
        counts[nranks] = held_ints(comp)
    # A per-rank copy of everyone's counters grows 4x per doubling.
    assert counts[256] <= 2 * counts[128] + 64, counts
