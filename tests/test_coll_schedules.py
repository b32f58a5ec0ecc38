"""Per-root schedule tables against the per-rank derivations they replace.

``Ucc``, ``Smhc`` and XHC's ``Hierarchy`` build each root's schedule once
and their ledgers walk precomputed rank tuples. The references here are
the per-``q`` loops those tables replaced, kept verbatim: the tables are
compared with them for every root of 7-, 10-, 32-, 64- and 80-rank
communicators, then a mixed sequence of collectives runs and the shared
ledger snapshot every rank reads at the end is compared with a replay of
the reference loops.
"""

import pytest

from repro.mpi import FLOAT, SUM, World
from repro.mpi.colls import Smhc, Ucc
from repro.mpi.colls.base import knomial_tree
from repro.node import Node
from repro.options import RunOptions
from repro.topology import get_system
from repro.xhc import Xhc

# (system, ranks, mapping): the 7- and 10-rank communicators span both
# sockets; at 10 ranks one knomial node has a single child.
COMMS = [("epyc-2p", 7, "numa"), ("epyc-2p", 10, "numa"),
         ("epyc-1p", 32, "core"), ("epyc-2p", 64, "core"),
         ("arm-n1", 80, "core")]
COMM_IDS = [f"{s}-{n}" for s, n, _m in COMMS]

XHC_VARIANTS = {"xhc-tree": lambda: Xhc(hierarchy="numa+socket"),
                "xhc-flat": lambda: Xhc(hierarchy="flat")}
SMHC_VARIANTS = {"smhc-flat": lambda: Smhc(tree=False),
                 "smhc-tree": lambda: Smhc(tree=True)}


def _bind(system, nranks, mapping, factory):
    node = Node(get_system(system),
                options=RunOptions(data_movement=False))
    world = World(node, nranks, mapping=mapping)
    comp = factory()
    return comp, world.communicator(comp)


def ref_children(hier, rank):
    """``Hierarchy.children`` as it was before it became a table."""
    out = []
    for group in hier.led_groups[rank]:
        out.extend((m, group.level) for m in group.nonleaders)
    return out


# -- the tables equal the per-rank derivations, at every root -----------------


@pytest.mark.parametrize("system, nranks, mapping", COMMS, ids=COMM_IDS)
def test_knomial_schedule_matches_per_rank_trees(system, nranks, mapping):
    comp, comm = _bind(system, nranks, mapping, Ucc)
    size = comm.size
    for root in range(size):
        sched = comp._schedule(root)
        for q in range(size):
            assert (sched.parent[q], sched.children[q]) == \
                knomial_tree(q, size, root, comp.radix)
        # bcast's rule was "children or root"; reduce/barrier's "children".
        assert sched.inner == tuple(
            q for q in range(size)
            if knomial_tree(q, size, root, comp.radix)[1] or q == root)
        assert sched.inner == tuple(
            q for q in range(size)
            if knomial_tree(q, size, root, comp.radix)[1])
        assert comp._schedule(root) is sched


@pytest.mark.parametrize("variant", sorted(SMHC_VARIANTS))
@pytest.mark.parametrize("system, nranks, mapping", COMMS, ids=COMM_IDS)
def test_staging_schedule_matches_per_rank_roles(system, nranks, mapping,
                                                  variant):
    comp, comm = _bind(system, nranks, mapping, SMHC_VARIANTS[variant])
    size = comm.size
    for root in range(size):
        sched = comp._schedule(root)
        roles = [comp._roles(q, root) for q in range(size)]
        assert list(sched.roles) == roles
        assert sched.stagers == tuple(
            q for q, (_p, cons) in enumerate(roles) if cons)
        assert sched.pullers == tuple(
            q for q, (p, _cons) in enumerate(roles) if p is not None)
        assert sched.members == tuple(
            q for q, (p, cons) in enumerate(roles) if p is not None or cons)


@pytest.mark.parametrize("variant", sorted(XHC_VARIANTS))
@pytest.mark.parametrize("system, nranks, mapping", COMMS, ids=COMM_IDS)
def test_hierarchy_tables_match_per_rank_navigation(system, nranks, mapping,
                                                     variant):
    comp, comm = _bind(system, nranks, mapping, XHC_VARIANTS[variant])
    size = comm.size
    for root in range(size):
        hier = comp._hierarchy(comm, root)
        for q in range(size):
            assert hier.children(q) == ref_children(hier, q)
        assert hier.fan_producers == tuple(
            q for q in range(size) if ref_children(hier, q) or q == root)
        assert hier.has_parent == tuple(
            q for q in range(size) if hier.parent(q) is not None)
        # scatter's root gathers every non-root ack in rank order.
        assert hier.has_parent == tuple(q for q in range(size) if q != root)


# -- ledger replays with the reference loops ----------------------------------


class UccReplay:
    def __init__(self, comp, comm):
        self.c, self.size = comp, comm.size
        size = comm.size
        self.led = {k: [0] * size
                    for k in ("prod", "bprod", "step", "rsdone", "ack")}

    def _finish(self, root):
        for q in range(self.size):
            if q != root:
                self.led["ack"][q] += 1

    def bcast(self, root, nbytes):
        led, size = self.led, self.size
        self._finish(root)
        incr = 1 if nbytes <= self.c.small_max else nbytes
        for q in range(size):
            _, ch = knomial_tree(q, size, root, self.c.radix)
            if ch or q == root:
                led["bprod"][q] += incr

    def reduce(self, root, nbytes):
        led, size = self.led, self.size
        for q in range(size):
            led["prod"][q] += 1
            _, ch = knomial_tree(q, size, root, self.c.radix)
            if ch:
                led["bprod"][q] += 1
        self._finish(root)

    def barrier(self):
        led, size = self.led, self.size
        for q in range(size):
            led["prod"][q] += 1
            _, ch = knomial_tree(q, size, 0, self.c.radix)
            if ch:
                led["bprod"][q] += 1

    def allreduce(self, nbytes):
        led, size = self.led, self.size
        if nbytes <= self.c.small_max or nbytes // FLOAT.itemsize < size:
            for q in range(size):
                led["prod"][q] += 1
            self._finish(0)
            led["bprod"][0] += 1
        else:
            for q in range(size):
                led["step"][q] += size
                led["rsdone"][q] += 1
            self.barrier()

    def ledger(self, comm, me):
        return self.c.ledger.at(me)


class SmhcReplay:
    def __init__(self, comp, comm):
        self.c, self.size = comp, comm.size
        size = comm.size
        self.led = {k: [0] * size for k in ("prod", "posted", "ack")}

    def bcast(self, root, nbytes):
        st = self.led
        nfrag = -(-nbytes // self.c.fragment)
        for q in range(self.size):
            p, cons = self.c._roles(q, root)
            if cons:
                st["prod"][q] += nfrag
            if p is not None:
                st["ack"][q] += nfrag

    def reduce(self, root, nbytes):
        st = self.led
        nfrag = -(-nbytes // self.c.fragment)
        for q in range(self.size):
            p, cons = self.c._roles(q, root)
            if p is not None or cons:
                st["posted"][q] += nfrag
            if cons:
                st["ack"][q] += nfrag

    def allreduce(self, nbytes):
        self.reduce(0, nbytes)
        self.bcast(0, nbytes)

    def barrier(self):
        st = self.led
        for q in range(self.size):
            p, cons = self.c._roles(q, 0)
            if p is not None or cons:
                st["posted"][q] += 1
            if cons:
                st["prod"][q] += 1

    def ledger(self, comm, me):
        return self.c.ledger.at(me)


class XhcReplay:
    def __init__(self, comp, comm):
        self.c, self.comm, self.size = comp, comm, comm.size
        size = comm.size
        self.led = {k: [0] * size for k in ("avail", "done", "ack")}
        self.led["ready"] = [[0] * (comp.n_levels + 1) for _ in range(size)]
        self.led["cico_ops"] = 0

    def _hier(self, root):
        return self.c._hierarchy(self.comm, root)

    def _cico(self, nbytes):
        if nbytes <= self.c.cfg.cico_threshold:
            self.led["cico_ops"] += 1

    def bcast(self, root, nbytes):
        led, hier = self.led, self._hier(root)
        for q in range(self.size):
            if ref_children(hier, q) or q == hier.root:
                led["avail"][q] += nbytes
            if hier.parent(q) is not None:
                led["ack"][q] += 1
        self._cico(nbytes)

    def barrier(self):
        led, hier = self.led, self._hier(0)
        for q in range(self.size):
            if hier.parent(q) is not None:
                led["ack"][q] += 1
            if ref_children(hier, q) or q == hier.root:
                led["avail"][q] += 1

    def _reduce(self, root, nbytes, fan_out):
        led, hier = self.led, self._hier(root)
        for q in range(self.size):
            led["ready"][q][0] += nbytes
            group = hier.member_group[q]
            if group is not None:
                rng = self.c._assignment(group, q, nbytes, FLOAT)
                if rng is not None:
                    led["done"][q] += rng[1] - rng[0]
                led["ack"][q] += 1
            for g in hier.led_groups[q]:
                if q == hier.root and g is hier.levels[-1][0]:
                    led["avail"][q] += nbytes
                else:
                    led["ready"][q][g.level + 1] += nbytes
            if fan_out and ref_children(hier, q) and q != hier.root:
                led["avail"][q] += nbytes
        self._cico(nbytes)

    def reduce(self, root, nbytes):
        self._reduce(root, nbytes, fan_out=False)

    def allreduce(self, nbytes):
        self._reduce(0, nbytes, fan_out=True)

    def ledger(self, comm, me):
        return self.c.ledger.at(me)


REPLAYS = {
    "ucc": (Ucc, UccReplay),
    "smhc-flat": (SMHC_VARIANTS["smhc-flat"], SmhcReplay),
    "smhc-tree": (SMHC_VARIANTS["smhc-tree"], SmhcReplay),
    "xhc-tree": (XHC_VARIANTS["xhc-tree"], XhcReplay),
    "xhc-flat": (XHC_VARIANTS["xhc-flat"], XhcReplay),
}


def _ops(n):
    """A mixed sequence at several roots and sizes: CICO/small, medium
    (past ucc's small path) and multi-fragment payloads."""
    return [("bcast", 1, 256), ("reduce", n - 1, 8192), ("barrier", 0, 0),
            ("allreduce", 0, 70_000), ("bcast", n // 2, 70_000),
            ("reduce", 2, 256), ("allreduce", 0, 256),
            ("bcast", n - 1, 8192), ("barrier", 0, 0), ("bcast", 0, 4096)]


@pytest.mark.parametrize("name", sorted(REPLAYS))
@pytest.mark.parametrize("system, nranks, mapping", COMMS, ids=COMM_IDS)
def test_ledgers_equal_reference_replay(system, nranks, mapping, name):
    factory, replay_cls = REPLAYS[name]
    comp, comm = _bind(system, nranks, mapping, factory)
    ops = _ops(comm.size)
    big = max(nbytes for _k, _r, nbytes in ops)

    def program(comm_, ctx):
        me = comm_.rank_of(ctx)
        buf, sbuf, rbuf = (ctx.alloc(tag, big) for tag in ("b", "s", "r"))
        for kind, root, nbytes in ops:
            if kind == "bcast":
                yield from comm_.bcast(ctx, buf.view(0, nbytes), root)
            elif kind == "reduce":
                yield from comm_.reduce(
                    ctx, sbuf.view(0, nbytes),
                    rbuf.view(0, nbytes) if me == root else None,
                    SUM, FLOAT, root)
            elif kind == "allreduce":
                yield from comm_.allreduce(ctx, sbuf.view(0, nbytes),
                                           rbuf.view(0, nbytes), SUM, FLOAT)
            else:
                yield from comm_.barrier(ctx)

    comm.run(program)
    replay = replay_cls(comp, comm)
    for kind, root, nbytes in ops:
        if kind in ("bcast", "reduce"):
            getattr(replay, kind)(root, nbytes)
        elif kind == "allreduce":
            replay.allreduce(nbytes)
        else:
            replay.barrier()
    for me in range(comm.size):
        assert replay.ledger(comm, me) == replay.led, f"rank {me}"
