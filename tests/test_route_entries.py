"""Read-route entries: one per (source, distance class), never per reader.

``Node._read_terms`` takes each source's latency term, bandwidth and
resource route from an entry the node builds once per (cache level or
NUMA node, distance class), instead of rebuilding the route for every
priced operand; ``Node._read_source`` returns that entry with the source
it selects. The differential test keeps the route builder and the terms
function as they were before the entries, verbatim, as the reference,
and compares every reader core, cache level, NUMA home, bandwidth factor
and hit case on the full machines bit for bit.
"""

import struct
from typing import Optional

import pytest

from repro.bench.components import COMPONENTS
from repro.bench.osu import run_collective
from repro.memory.cache import CacheLevel
from repro.node import Node
from repro.options import RunOptions
from repro.sim.resources import Resource
from repro.topology import Distance, get_system

FULL_SYSTEMS = ("epyc-1p", "epyc-2p", "arm-n1")
LENGTH = 4096
# Hit bytes of a cache source: partial (the remainder comes from the
# buffer's DRAM home) and full coverage. The "none" case reads DRAM
# (no cache level, 0 hit bytes).
HITS = (LENGTH // 2, LENGTH)
_pack = struct.Struct("<4d").pack


class _ReferenceRoutes:
    """Route building and read terms as they were before the entries,
    kept verbatim: ``self`` offers the node's tables and distances."""

    def __init__(self, node: Node) -> None:
        self.model = node.model
        self.caches = node.caches
        self.resources = node.resources
        self._numa_sock = node._numa_sock
        self._sock_of = node._sock_of
        self._numa_of = node._numa_of
        self._llc_index = node._llc_index
        self.distance = node.distance
        self.numa_distance = node.numa_distance

    def _source_route(
        self, core: int, level: Optional[CacheLevel], buf
    ) -> tuple[Distance, list[Resource]]:
        """Distance class + bottleneck resources for reading from a source."""
        if level is None:
            # DRAM at the buffer's home NUMA node.
            numa = buf.home_numa
            dist = self.numa_distance(core, numa)
            route = [self.resources.dram[numa]]
            src_sock = self._numa_sock[numa]
        else:
            if level is self.caches.private[core]:
                return Distance.SELF, []
            src_core = level.home_cores[0]
            if core in level.home_set:
                dist = Distance.CACHE_LOCAL
            else:
                dist = self.distance(core, src_core)
            route = []
            llc_index = self._llc_index[src_core]
            if llc_index is not None and llc_index in self.resources.llc_port:
                route.append(self.resources.llc_port[llc_index])
            elif self.resources.slc:
                route.append(self.resources.slc[self._sock_of[src_core]])
            else:
                route.append(self.resources.dram[self._numa_of[src_core]])
            if dist >= Distance.INTRA_NUMA:
                # Cache-to-cache transfers that leave the LLC group ride
                # the socket's data fabric (cross-CCX transport on Zen is
                # fabric-limited, but does not consume DRAM channels).
                fab = self.resources.fabric[self._sock_of[src_core]]
                if fab not in route:
                    route.append(fab)
            src_sock = self._sock_of[src_core]
        if dist >= Distance.CROSS_NUMA:
            route.append(self.resources.fabric[src_sock])
        if dist is Distance.CROSS_SOCKET:
            route.append(self.resources.xlink)
        return dist, route

    def _read_terms(self, core: int, buf, length: int,
                    level: Optional[CacheLevel], hit_bytes: int,
                    bw_factor: float) -> tuple:
        """Static terms of reading ``length`` bytes of ``buf`` by ``core``
        from the source :meth:`_cache_source_span` selected."""
        model = self.model
        dist, route = self._source_route(core, level, buf)
        lat_term = model.lat[dist] + model.copy_issue_cost
        bw_cap = model.bw[dist] * bw_factor
        miss_bytes = length - hit_bytes
        resources = list(route)
        if miss_bytes > 0 and level is not None:
            # Remainder comes from the buffer's DRAM home.
            d2, route2 = self._source_route(core, None, buf)
            lat2_term = model.lat[d2] * 0.1
            bw2_cap = model.bw[d2] * bw_factor
            resources.extend(r for r in route2 if r not in resources)
            route2 = tuple(route2)
        else:
            lat2_term = 0.0
            bw2_cap = 0.0
            route2 = None
        return (lat_term, hit_bytes, bw_cap, tuple(route), miss_bytes,
                lat2_term, bw2_cap, route2, resources)


class _Home:
    """A buffer as the read terms see it: only its NUMA home is read."""

    def __init__(self, numa: int) -> None:
        self.home_numa = numa


def _same(got: tuple, want: tuple) -> bool:
    """Identical terms: ``==`` compares the resources of every route and
    resource list by identity and in order (a ``Resource`` has no
    ``__eq__``) and tells a tuple from a list; the floats must also be
    bit-identical. Their packed IEEE-754 bytes are compared, which is
    ``float.hex`` equality at a tenth of the cost (and also tells NaN
    payloads apart)."""
    return got == want and _float_bits(got) == _float_bits(want)


def _float_bits(terms: tuple) -> bytes:
    """The bytes of the four floats of a terms tuple: lat_term, bw_cap,
    lat2_term and bw2_cap."""
    return _pack(terms[0], terms[2], terms[5], terms[6])


def _entry(node: Node, core: int, level: Optional[CacheLevel],
           numa: int) -> tuple:
    """The route entry of a source: the lookup the terms function did
    before the source walk returned the entry itself, kept verbatim
    (``self`` is the node)."""
    self = node
    if level is None:
        return self._dram_route(core, numa)
    elif level is self.caches.private[core]:
        return self._self_route
    else:
        if core in level.home_set:
            dist = Distance.CACHE_LOCAL
        else:
            dist = self.distance(core, level.home_cores[0])
        key = (level, dist)
        entry = self._routes.get(key)
        if entry is None:
            entry = self._routes[key] = self._source_route(level, 0, dist)
        return entry


def _levels(node: Node) -> list[CacheLevel]:
    caches = node.caches
    return (list(caches.private) + list(caches.group.values())
            + list(caches.slc.values()))


def _source_key(node: Node, core: int, level: Optional[CacheLevel],
                numa: int) -> tuple:
    """The (source, distance class) pair a read selects."""
    if level is None:
        return ("numa", numa), node.numa_distance(core, numa)
    if core in level.home_set:
        return ("level", level.id), Distance.CACHE_LOCAL
    return ("level", level.id), node.distance(core, level.home_cores[0])


@pytest.mark.parametrize("system", FULL_SYSTEMS)
def test_read_terms_match_reference(system):
    """Every reader core x cache level x NUMA home x bandwidth factor x
    hit case gives the reference's terms bit for bit, with the same
    resources in the same order; afterwards the node holds one entry
    per (source, distance class) pair, far fewer than readers x
    sources."""
    node = Node(get_system(system), options=RunOptions(data_movement=False))
    ref = _ReferenceRoutes(node)
    model = node.model
    factors = (1.0, model.cma_bw_factor, model.knem_bw_factor)
    levels = _levels(node)
    homes = [_Home(numa) for numa in sorted(node._numa_sock)]
    pairs = set()
    readers_x_sources = 0
    for core in range(node.topo.n_cores):
        own = node.caches.private[core]
        for home in homes:
            pairs.add(_source_key(node, core, None, home.home_numa))
            dram = _entry(node, core, None, home.home_numa)
            for f in factors:
                want = ref._read_terms(core, home, LENGTH, None, 0, f)
                got = node._read_terms(core, home, LENGTH, None, 0, dram,
                                       f)
                assert _same(got, want), (core, home.home_numa, f)
            for level in levels:
                entry = _entry(node, core, level, home.home_numa)
                for hit in HITS:
                    for f in factors:
                        want = ref._read_terms(core, home, LENGTH, level,
                                               hit, f)
                        got = node._read_terms(core, home, LENGTH, level,
                                               hit, entry, f)
                        assert _same(got, want), (
                            core, level.kind, level.home_cores[0],
                            home.home_numa, hit, f)
        readers_x_sources += len(homes) + len(levels) - 1
        pairs.update(_source_key(node, core, level, 0)
                     for level in levels if level is not own)
    assert len(node._routes) <= len(pairs)
    assert len(pairs) * 4 < readers_x_sources


def _recording_selection(node: Node, pairs: set, reads: set) -> None:
    """Wrap the node's source walk to record the (source, distance class)
    pairs and the (reader, source) pairs each priced read reaches."""
    select = node._read_source

    def recording(core, buf, off, length):
        level, hit, entry = select(core, buf, off, length)
        reached = []
        if level is None or hit < length:
            reached.append(_source_key(node, core, None, buf.home_numa))
        if level is not None and level is not node.caches.private[core]:
            reached.append(_source_key(node, core, level, buf.home_numa))
        for key in reached:
            pairs.add(key)
            reads.add((core, key[0]))
        return level, hit, entry

    node._read_source = recording


@pytest.mark.parametrize("system", FULL_SYSTEMS)
def test_full_machine_run_holds_one_entry_per_source_and_distance(system):
    """After full-machine collectives, the node holds at most one route
    entry per (cache level or NUMA node, distance class) pair its reads
    reached. Keying the entries by reader core as well would hold one per
    (reader, source) pair, which these runs reach several times more."""
    topo = get_system(system)
    node = Node(topo, options=RunOptions(data_movement=False))
    pairs: set = set()
    reads: set = set()
    _recording_selection(node, pairs, reads)
    for kind, component, size in (("bcast", "xhc-tree", 65536),
                                  ("allreduce", "xhc-tree", 65536),
                                  ("allreduce", "xhc-flat", 16384)):
        run_collective(kind, system, topo.n_cores, COMPONENTS[component],
                       size, warmup=1, iters=1, node=node)
    assert node._routes
    assert len(node._routes) <= len(pairs)
    assert len(reads) > 2 * len(pairs)
