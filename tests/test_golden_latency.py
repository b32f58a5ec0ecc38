"""Golden-latency snapshots: simulated time must be bit-identical.

The perf work (single-pass source selection, the event engine's
in-engine ChunkRun expansion, fast handler tables, inlined cache
accounting) is only admissible because it provably does not move
simulated time. These fixtures pin, as ``float.hex``
strings, xhc-tree bcast+allreduce latencies for every modeled system at
five sizes (``latency_<system>.json``), the baseline components at
each system's full rank count (``latency_baselines.json``), and bcast
and reduce at non-zero roots (``latency_roots.json``, which pins the
per-root schedule tables), and xhc-tree at 1024 and 2048 ranks on a
``build_cluster`` topology on both engines (``latency_cluster.json``,
the scale where host bookkeeping that grows with the rank count shows)
— any future "optimization" that drifts a result by even one ulp fails
here. XHC's chunk-loop variants (flag layouts, per-level chunks, every
SMSC config, sizes around ``cico_threshold``, observed and checked
runs) are pinned down to event counts and span digests by
tests/test_golden_xhc_paths.py.

Regenerating a fixture is a deliberate act: it means simulated semantics
changed, which also requires a SIM_VERSION bump (rule RC105) so exec's
promoted result cache and tune's decision tables are invalidated
together. The SIM_VERSION pin below keeps the two in lockstep: if you
bump the version, this test reminds you that the goldens (and the bench
baselines) describe the previous semantics.
"""

import json
from pathlib import Path

import pytest

from repro.bench.components import make_component
from repro.bench.osu import run_collective

GOLDEN_DIR = Path(__file__).parent / "golden"

SYSTEMS = ("epyc-1p", "epyc-2p", "arm-n1")

# Simulated-semantics version the fixtures were recorded under. The 2->3
# bump introduced the array engine (whose latencies deliberately differ,
# see docs/performance.md and tests/test_engine_parity.py); the
# event-engine semantics these fixtures pin are unchanged, so the values
# carried over verbatim.
GOLDEN_SIM_VERSION = 3


def _fixture(name: str) -> dict:
    path = GOLDEN_DIR / f"latency_{name}.json"
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_sim_version_matches_goldens():
    """The goldens pin semantics for SIM_VERSION 3; a bump must come
    with regenerated fixtures (and invalidates exec's promoted cache)."""
    from repro.exec.cache import SIM_VERSION
    assert SIM_VERSION == GOLDEN_SIM_VERSION, (
        "SIM_VERSION changed: regenerate tests/golden/latency_*.json "
        "and re-record bench baselines for the new semantics"
    )


def test_fingerprint_manifest_matches_sim_version():
    """exec cache entries are keyed by SIM_VERSION; the RC105 manifest
    must agree so stale entries cannot masquerade as current."""
    from repro.check import _sim_fingerprint as manifest
    from repro.exec.cache import SIM_VERSION
    assert manifest.SIM_VERSION == SIM_VERSION


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("kind", ("bcast", "allreduce"))
def test_golden_latencies(system, kind):
    fix = _fixture(system)
    expected = fix["latencies"][kind]
    for size_str, want_hex in sorted(expected.items(), key=lambda kv:
                                     int(kv[0])):
        size = int(size_str)
        got = run_collective(
            kind, system, fix["nranks"],
            lambda: make_component(fix["component"]),
            size, warmup=fix["warmup"], iters=fix["iters"],
            modify=fix["modify"], mapping=fix["mapping"],
        )
        assert float.hex(got) == want_hex, (
            f"{system}/{kind}/{size}: simulated latency drifted "
            f"({float.hex(got)} != golden {want_hex}); if this change "
            f"is intentional, bump SIM_VERSION and regenerate the "
            f"fixture"
        )


def test_fixtures_cover_all_systems():
    for system in SYSTEMS:
        fix = _fixture(system)
        assert set(fix["latencies"]) == {"bcast", "allreduce"}
        for kind in fix["latencies"]:
            assert len(fix["latencies"][kind]) == 5


BASELINES = _fixture("baselines")
BASELINE_CELLS = [
    (system, kind, int(size))
    for system, kinds in BASELINES["latencies"].items()
    for kind, sizes in kinds.items() for size in sizes]


@pytest.mark.parametrize(
    "system, kind, size", BASELINE_CELLS,
    ids=["-".join(map(str, cell)) for cell in BASELINE_CELLS])
def test_golden_baseline_latencies(system, kind, size):
    """xhc-flat, smhc-flat, sm, ucc (and xbrc for allreduce): source
    selection prices every component, not just xhc-tree."""
    fix = BASELINES
    expected = fix["latencies"][system][kind][str(size)]
    for name, want_hex in sorted(expected.items()):
        got = run_collective(
            kind, system, fix["nranks"][system],
            lambda: make_component(name),
            size, warmup=fix["warmup"], iters=fix["iters"],
            modify=fix["modify"], mapping=fix["mapping"],
        )
        assert float.hex(got) == want_hex, (
            f"{system}/{kind}/{size}/{name}: simulated latency drifted "
            f"({float.hex(got)} != golden {want_hex})"
        )


ROOTS = _fixture("roots")
ROOT_CELLS = [
    (system, kind, int(root), int(size))
    for system, kinds in ROOTS["latencies"].items()
    for kind, roots in kinds.items()
    for root, sizes in roots.items() for size in sizes]


def test_root_fixture_covers_non_zero_roots():
    """Roots 1 and n-1 for bcast, n-1 for reduce, on every system: the
    root-0 goldens above cannot see a wrong per-root table."""
    for system, nranks in ROOTS["nranks"].items():
        kinds = ROOTS["latencies"][system]
        assert set(kinds["bcast"]) == {"1", str(nranks - 1)}
        assert set(kinds["reduce"]) == {str(nranks - 1)}


@pytest.mark.parametrize(
    "system, kind, root, size", ROOT_CELLS,
    ids=["-".join(map(str, cell)) for cell in ROOT_CELLS])
def test_golden_root_latencies(system, kind, root, size):
    fix = ROOTS
    expected = fix["latencies"][system][kind][str(root)][str(size)]
    for name, want_hex in sorted(expected.items()):
        got = run_collective(
            kind, system, fix["nranks"][system],
            lambda: make_component(name),
            size, warmup=fix["warmup"], iters=fix["iters"],
            modify=fix["modify"], mapping=fix["mapping"], root=root,
        )
        assert float.hex(got) == want_hex, (
            f"{system}/{kind}/root {root}/{size}/{name}: simulated "
            f"latency drifted ({float.hex(got)} != golden {want_hex})"
        )


CLUSTER = _fixture("cluster")
# tests/test_engine_parity.py::test_cluster_1024_rank_bcast_wall_bound
# runs and checks this cell; running it here too would only add time.
CLUSTER_WALL_CELL = "array/bcast/1048576/n1024"


def run_cluster_cell(key: str) -> float:
    """One ``latency_cluster.json`` cell (``engine/kind/size/nN``):
    xhc-tree on a cluster of 32-core nodes, no data movement."""
    from repro.cluster import build_cluster
    from repro.options import RunOptions
    engine, kind, size, nranks = key.split("/")
    size, nranks = int(size), int(nranks[1:])
    fix = CLUSTER
    cores_per_node = fix["numa_per_node"] * fix["cores_per_numa"]
    node, topo, _model = build_cluster(
        n_nodes=nranks // cores_per_node,
        numa_per_node=fix["numa_per_node"],
        cores_per_numa=fix["cores_per_numa"],
        options=RunOptions(engine=engine, data_movement=False))
    assert topo.n_cores == nranks
    return run_collective(
        kind, "unused", nranks, lambda: make_component(fix["component"]),
        size, warmup=fix["warmup"][str(size)], iters=fix["iters"][str(size)],
        node=node)


@pytest.mark.parametrize(
    "key", sorted(k for k in CLUSTER["cells"] if k != CLUSTER_WALL_CELL))
def test_golden_cluster_latencies(key):
    got = run_cluster_cell(key)
    want_hex = CLUSTER["cells"][key]
    assert float.hex(got) == want_hex, (
        f"cluster {key}: simulated latency drifted "
        f"({float.hex(got)} != golden {want_hex})"
    )
