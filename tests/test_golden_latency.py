"""Golden-latency snapshots: simulated time must be bit-identical.

The perf work (single-pass source selection, CopyBatch, fast handler
tables, inlined cache accounting) is only admissible because it provably
does not move simulated time. These fixtures pin, as ``float.hex``
strings, xhc-tree bcast+allreduce latencies for every modeled system at
five sizes (``latency_<system>.json``) and the baseline components at
each system's full rank count (``latency_baselines.json``) — any future
"optimization" that drifts a result by even one ulp fails here.

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
