"""Event-vs-array engine parity: pinned latencies and pinned deltas.

The array engine is *deliberately* not bit-identical to the event engine
(SIM_VERSION 3): zero-decision pipeline runs are priced as closed-form
batches, which trades the event engine's quantum-granularity re-pricing
for vectorized sweeps. What we pin instead:

- the array engine's own latencies are deterministic and bit-stable
  (``tests/golden/latency_array_*.json``, float.hex, same fixtures shape
  as the event goldens plus an ``"engine"`` field);
- the relative deviation from the event engine at every tier-1
  (system, collective, size) point stays inside the per-point envelope
  recorded below — a model change that widens any gap fails here and
  must be re-justified in docs/performance.md.

The envelopes are the measured deltas rounded outward to whole percents.
They are wide where the documented approximations bite (no 64 KiB-quantum
re-pricing during long copies: epyc bcast reads ~33% cheap; run-granular
contention inside lowered reduce runs: arm-n1 1 MiB allreduce reads ~70%
rich) and tight where the engines agree.
"""

import json
import time
from pathlib import Path

import pytest

from repro.bench.components import make_component
from repro.bench.osu import run_collective
from repro.options import RunOptions

GOLDEN_DIR = Path(__file__).parent / "golden"

SYSTEMS = ("epyc-1p", "epyc-2p", "arm-n1")

# Allowed relative deviation (array - event) / event per point, as
# (lower, upper) percent bounds. Measured values (recorded in
# docs/performance.md) sit comfortably inside; the margins absorb only
# rounding, not regressions.
DELTA_ENVELOPE = {
    # (system, kind, size): (lo_pct, hi_pct)
    ("epyc-1p", "bcast", 512): (-27, -22),
    ("epyc-1p", "bcast", 4096): (6, 11),
    ("epyc-1p", "bcast", 65536): (-29, -24),
    ("epyc-1p", "bcast", 262144): (-35, -30),
    ("epyc-1p", "bcast", 1048576): (-35, -30),
    ("epyc-1p", "allreduce", 512): (-5, 0),
    ("epyc-1p", "allreduce", 4096): (16, 21),
    ("epyc-1p", "allreduce", 65536): (-20, -15),
    ("epyc-1p", "allreduce", 262144): (4, 9),
    ("epyc-1p", "allreduce", 1048576): (36, 42),
    ("arm-n1", "bcast", 512): (-74, -69),
    ("arm-n1", "bcast", 4096): (7, 12),
    ("arm-n1", "bcast", 65536): (2, 7),
    ("arm-n1", "bcast", 262144): (1, 6),
    ("arm-n1", "bcast", 1048576): (-1, 4),
    ("arm-n1", "allreduce", 512): (-4, 1),
    ("arm-n1", "allreduce", 4096): (27, 33),
    ("arm-n1", "allreduce", 65536): (12, 18),
    ("arm-n1", "allreduce", 262144): (22, 28),
    ("arm-n1", "allreduce", 1048576): (67, 73),
}
# epyc-2p runs its 32 ranks on socket 0, so it prices identically to
# epyc-1p — same envelope by construction.
for (_sys, _kind, _size), _env in list(DELTA_ENVELOPE.items()):
    if _sys == "epyc-1p":
        DELTA_ENVELOPE[("epyc-2p", _kind, _size)] = _env


def _fixture(system: str, engine: str) -> dict:
    name = (f"latency_array_{system}.json" if engine == "array"
            else f"latency_{system}.json")
    with open(GOLDEN_DIR / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _run(fix: dict, kind: str, size: int, engine: str) -> float:
    return run_collective(
        kind, fix["system"], fix["nranks"],
        lambda: make_component(fix["component"]),
        size, warmup=fix["warmup"], iters=fix["iters"],
        modify=fix["modify"], mapping=fix["mapping"],
        options=RunOptions(engine=engine),
    )


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("kind", ("bcast", "allreduce"))
def test_array_golden_latencies(system, kind):
    """Array-engine latencies are pinned bit-exact, like the event ones."""
    fix = _fixture(system, "array")
    assert fix["engine"] == "array"
    for size_str, want_hex in sorted(fix["latencies"][kind].items(),
                                     key=lambda kv: int(kv[0])):
        got = _run(fix, kind, int(size_str), "array")
        assert float.hex(got) == want_hex, (
            f"{system}/{kind}/{size_str}: array latency drifted "
            f"({float.hex(got)} != golden {want_hex}); regenerate the "
            f"array fixtures and re-pin DELTA_ENVELOPE if intentional"
        )


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("kind", ("bcast", "allreduce"))
def test_engine_delta_envelope(system, kind):
    """(array - event)/event stays inside the per-point pinned envelope.

    Computed purely from the two golden fixtures — no simulation — so
    this stays honest even when either fixture is regenerated: moving one
    without re-checking the deltas fails here.
    """
    ev = _fixture(system, "event")["latencies"][kind]
    ar = _fixture(system, "array")["latencies"][kind]
    assert set(ev) == set(ar)
    for size_str in sorted(ev, key=int):
        size = int(size_str)
        e = float.fromhex(ev[size_str])
        a = float.fromhex(ar[size_str])
        pct = (a - e) / e * 100.0
        lo, hi = DELTA_ENVELOPE[(system, kind, size)]
        assert lo <= pct <= hi, (
            f"{system}/{kind}/{size}: array deviates {pct:+.2f}% from "
            f"event, outside pinned envelope [{lo}, {hi}]%"
        )


def test_envelope_covers_all_golden_points():
    for system in SYSTEMS:
        fix = _fixture(system, "array")
        for kind, sizes in fix["latencies"].items():
            for size_str in sizes:
                assert (system, kind, int(size_str)) in DELTA_ENVELOPE


with open(GOLDEN_DIR / "latency_array_baselines.json", "r",
          encoding="utf-8") as _fh:
    ARRAY_BASELINES = json.load(_fh)
ARRAY_BASELINE_CELLS = [
    (system, kind, int(size))
    for system, kinds in ARRAY_BASELINES["latencies"].items()
    for kind, sizes in kinds.items() for size in sizes]


def test_array_baselines_mirror_event_baselines():
    """Same points, rank counts and OSU loop as latency_baselines.json."""
    with open(GOLDEN_DIR / "latency_baselines.json", "r",
              encoding="utf-8") as fh:
        event = json.load(fh)
    assert ARRAY_BASELINES["engine"] == "array"
    for key in ("nranks", "warmup", "iters", "modify", "mapping"):
        assert ARRAY_BASELINES[key] == event[key], key
    assert {
        (system, kind, size, name)
        for system, kinds in ARRAY_BASELINES["latencies"].items()
        for kind, sizes in kinds.items()
        for size, names in sizes.items() for name in names
    } == {
        (system, kind, size, name)
        for system, kinds in event["latencies"].items()
        for kind, sizes in kinds.items()
        for size, names in sizes.items() for name in names
    }


@pytest.mark.parametrize(
    "system, kind, size", ARRAY_BASELINE_CELLS,
    ids=["-".join(map(str, cell)) for cell in ARRAY_BASELINE_CELLS])
def test_array_golden_baseline_latencies(system, kind, size):
    """xhc-flat, smhc-flat, sm, ucc (and xbrc for allreduce) on the
    array engine, pinned bit-exact. All but xhc-flat bypass ChunkRun
    lowering, so their answers rest on the engine's occupancy sampling
    and line-port accounting rather than on the closed-form sweep."""
    fix = ARRAY_BASELINES
    expected = fix["latencies"][system][kind][str(size)]
    for name, want_hex in sorted(expected.items()):
        got = run_collective(
            kind, system, fix["nranks"][system],
            lambda: make_component(name),
            size, warmup=fix["warmup"], iters=fix["iters"],
            modify=fix["modify"], mapping=fix["mapping"],
            options=RunOptions(engine="array"),
        )
        assert float.hex(got) == want_hex, (
            f"{system}/{kind}/{size}/{name}: array latency drifted "
            f"({float.hex(got)} != golden {want_hex})"
        )


@pytest.mark.slow
def test_cluster_1024_rank_bcast_wall_bound():
    """A 1024-rank cluster bcast in single-digit seconds of wall time on
    the array engine. The bound is generous (CI machines vary) but still
    catches an order-of-magnitude regression. The answer, about half the
    event engine's, is pinned by ``latency_cluster.json`` (its other
    cells are checked in tests/test_golden_latency.py)."""
    from repro.cluster import build_cluster
    from repro.xhc.component import Xhc

    node, topo, _model = build_cluster(
        n_nodes=32, numa_per_node=4, cores_per_numa=8,
        options=RunOptions(engine="array"))
    assert topo.n_cores == 1024
    t0 = time.perf_counter()
    lat = run_collective(
        "bcast", "unused", topo.n_cores,
        lambda: Xhc(hierarchy="numa+socket"), 1 << 20,
        warmup=0, iters=1, node=node)
    wall = time.perf_counter() - t0
    with open(GOLDEN_DIR / "latency_cluster.json", "r",
              encoding="utf-8") as fh:
        want_hex = json.load(fh)["cells"]["array/bcast/1048576/n1024"]
    assert float.hex(lat) == want_hex, (
        f"1024-rank array bcast drifted ({float.hex(lat)} != golden "
        f"{want_hex})")
    assert wall < 30.0, f"1024-rank array bcast took {wall:.1f}s wall"
