"""Array-mode engine unit tests: gating and determinism.

Complements tests/test_engine_parity.py (which pins latencies and
event-vs-array deltas): this file covers the opt-in surface itself —
instrumentation incompatibility, bit-stable determinism, that both
engines run latency-only collectives without numpy, and that both move
the right values when data movement is on.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.bench.components import COMPONENTS
from repro.bench.osu import run_collective
from repro.errors import ConfigError
from repro.mpi import DOUBLE, MAX
from repro.node import Node
from repro.options import RunOptions
from repro.topology import get_system
from repro.xhc.component import Xhc

from conftest import run_allreduce

SRC = str(Path(__file__).resolve().parent.parent / "src")

# Every registered component on epyc-1p (smhc has no tree variant on one
# socket); xbrc implements only the reductions.
BCAST_COMPONENTS = ("xhc-tree", "xhc-flat", "smhc-flat", "sm", "ucc",
                    "tuned")
REDUCTION_COMPONENTS = BCAST_COMPONENTS + ("xbrc",)


def _bcast_latency(size=65536, **opt_kw):
    return run_collective(
        "bcast", "epyc-1p", 32, Xhc, size, warmup=1, iters=2,
        options=RunOptions(engine="array", **opt_kw))


@pytest.mark.parametrize("kw", [
    {"observe": True},
    {"check": True},
    {"record_copies": True},
])
def test_array_engine_rejects_instrumentation(kw):
    """Observation/checking walk per-event state the batched pricer
    never materializes; the combination is refused up front
    (``record_copies`` is a deprecated alias of ``observe="full"``)."""
    if "record_copies" in kw:
        with pytest.deprecated_call():
            options = RunOptions(engine="array", **kw)
    else:
        options = RunOptions(engine="array", **kw)
    with pytest.raises(ConfigError, match="instrumented|observe|check"):
        Node(get_system("epyc-1p"), options=options)


def test_unknown_engine_name():
    with pytest.raises(ConfigError, match="unknown engine"):
        RunOptions(engine="warp")


def test_array_engine_deterministic():
    """Two identical runs agree to the bit (float.hex), including all
    heap/dict iteration inside the batched pricer."""
    a = _bcast_latency()
    b = _bcast_latency()
    assert float.hex(a) == float.hex(b)


def test_array_engine_handles_small_and_large_sizes():
    """Smoke both regimes: tiny messages (no lowerable runs — pure
    event-equivalent walking) and large ones (ChunkRun sweeps park and
    resume processes across stalls) complete and return positive time."""
    for size in (64, 512, 1 << 20):
        lat = _bcast_latency(size=size)
        assert lat > 0.0


@pytest.mark.parametrize("engine", ["event", "array"])
def test_latency_only_runs_never_import_numpy(engine):
    """Both engines stay stdlib-pure: a fresh interpreter that runs
    latency-only bcasts, allreduces and reduces on every component may
    not have numpy in sys.modules. Reductions carry the MPI op and
    datatype; only the data plane resolves them to numpy objects."""
    grid = {"bcast": BCAST_COMPONENTS, "allreduce": REDUCTION_COMPONENTS,
            "reduce": REDUCTION_COMPONENTS}
    code = (
        "import sys\n"
        "from repro.bench.components import COMPONENTS\n"
        "from repro.bench.osu import run_collective\n"
        "from repro.options import RunOptions\n"
        f"opts = RunOptions(engine={engine!r}, data_movement=False)\n"
        f"for kind, names in {grid!r}.items():\n"
        "    for name in names:\n"
        "        for size in (4096, 65536):\n"
        "            lat = run_collective(kind, 'epyc-1p', 8,\n"
        "                                 COMPONENTS[name], size, warmup=0,\n"
        "                                 iters=1, options=opts)\n"
        "            assert lat > 0.0, (kind, name, size)\n"
        "bad = [m for m in sys.modules if m.split('.')[0] == 'numpy']\n"
        f"assert not bad, f'{engine} engine pulled in {{bad}}'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("engine", ["event", "array"])
@pytest.mark.parametrize("name", REDUCTION_COMPONENTS)
@pytest.mark.parametrize("size", [4096, 256 * 1024])
def test_allreduce_values_on_both_engines(engine, name, size):
    """MAX over DOUBLE reaches every rank on both engines. Neither is
    the default op or datatype, so a dropped one shows; on the array
    engine the large XHC points move their values through a lowered
    ChunkRun's reduce tuple and ``Node.commit_reduce_span``."""
    nranks, iters = 16, 2
    out, _node = run_allreduce(COMPONENTS[name], topo=get_system("epyc-1p"),
                               nranks=nranks, size=size, iters=iters,
                               op=MAX, dtype=DOUBLE, engine=engine)
    assert len(out) == nranks
    for rank, rec in out.items():
        assert np.all(rec["data"] == nranks + iters - 1), \
            f"{name} rank {rank} wrong max"


def test_engine_name_in_cache_key():
    """Array results must never satisfy an event-engine cache lookup:
    the engine name is part of the request payload the cache keys on."""
    from repro.exec.request import RunRequest
    ev = RunRequest(system="epyc-1p", collective="bcast", size=4096,
                    nranks=8, options=RunOptions(engine="event",
                                                 data_movement=False))
    ar = RunRequest(system="epyc-1p", collective="bcast", size=4096,
                    nranks=8, options=RunOptions(engine="array",
                                                 data_movement=False))
    assert ev.payload() != ar.payload()
    assert "array" in str(ar.payload())
