"""Array-mode engine unit tests: gating and determinism.

Complements tests/test_engine_parity.py (which pins latencies and
event-vs-array deltas): this file covers the opt-in surface itself —
instrumentation incompatibility, run(until=...) refusal, bit-stable
determinism, and that both engines run without numpy.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.osu import run_collective
from repro.errors import ConfigError, SimulationError
from repro.node import Node
from repro.options import RunOptions
from repro.topology import get_system
from repro.xhc.component import Xhc

SRC = str(Path(__file__).resolve().parent.parent / "src")


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
    never materializes; the combination is refused up front."""
    with pytest.raises(ConfigError, match="instrumented|observe|check"):
        Node(get_system("epyc-1p"),
             options=RunOptions(engine="array", **kw))


def test_array_engine_rejects_run_until():
    node = Node(get_system("epyc-1p"), options=RunOptions(engine="array"))
    with pytest.raises(SimulationError, match="until"):
        node.engine.run(until=1.0)


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
def test_event_engine_never_imports_numpy(engine):
    """Both engines stay stdlib-pure: a fresh interpreter that builds a
    Node and runs a latency-only collective may not have numpy in
    sys.modules."""
    code = (
        "import sys\n"
        "from repro.bench.osu import run_collective\n"
        "from repro.xhc.component import Xhc\n"
        "from repro.options import RunOptions\n"
        "lat = run_collective('bcast', 'epyc-1p', 8, Xhc, 4096,\n"
        "    warmup=0, iters=1,\n"
        f"    options=RunOptions(engine={engine!r}, data_movement=False))\n"
        "assert lat > 0.0\n"
        "bad = [m for m in sys.modules if m.split('.')[0] == 'numpy']\n"
        f"assert not bad, f'{engine} engine pulled in {{bad}}'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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
