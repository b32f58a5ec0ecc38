"""Chrome-trace/Perfetto export + flame view (repro.obs.export)."""

import json

import pytest

from repro.mpi import World
from repro.node import Node
from repro.obs import (flame_view, from_chrome_trace, to_chrome_trace,
                       validate_chrome_trace, write_chrome_trace)
from repro.options import RunOptions
from repro.xhc import Xhc

from conftest import small_topo


@pytest.fixture(scope="module")
def observed_node():
    node = Node(small_topo(),
                options=RunOptions(data_movement=False, observe=True))
    world = World(node, 8)
    comm = world.communicator(Xhc())

    def program(comm_, ctx):
        buf = ctx.alloc("b", 65536)
        yield from comm_.bcast(ctx, buf.whole(), 0)
    comm.run(program)
    return node


def test_chrome_trace_validates_clean(observed_node):
    doc = to_chrome_trace(observed_node)
    assert validate_chrome_trace(doc) == []
    events = doc["traceEvents"]
    phases = {e["ph"] for e in events}
    assert {"M", "X"} <= phases
    # One process_name metadata event per core in use, thread names too.
    meta = [e for e in events if e["ph"] == "M"]
    assert any(e["name"] == "process_name" for e in meta)
    assert any(e["name"] == "thread_name" for e in meta)
    xs = [e for e in events if e["ph"] == "X"]
    assert xs and all(e["dur"] >= 0 and e["ts"] >= 0 for e in xs)
    assert {"coll.bcast", "xhc.bcast"} <= {e["name"] for e in xs}
    # Metrics snapshot rides along for offline analysis.
    assert "metrics" in doc["otherData"]
    assert doc["otherData"]["metrics"]["messages.count"]["value"] == 7


def test_write_and_reload(tmp_path, observed_node):
    path = tmp_path / "trace.json"
    write_chrome_trace(path, observed_node)
    doc = json.loads(path.read_text())
    assert validate_chrome_trace(doc) == []


def test_round_trip_preserves_spans(observed_node):
    doc = to_chrome_trace(observed_node)
    spans = from_chrome_trace(doc)
    originals = [s for s in observed_node.obs.spans if s.end is not None]
    assert len(spans) == len(originals)
    assert ({s.name for s in spans} == {s.name for s in originals})
    # Nesting is reconstructed from time containment.
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    parented = [s for s in spans if s.parent is not None]
    assert parented, "round trip must recover parent links"
    by_id = {s.id: s for s in spans}
    for s in parented:
        p = by_id[s.parent]
        assert p.track == s.track
        assert p.start <= s.start + 1e-12 and s.end <= p.end + 1e-12


def test_validate_catches_malformed_docs():
    assert validate_chrome_trace([]) != []          # not a dict
    assert validate_chrome_trace({}) != []          # no traceEvents
    bad_event = {"traceEvents": [{"ph": "X", "name": "x"}]}
    errors = validate_chrome_trace(bad_event)
    assert errors and any("x" in e or "ts" in e for e in errors)
    negative = {"traceEvents": [
        {"ph": "X", "name": "n", "cat": "c", "pid": 0, "tid": 0,
         "ts": -1.0, "dur": 2.0}]}
    assert validate_chrome_trace(negative) != []
    ok = {"traceEvents": [
        {"ph": "X", "name": "n", "cat": "c", "pid": 0, "tid": 0,
         "ts": 0.0, "dur": 2.0}]}
    assert validate_chrome_trace(ok) == []


def test_validate_caps_error_flood():
    doc = {"traceEvents": [{"ph": "X"}] * 500}
    errors = validate_chrome_trace(doc)
    # Capped at ~20 plus the last event's batch and a suppression marker.
    assert 0 < len(errors) <= 30
    assert errors[-1].startswith("...")


def test_flame_view(observed_node):
    art = flame_view(observed_node)
    assert "xhc.bcast" in art
    assert "#" in art
    # Narrow widths and aggressive pruning still render.
    tiny = flame_view(observed_node, width=10, min_share=0.5)
    assert tiny


def test_export_with_observability_disabled():
    node = Node(small_topo(), options=RunOptions(data_movement=False))
    with pytest.raises(ValueError):
        to_chrome_trace(node)
    assert "disabled" in flame_view(node)
