"""Provenance blocks, the request ledger (the event log's ``done``
records), and the rendered manifest."""

import json

from repro.exec import RunRequest, RunResult, SIM_VERSION
from repro.obs.svc import EventLog, ServiceTelemetry
from repro.serve import (build_manifest, config_digest, provenance_for,
                         result_to_json, write_manifest)
from repro.serve.manifest import bench_requests
from repro.serve.queue import FairScheduler


def _req(size=1024):
    return RunRequest("epyc-1p", "bcast", size, 16, component="xhc-tree")


def _result(req, *, cached=False, error=None):
    return RunResult(request=req, latency_s=None if error else 1e-6,
                     cached=cached, error=error)


# -- provenance blocks -------------------------------------------------------


def test_request_hash_is_the_store_digest():
    req = _req()
    prov = provenance_for(req, _result(req))
    assert prov["request_hash"] == req.key()
    assert prov["sim_version"] == SIM_VERSION


def test_cache_field_distinguishes_hit_miss_error():
    req = _req()
    assert provenance_for(req, _result(req))["cache"] == "miss"
    assert provenance_for(req, _result(req, cached=True))["cache"] == "hit"
    assert provenance_for(req, _result(req, error="boom"))["cache"] \
        == "error"
    assert provenance_for(req, None)["cache"] == "error"


def test_config_digest_groups_by_component_identity():
    # Same component+config across sizes/systems → same digest; a config
    # change (or dict reordering that *isn't* a change) behaves right.
    a = RunRequest("epyc-1p", "bcast", 64, 16, component="xhc-tree",
                   config={"hierarchy": "numa", "chunk_size": 4096})
    b = RunRequest("arm-n1", "allreduce", 65536, 64, component="xhc-tree",
                   config={"chunk_size": 4096, "hierarchy": "numa"})
    c = RunRequest("epyc-1p", "bcast", 64, 16, component="xhc-tree",
                   config={"hierarchy": "flat", "chunk_size": 4096})
    assert config_digest(a) == config_digest(b)
    assert config_digest(a) != config_digest(c)


def test_result_to_json_wire_shape():
    req = _req()
    ok = result_to_json(req, _result(req, cached=True))
    assert ok["request"] == req.payload()
    assert ok["latency_s"] == 1e-6
    assert ok["cached"] is True
    assert "error" not in ok
    bad = result_to_json(req, _result(req, error="no such component"))
    assert bad["latency_s"] is None
    assert bad["error"] == "no such component"
    assert bad["provenance"]["cache"] == "error"


# -- the request ledger ------------------------------------------------------


def _done(job, tenant="alice", requests=3):
    return {"event": "done", "job": job, "tenant": tenant,
            "requests": requests, "new": requests, "cached": 0,
            "errors": 0, "wall_s": 0.5, "sim_version": SIM_VERSION,
            "request_hashes": ["ab" * 32] * requests}


def test_request_log_round_trips_and_skips_torn_lines(tmp_path):
    log = EventLog(tmp_path / "events.jsonl")
    log.append(_done(1))
    log.append(_done(2))
    with open(log.path, "a") as fh:
        fh.write('{"event": "done", "jo')  # a torn line (crash mid-append)
    assert [r["job"] for r in log.records()] == [1, 2]
    text = build_manifest(tmp_path, state_dir=str(tmp_path))
    assert "2 job(s) on record; most recent first:" in text
    assert text.index("- job 2 ") < text.index("- job 1 ")


def test_request_log_reads_only_done_records(tmp_path):
    # submit and chunk lines share the log; only a finished job is one
    # the ledger lists.
    log = EventLog(tmp_path / "events.jsonl")
    log.append({"event": "submit", "job": 1, "tenant": "alice",
                "requests": 3})
    log.append({"event": "chunk", "job": 1, "tenant": "alice",
                "requests": 3, "new": 3, "cached": 0, "errors": 0})
    text = build_manifest(tmp_path, state_dir=str(tmp_path))
    assert "(no serve request ledger found)" in text


def test_request_log_spans_rotated_segments(tmp_path):
    log = EventLog(tmp_path / "events.jsonl", max_bytes=600)
    for job in range(1, 9):
        log.append(_done(job, requests=1))
    assert log.rotations > 0
    text = build_manifest(tmp_path, state_dir=str(tmp_path))
    jobs = [r["job"] for r in log.records()]
    assert f"{len(jobs)} job(s) on record" in text
    live = (tmp_path / "events.jsonl").read_text().splitlines()
    assert len(jobs) > len(live)
    assert "- job 8 " in text


def test_done_record_carries_hashes_and_version(tmp_path):
    sched = FairScheduler(batch_size=2)
    telemetry = ServiceTelemetry(state_dir=tmp_path)
    reqs = [_req(64), _req(4096)]
    job = sched.submit("alice", reqs)
    telemetry.job_submitted(job)
    _job, indices = sched.next_chunk()
    sched.record(job, indices,
                 [_result(reqs[0]), _result(reqs[1], cached=True)])
    telemetry.job_finished(job, [r.key() for r in reqs])
    (record,) = [r for r in telemetry.events.records()
                 if r["event"] == "done"]
    assert record["tenant"] == "alice"
    assert record["requests"] == 2
    assert record["new"] == 1
    assert record["cached"] == 1
    assert record["sim_version"] == SIM_VERSION
    assert record["request_hashes"] == [r.key() for r in reqs]


# -- the manifest ------------------------------------------------------------


def _bench_doc():
    return {
        "kind": "bench-sweep",
        "tag": "BENCH_9",
        "title": "MPI_Bcast on epyc-1p (16 ranks, us)",
        "system": "epyc-1p",
        "collective": "bcast",
        "nranks": 16,
        "warmup": 1,
        "iters": 2,
        "series": [
            {"label": "xhc-tree",
             "points": [{"size": 64, "latency_us": 0.3},
                        {"size": 4096, "latency_us": 2.1}]},
            {"label": "sm",
             "points": [{"size": 64, "latency_us": 0.5}]},
        ],
        "exec": {"simulations": 3, "cache_hits": 0, "wall_s": 0.5},
    }


def test_bench_requests_reconstruct_exact_run_parameters():
    reqs = bench_requests(_bench_doc())
    assert len(reqs) == 3
    label, req = reqs[0]
    assert label == "xhc-tree"
    assert (req.system, req.collective, req.size, req.nranks) \
        == ("epyc-1p", "bcast", 64, 16)
    assert (req.warmup, req.iters) == (1, 2)


def test_manifest_links_bench_entry_to_hashes_and_sim_version(tmp_path):
    with open(tmp_path / "BENCH_9.json", "w") as fh:
        json.dump(_bench_doc(), fh)
    text = build_manifest(tmp_path)
    assert f"SIM_VERSION {SIM_VERSION}" in text
    assert "BENCH_9.json" in text
    # At least one reconstructed request hash appears verbatim — the
    # acceptance criterion: a BENCH artifact is traceable to its
    # content-addressed store entries.
    _label, req = bench_requests(_bench_doc())[0]
    assert req.key() in text
    assert "regenerate: `python -m repro bench bcast" in text


def test_manifest_includes_served_jobs(tmp_path):
    log = EventLog(tmp_path / "serve" / "events.jsonl")
    log.append(_done(7))
    text = build_manifest(tmp_path, state_dir=str(tmp_path / "serve"))
    assert "tenant `alice`" in text
    assert "3 request(s), 3 new / 0 cached" in text


def test_manifest_survives_empty_repo_and_garbage_records(tmp_path):
    with open(tmp_path / "BENCH_1.json", "w") as fh:
        fh.write("{truncated")
    text = build_manifest(tmp_path)
    assert "unreadable record (skipped)" in text
    assert "(no decision tables found)" in text
    assert "(no serve request ledger found)" in text


def test_write_manifest_creates_parent_dirs(tmp_path):
    out = tmp_path / "deep" / "manifest.md"
    text = write_manifest(out, tmp_path)
    assert out.read_text() == text
    assert text.startswith("# Results manifest")
