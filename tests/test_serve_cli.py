"""``repro serve`` subcommands: exit codes, output, unreachable handling.

A live daemon (on a background thread, via the CLI's own plumbing) backs
the client-command tests; the 0/1/2 exit-code contract is the subject
under test, per docs/serving.md.
"""

import asyncio
import json
import os
import shutil
import tempfile
import threading

import pytest

from repro.cli import main
from repro.serve import ServeDaemon
from repro.tune.table import DecisionTable
from repro.xhc import XhcConfig

from conftest import daemon_listening


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def live():
    """One daemon (short socket path) shared by this module's tests."""
    workdir = tempfile.mkdtemp(prefix="rsc")
    socket_path = os.path.join(workdir, "d.sock")
    tables_dir = os.path.join(workdir, "tuned")
    table = DecisionTable()
    table.record("epyc-1p", "bcast", 65536, XhcConfig(hierarchy="numa"),
                 2e-6, baseline_s=4e-6, nranks=16)
    table.save(os.path.join(tables_dir, "decision_table.json"))
    daemon = ServeDaemon(socket_path, workers=0,
                         cache=os.path.join(workdir, "cache"),
                         state_dir=workdir, tables_root=tables_dir,
                         batch_size=2)
    thread = threading.Thread(target=lambda: asyncio.run(daemon.run()),
                              daemon=True)
    thread.start()
    daemon_listening(socket_path)
    yield {"socket": socket_path, "dir": workdir}
    if thread.is_alive():
        main(["serve", "stop", "--socket", socket_path])
        thread.join(timeout=10)
    shutil.rmtree(workdir, ignore_errors=True)


SWEEP = ("submit", "bcast", "--system", "epyc-1p", "--nranks", "8",
         "--components", "xhc-tree", "--sizes", "64,4096",
         "--warmup", "1", "--iters", "2")


def test_submit_streams_progress_and_exits_zero(live, capsys):
    code, out, _err = run_cli(capsys, "serve", *SWEEP,
                              "--socket", live["socket"],
                              "--tenant", "alice")
    assert code == 0
    assert "[accepted job" in out
    assert "[progress" in out
    assert "xhc-tree" in out
    assert "[simulations:" in out


def test_warm_submit_reports_zero_new(live, capsys):
    run_cli(capsys, "serve", *SWEEP, "--socket", live["socket"])
    code, out, _err = run_cli(capsys, "serve", *SWEEP,
                              "--socket", live["socket"],
                              "--tenant", "bob")
    assert code == 0
    assert "0 new" in out
    assert "hit rate 100%" in out


def test_submit_json_carries_provenance(live, capsys, tmp_path):
    out_path = tmp_path / "served.json"
    code, _out, _err = run_cli(capsys, "serve", *SWEEP,
                               "--socket", live["socket"],
                               "--json", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["stats"]["errors"] == 0
    assert all("request_hash" in r["provenance"] for r in doc["results"])


def test_submit_with_bad_component_exits_one(live, capsys):
    code, out, _err = run_cli(
        capsys, "serve", "submit", "bcast", "--system", "epyc-1p",
        "--nranks", "8", "--components", "definitely-not-a-component",
        "--sizes", "64", "--socket", live["socket"])
    assert code == 1
    assert "error" in out


def test_status_exits_zero(live, capsys):
    code, out, _err = run_cli(capsys, "serve", "status",
                              "--socket", live["socket"])
    assert code == 0
    assert "serve daemon @" in out
    assert "SIM_VERSION" in out
    assert "store:" in out


def test_tables_lookup_and_listing(live, capsys):
    code, out, _err = run_cli(capsys, "serve", "tables",
                              "--socket", live["socket"],
                              "--system", "epyc-1p",
                              "--collective", "bcast", "--size", "65536")
    assert code == 0
    assert "hierarchy: numa" in out
    assert "etag" in out

    code, out, _err = run_cli(capsys, "serve", "tables",
                              "--socket", live["socket"])
    assert code == 0
    assert "decision_table.json" in out


def test_tables_miss_exits_one(live, capsys):
    code, _out, err = run_cli(capsys, "serve", "tables",
                              "--socket", live["socket"],
                              "--system", "arm-n1",
                              "--collective", "allreduce", "--size", "64")
    assert code == 1
    assert "no decision" in err


# -- telemetry commands: metrics / trace / top -------------------------------


def test_metrics_table_lists_lifecycle_histograms(live, capsys):
    run_cli(capsys, "serve", *SWEEP, "--socket", live["socket"],
            "--tenant", "metered")
    code, out, _err = run_cli(capsys, "serve", "metrics",
                              "--socket", live["socket"])
    assert code == 0
    assert "serve.jobs.submitted" in out
    assert "serve.job.latency_seconds" in out
    assert "p50=" in out and "p99=" in out
    assert "[event log:" in out


def test_metrics_prometheus_output_parses(live, capsys):
    from repro.obs.metrics import validate_prometheus

    run_cli(capsys, "serve", *SWEEP, "--socket", live["socket"])
    code, out, _err = run_cli(capsys, "serve", "metrics", "--prometheus",
                              "--socket", live["socket"])
    assert code == 0
    assert validate_prometheus(out) == []
    assert "# TYPE serve_job_latency_seconds histogram" in out


def test_metrics_json_dump(live, capsys, tmp_path):
    out_path = tmp_path / "metrics.json"
    run_cli(capsys, "serve", *SWEEP, "--socket", live["socket"])
    code, _out, _err = run_cli(capsys, "serve", "metrics",
                               "--socket", live["socket"],
                               "--json", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert "prometheus" in doc
    assert doc["metrics"]["serve.jobs.completed"]["value"] >= 1


def test_trace_writes_validated_perfetto_file(live, capsys, tmp_path):
    from repro.obs.export import validate_chrome_trace

    run_cli(capsys, "serve", *SWEEP, "--socket", live["socket"],
            "--tenant", "traced")
    out_path = tmp_path / "trace.json"
    code, out, _err = run_cli(capsys, "serve", "trace",
                              "--socket", live["socket"],
                              "--out", str(out_path))
    assert code == 0
    assert "perfetto" in out.lower()
    doc = json.loads(out_path.read_text())
    assert validate_chrome_trace(doc) == []
    assert doc["otherData"]["tool"] == "repro.obs.svc"


def test_trace_unknown_job_exits_one(live, capsys, tmp_path):
    code, _out, err = run_cli(capsys, "serve", "trace", "--job", "424242",
                              "--socket", live["socket"],
                              "--out", str(tmp_path / "t.json"))
    assert code == 1
    assert "no trace for job" in err


def test_top_once_renders_fleet_frame(live, capsys):
    run_cli(capsys, "serve", *SWEEP, "--socket", live["socket"],
            "--tenant", "watcher")
    code, out, _err = run_cli(capsys, "serve", "top", "--once",
                              "--socket", live["socket"])
    assert code == 0
    assert "serve top @" in out
    assert "jobs:" in out and "cache:" in out
    assert "job latency:" in out and "p95=" in out
    assert "watcher" in out            # tenant table row


# -- unreachable: the exit-2 contract ----------------------------------------


def _dead_socket():
    workdir = tempfile.mkdtemp(prefix="rsd")
    return os.path.join(workdir, "nobody.sock")


@pytest.mark.parametrize("argv", [
    ("status",),
    ("stop",),
    ("metrics",),
    ("trace",),
    ("top", "--once"),
    ("tables", "--system", "epyc-1p"),
    ("submit", "bcast", "--system", "epyc-1p", "--nranks", "8",
     "--components", "xhc-tree", "--sizes", "64"),
])
def test_client_commands_exit_two_when_unreachable(argv, capsys):
    sock = _dead_socket()
    code, _out, err = run_cli(capsys, "serve", *argv,
                              "--socket", sock, "--timeout", "0.5")
    assert code == 2
    assert "no serve daemon reachable" in err
    assert "serve start" in err
    shutil.rmtree(os.path.dirname(sock), ignore_errors=True)


def test_stop_then_status_exits_two(capsys):
    workdir = tempfile.mkdtemp(prefix="rse")
    sock = os.path.join(workdir, "d.sock")
    daemon = ServeDaemon(sock, workers=0,
                         cache=os.path.join(workdir, "cache"),
                         state_dir=workdir)
    thread = threading.Thread(target=lambda: asyncio.run(daemon.run()),
                              daemon=True)
    thread.start()
    daemon_listening(sock)
    try:
        code, out, _err = run_cli(capsys, "serve", "stop", "--socket", sock)
        assert code == 0
        assert "stopped" in out
        thread.join(timeout=10)
        code, _out, err = run_cli(capsys, "serve", "status",
                                  "--socket", sock, "--timeout", "0.5")
        assert code == 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# -- manifest (offline) ------------------------------------------------------


def test_manifest_to_stdout(capsys, tmp_path):
    code, out, _err = run_cli(capsys, "serve", "manifest",
                              "--root", str(tmp_path))
    assert code == 0
    assert out.startswith("# Results manifest")


def test_manifest_to_file_with_served_ledger(live, capsys, tmp_path):
    run_cli(capsys, "serve", *SWEEP, "--socket", live["socket"],
            "--tenant", "manifested")
    out_path = tmp_path / "manifest.md"
    code, out, _err = run_cli(capsys, "serve", "manifest",
                              "--root", ".", "--state-dir", live["dir"],
                              "--out", str(out_path))
    assert code == 0
    assert "[wrote manifest" in out
    text = out_path.read_text()
    assert "tenant `manifested`" in text
    assert "SIM_VERSION" in text


def test_help_mentions_serve(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    assert "serve" in capsys.readouterr().out
