"""The repository benchmark: one workload, one seed, every metric.

    python3 perfbench/run.py --workload figure-sweep --seed 1 \
        --seconds 12 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``figure-sweep``  cold sweep of sampled grid cells, event engine
* ``array-sweep``   the same sampling under ``RunOptions(engine="array")``
* ``checked-sweep`` small and medium cells with spans, sanitizer and
  critical path on every point
* ``serve-mixed``   interactive and batch tenants against one daemon

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run repeats its measured work
with the layer spans of :mod:`tracing` installed and reports per-layer
metrics instead, writing the spans under ``.perfbench/``. Other entry
points: ``--setup-probe`` (time one set-up and exit) and ``--self-test``
(the golden xhc-tree cells through the benchmark's request path).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import grid
import serve_mixed
import speed
import sweeps
from score import Scorer
from tracing import Tracer

WORKLOADS = tuple(sweeps.SWEEPS) + ("serve-mixed",)
OUT_DIR = grid.ROOT / ".perfbench"
#: Set-ups timed in fresh child processes, besides the run's own.
SETUP_PROBES = 2
#: Warm interactive queries of a sweep run, timed in blocks: a block's
#: p50 and p90 are calibrated to the speed measured over that block, and
#: the run reports the second lowest of each over the blocks. A
#: sub-millisecond query's tail moves with the host's state more than the
#: calibration loop does; on the two-vCPU host this was built on, the
#: best blocks read the same from run to run (0.04-0.06 spread against
#: 0.1-0.2 for the median block), and the second best is not moved by a
#: single block calibrated during a transient. 100 queries leave ten
#: samples beyond a block's p90; 80 blocks take about 4 s.
QUERY_BLOCKS, BLOCK_QUERIES = 80, 100
#: Share of ``--seconds`` serve-mixed spends in each traced-run session.
TRACE_SESSION_SHARE = 0.5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.self_test:
        parser.error("--workload is required")
    return args


def quantile(values: list, q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def load_reference() -> grid.Reference:
    from repro.exec import SIM_VERSION

    ref = grid.Reference()
    if ref.sim_version != SIM_VERSION:
        raise SystemExit(
            f"perfbench: reference table is for SIM_VERSION "
            f"{ref.sim_version}, the tree is at {SIM_VERSION}; re-record "
            f"it with `python3 perfbench/reference.py`")
    return ref


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup_samples(args, own: float) -> list[float]:
    """The run's own set-up time plus that of fresh child processes."""
    samples = [own]
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=120, check=True)
        samples.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
    return samples


def grid_equivalent(walls, costs, grid_cost: float) -> float:
    """Host seconds the whole grid would take at the pace measured on
    the sample: measured wall over the sample's reference cost, scaled
    to the grid's reference cost. Seeds draw different cells; this keeps
    the figure comparable across them."""
    return sum(walls) / sum(costs) * grid_cost


# -- the sweeps -----------------------------------------------------------


def run_sweep(args, ref: grid.Reference, tmp: str, t_start: float,
              setup_meter: speed.Speedometer) -> dict:
    mode, classes, pinned = sweeps.SWEEPS[args.workload]
    scorer = Scorer(ref)
    tracer = Tracer()
    if args.trace:       # set-up is traced too: topology builds, warm-up
        tracer.install()
    sweeps.setup(mode, os.path.join(tmp, "interactive"), scorer)
    tracer.uninstall()
    setup_meter.stop()
    setup_s = setup_meter.calibrated(time.perf_counter() - t_start)
    if args.setup_probe:
        return {"setup_s": setup_s}
    cells = grid.sample_cells(ref, args.seed, mode, classes, pinned,
                              args.seconds)
    costs = [ref.cell_cost(c, mode) for c in cells]
    grid_cost = ref.grid_cost(mode, classes)
    with speed.Speedometer() as meter:
        walls, _ = sweeps.run_pass(cells[:len(pinned)], mode,
                                   os.path.join(tmp, "pinned"), scorer)
        rss_mb = peak_rss_mb()    # the same cells for every seed
        rest, _ = sweeps.run_pass(cells[len(pinned):], mode,
                                  os.path.join(tmp, "cold"), scorer)
    walls += rest
    sweep_wall_s = meter.calibrated(
        grid_equivalent(walls, costs, grid_cost))
    if args.trace:
        before = tracer.layer_seconds()
        tracer.install()
        try:
            with speed.Speedometer() as meter:
                t0 = time.perf_counter()
                traced, hit_ratio = sweeps.run_pass(
                    cells, mode, os.path.join(tmp, "traced"), scorer,
                    tracer)
                traced_wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        tracer.write(OUT_DIR / f"trace-{args.workload}-{args.seed}.json",
                     {"cells": [list(c) for c in cells]})
        traced_s = meter.calibrated(
            grid_equivalent(traced, costs, grid_cost))
        metrics = layer_metrics(tracer, scorer, {
            "trace.overhead": traced_s / sweep_wall_s - 1.0,
            "trace.coverage": (tracer.layer_seconds() - before) / traced_wall,
            "exec.cache.hit_ratio": hit_ratio,
        })
        return result(scorer, metrics)
    gc.collect()         # the sweep's garbage, not the queries', is freed
    jobs = grid.interactive_jobs(args.seed, QUERY_BLOCKS * BLOCK_QUERIES)
    p50s, p90s = [], []
    for block in range(QUERY_BLOCKS):
        with speed.Speedometer() as meter:
            queries = sweeps.interactive(
                os.path.join(tmp, "interactive"),
                jobs[block * BLOCK_QUERIES:(block + 1) * BLOCK_QUERIES],
                scorer)
        queries = [meter.calibrated(q) for q in queries]
        p50s.append(statistics.median(queries))
        p90s.append(quantile(queries, 0.9))
    print(f"perfbench: {args.workload} seed {args.seed}: {len(cells)} "
          f"cells, {scorer.attempted} points in {sum(walls):.2f} s "
          f"(grid {grid_equivalent(walls, costs, grid_cost):.2f} s raw); "
          f"{len(jobs)} interactive queries", file=sys.stderr)
    setup = statistics.median(setup_samples(args, setup_s))
    return result(scorer, end_to_end(setup, sweep_wall_s, sorted(p50s)[1],
                                     sorted(p90s)[1], rss_mb, scorer))


# -- serve-mixed ----------------------------------------------------------


def run_serve(args, ref: grid.Reference, tmp: str, t_start: float,
              setup_meter: speed.Speedometer) -> dict:
    from repro.serve import ServeError

    scorer = Scorer(ref)
    sm_cost = ref.grid_cost("event", {"sizes": grid.BATCH_SIZES})
    daemon = serve_mixed.setup(os.path.join(tmp, "a"), scorer)
    setup_meter.stop()
    setup_s = setup_meter.calibrated(time.perf_counter() - t_start)
    if args.setup_probe:
        daemon.stop()
        return {"setup_s": setup_s}
    if args.trace:
        return run_serve_traced(args, ref, tmp, daemon, scorer, sm_cost)
    try:
        with speed.Speedometer() as meter:
            inter, batch = serve_mixed.session(daemon, ref, args.seed,
                                               scorer, args.seconds)
        # The daemon must have finished every job the tenants saw answered
        # (and the pre-warm job).
        answered = len(inter.latencies) + len(batch.latencies) + 1
        try:
            jobs = daemon.metrics()["serve.job.latency_seconds"]["count"]
        except ServeError as exc:
            jobs = exc
        scorer.expect("daemon job count", answered, jobs)
    finally:
        daemon.stop()
    print(f"perfbench: serve-mixed seed {args.seed}: "
          f"{len(inter.latencies)} interactive and {len(batch.latencies)} "
          f"batch jobs", file=sys.stderr)
    if not batch.latencies or not inter.latencies:
        raise SystemExit("perfbench: a tenant completed no job")
    setup = statistics.median(setup_samples(args, setup_s))
    queries = [meter.calibrated(q) for q in inter.latencies]
    return result(scorer, end_to_end(
        setup, meter.calibrated(grid_equivalent(
            batch.latencies, batch.costs(), sm_cost)),
        statistics.median(queries), quantile(queries, 0.9),
        daemon.report["peak_rss_mb"], scorer))


def run_serve_traced(args, ref, tmp, daemon, scorer, sm_cost) -> dict:
    """The same fixed job lists against an untraced and then a traced
    daemon; the traced one reports its layer spans at exit."""
    share = args.seconds * TRACE_SESSION_SHARE
    jobs = 0
    for job in serve_mixed.batch_jobs(ref, args.seed):
        share -= sum(ref.cost(p) for p in job)
        jobs += 1
        if share <= 0:
            break
    limits = {"batch_limit": jobs, "interactive_limit": 4 * jobs}
    try:
        with speed.Speedometer() as meter:
            _inter, batch = serve_mixed.session(daemon, ref, args.seed,
                                                scorer, None, **limits)
    finally:
        daemon.stop()
    untraced_s = meter.calibrated(grid_equivalent(
        batch.latencies, batch.costs(), sm_cost))
    tracer = Tracer()
    traced = serve_mixed.setup(os.path.join(tmp, "b"), scorer, trace=True)
    try:
        with speed.Speedometer() as meter:
            inter, batch = serve_mixed.session(traced, ref, args.seed,
                                               scorer, None, tracer=tracer,
                                               **limits)
        scrape = traced.metrics()
    finally:
        traced.stop()
    tracer.merge(traced.report["trace"])
    tracer.write(OUT_DIR / f"trace-{args.workload}-{args.seed}.json")
    extra = serve_layer(scrape, traced.prewarm_s, inter, batch)
    extra["trace.overhead"] = meter.calibrated(grid_equivalent(
        batch.latencies, batch.costs(), sm_cost)) / untraced_s - 1.0
    busy = scrape["serve.worker.busy_seconds"]["value"]
    extra["trace.coverage"] = (tracer.layer_seconds()
                               - tracer.seconds("serve.submit")) / busy
    return result(scorer, layer_metrics(tracer, scorer, extra))


def serve_layer(scrape: dict, prewarm_s: float, inter, batch) -> dict:
    """Daemon-side numbers from its ``metrics`` op, next to the client's.
    The daemon's job histogram holds the pre-warm job too, so the
    client-side mean does as well."""
    def hist(name):
        return scrape.get(name, {"count": 0, "sum": 0.0, "p99": 0.0})
    jobs = hist("serve.job.latency_seconds")
    submits = inter.latencies + batch.latencies
    submit_ms = 1e3 * statistics.fmean(submits + [prewarm_s])
    job_ms = 1e3 * jobs["sum"] / max(1, jobs["count"])
    hits = scrape.get("serve.cache.hits", {}).get("value", 0)
    misses = scrape.get("serve.cache.misses", {}).get("value", 0)
    span = max(t for t in (inter.finished, batch.finished)) - \
        min(inter.started, batch.started)
    return {
        "serve.submit_ms": submit_ms,
        "serve.job_ms": job_ms,
        "serve.protocol_ms": submit_ms - job_ms,
        "serve.queue_wait_p99_ms":
            1e3 * (hist("serve.job.queue_wait_seconds")["p99"] or 0.0),
        "serve.chunk_execute_s": hist("serve.chunk.execute_seconds")["sum"],
        "serve.exec_lookup_s":
            hist("serve.exec.cache_lookup_seconds")["sum"],
        "serve.exec_worker_s":
            hist("serve.exec.worker_execute_seconds")["sum"],
        "serve.batch_job_p50_s": statistics.median(batch.latencies),
        "serve.jobs_per_s": len(submits) / span,
        "exec.cache.hit_ratio": hits / max(1, hits + misses),
    }


# -- metrics --------------------------------------------------------------


def end_to_end(setup_s, sweep_wall_s, p50, p90, rss_mb, scorer) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "sweep_wall_s": (sweep_wall_s, "s"),
        "interactive_p50_ms": (1e3 * p50, "ms"),
        "interactive_p90_ms": (1e3 * p90, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "rank_agreement": (scorer.rank_agreement(), "ratio"),
    }


#: Per-layer metrics that a workload without that layer reports as 0.
SERVE_KEYS = ("serve.submit_ms", "serve.job_ms", "serve.protocol_ms",
              "serve.queue_wait_p99_ms", "serve.chunk_execute_s",
              "serve.exec_lookup_s", "serve.exec_worker_s",
              "serve.batch_job_p50_s", "serve.jobs_per_s")


def layer_metrics(tracer: Tracer, scorer: Scorer, extra: dict) -> dict:
    s, calls = tracer.seconds, tracer.calls
    events = tracer.events
    values = {
        "sim.run.calls": (calls("sim.run"), "count"),
        "sim.run.self_s": (s("sim.run"), "s"),
        "sim.events": (events, "count"),
        "sim.host_ns_per_event":
            (1e9 * s("sim.run") / events if events else 0.0, "ns"),
        "sim.rel_err_p50": (scorer.rel_err(0.5), "ratio"),
        "sim.rel_err_max": (scorer.rel_err(1.0), "ratio"),
        "node.plan_copy.calls": (calls("node.plan_copy"), "count"),
        "node.plan_copy_s": (s("node.plan_copy"), "s"),
        "node.plan_reduce.calls": (calls("node.plan_reduce"), "count"),
        "node.plan_reduce_s": (s("node.plan_reduce"), "s"),
        "xhc.resumes": (calls("xhc.gen"), "count"),
        "xhc.gen_s": (s("xhc.gen"), "s"),
        "mpi.colls.resumes": (calls("mpi.colls.gen"), "count"),
        "mpi.colls.gen_s": (s("mpi.colls.gen"), "s"),
        "topology.get.calls": (calls("topology.get"), "count"),
        "topology.build_s": (s("topology.build", 1), "s"),
        "node.init.calls": (calls("node.init"), "count"),
        "node.init_s": (s("node.init"), "s"),
        "mpi.world_build_s": (s("mpi.world_build"), "s"),
        "exec.run_many.self_s": (s("exec.run_many"), "s"),
        "exec.execute.calls": (calls("exec.execute"), "count"),
        "exec.execute.self_s": (s("exec.execute"), "s"),
        "exec.cache.get.calls": (calls("exec.cache.get"), "count"),
        "exec.cache.get_s": (s("exec.cache.get"), "s"),
        "exec.cache.hit_ratio": (extra.pop("exec.cache.hit_ratio"),
                                 "ratio"),
        "exec.cache.save_s": (s("exec.cache.save"), "s"),
        "obs.spans": (scorer.spans, "count"),
        "obs.critical_path_s": (s("obs.critical_path"), "s"),
        "check.findings": (scorer.findings, "count"),
        "trace.overhead": (extra.pop("trace.overhead"), "ratio"),
        "trace.coverage": (extra.pop("trace.coverage"), "ratio"),
    }
    for key in SERVE_KEYS:
        unit = "1/s" if key.endswith("per_s") else key.rsplit("_", 1)[1]
        values[key] = (extra.get(key, 0.0), unit)
    return values


def result(scorer: Scorer, metrics: dict) -> dict:
    return {"correct": scorer.correct, "attempted": scorer.attempted,
            "failed": scorer.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


# -- entry ----------------------------------------------------------------


def self_test() -> dict:
    """The cells tests/golden/latency_<system>.json pin, as benchmark
    requests; every answer must match the fixture bit for bit."""
    from repro.exec import Executor, RunRequest

    golden = grid.ROOT / "tests" / "golden"
    checked = mismatched = 0
    for system in grid.SYSTEMS:
        with open(golden / f"latency_{system}.json", encoding="utf-8") as fh:
            fix = json.load(fh)
        cells = [(kind, int(size), want) for kind, by_size in
                 fix["latencies"].items() for size, want in by_size.items()]
        requests = [grid.make_request(
            (system, kind, size, fix["component"], 0), "event")
            for kind, size, _want in cells]
        requests = [RunRequest(**{**vars(req), "nranks": fix["nranks"],
                                  "warmup": fix["warmup"],
                                  "iters": fix["iters"],
                                  "modify": fix["modify"],
                                  "mapping": fix["mapping"]})
                    for req in requests]
        results = Executor(workers=0).run_many(requests)
        for (kind, size, want), res in zip(cells, results):
            checked += 1
            if float.hex(res.latency_s) != want:
                mismatched += 1
                print(f"perfbench: golden {system}/{kind}/{size}: "
                      f"{float.hex(res.latency_s)} != {want}",
                      file=sys.stderr)
    return {"golden_cells": checked, "mismatched": mismatched}


def main(argv=None) -> int:
    t_start = time.perf_counter()
    setup_meter = speed.Speedometer()
    setup_meter.start()
    args = parse_args(argv)
    grid.use_repo_source()
    ref = load_reference()
    if args.self_test:
        setup_meter.stop()
        report = self_test()
        print(json.dumps(report))
        return 0 if report["mismatched"] == 0 else 1
    OUT_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        runner = run_serve if args.workload == "serve-mixed" else run_sweep
        out = runner(args, ref, tmp, t_start, setup_meter)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
