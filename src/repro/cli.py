"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``topo``     describe a machine and the XHC hierarchy built on it
``bench``    sweep a collective across components (Fig. 8/11 style)
``figure``   regenerate one of the paper's figures/tables by name
``app``      run an application skeleton under a chosen component
``tune``     autotune XHC and persist a decision table (see docs/tuning.md)
``trace``    run one collective observed; critical path + Perfetto JSON
             (see docs/observability.md)
``check``    correctness tooling: AST lint over the tree and/or the
             race/deadlock sanitizer over an OSU sweep (docs/checking.md)
``serve``    the sweep service: ``start`` a daemon, ``submit`` sweeps to
             it, query ``status``/``tables``, scrape ``metrics`` (table /
             JSON / Prometheus), export a Perfetto job ``trace``, watch
             the fleet live with ``top``, ``stop`` it, render the
             provenance ``manifest`` (see docs/serving.md)

Exit codes (stable — CI and scripts rely on them)
-------------------------------------------------

``0``  success; for ``check``, a clean report
``1``  the command ran but reported findings or a failure
``2``  usage error (unknown figure/flag; argparse errors land here too);
       for ``serve`` clients, the daemon being unreachable

Sweeping commands (``bench``, ``figure``, ``check``) accept ``--parallel
N`` to fan simulations out over N worker processes and (``bench``,
``figure``) ``--cache [PATH]`` to answer repeated sweeps from the
persistent result store (see docs/api.md).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import bench as bench_mod
from .bench.components import COMPONENTS, component_names
from .bench.osu import DEFAULT_SIZES, osu_allreduce, osu_bcast
from .bench.report import (bench_trajectory_json, next_bench_path,
                           render_rows, render_series_table, rows_table_json,
                           series_table_json, write_json)
from .topology import get_system
from .topology.io import load_topology

FIGURES = {
    "table1": lambda q: bench_mod.table1_systems(),
    "fig1a": lambda q: bench_mod.fig1a_domains(quick=q),
    "fig1b": lambda q: bench_mod.fig1b_congestion(quick=q),
    "fig3": lambda q: bench_mod.fig3_mechanisms(quick=q),
    "fig4": lambda q: bench_mod.fig4_atomics(quick=q),
    "fig7": lambda q: bench_mod.fig7_osu_variants(quick=q),
    "fig8-epyc-1p": lambda q: bench_mod.fig8_bcast("epyc-1p", quick=q),
    "fig8-epyc-2p": lambda q: bench_mod.fig8_bcast("epyc-2p", quick=q),
    "fig8-arm-n1": lambda q: bench_mod.fig8_bcast("arm-n1", quick=q),
    "fig9": lambda q: bench_mod.fig9_layout_root(quick=q),
    "table2": lambda q: bench_mod.table2_message_counts(quick=q),
    "fig10": lambda q: bench_mod.fig10_cacheline(quick=q),
    "fig11-epyc-1p": lambda q: bench_mod.fig11_allreduce("epyc-1p", quick=q),
    "fig11-epyc-2p": lambda q: bench_mod.fig11_allreduce("epyc-2p", quick=q),
    "fig11-arm-n1": lambda q: bench_mod.fig11_allreduce("arm-n1", quick=q),
    "fig12": lambda q: bench_mod.fig12_pisvm(quick=q),
    "fig13-default": lambda q: bench_mod.fig13_miniamr("default", quick=q),
    "fig13-refine": lambda q: bench_mod.fig13_miniamr("refine-1k", quick=q),
    "fig14": lambda q: bench_mod.fig14_cntk(quick=q),
}


def _resolve_topology(args):
    if getattr(args, "spec", None):
        return load_topology(args.spec)
    return get_system(args.system)


# -- shared flag groups ------------------------------------------------------
#
# The same flags used to be copy-pasted into every subparser (and drifted:
# help strings, defaults). Each builder returns a fresh ``add_help=False``
# parent parser; subcommands compose the groups they need via
# ``parents=[...]``.


def _system_flags(default: str = "epyc-1p") -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--system", default=default,
                   help=f"target system codename (default: {default})")
    return p


def _json_flags(help: str = "also write machine-readable JSON here") \
        -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--json", help=help)
    return p


def _out_flags(help: str, default: str | None = None) \
        -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--out", default=default, help=help)
    return p


def _exec_flags(with_cache: bool = True) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--parallel", type=int, default=0, metavar="N",
                   help="simulation worker processes (0 = inline, the "
                        "default; negative = pick from CPU count)")
    if with_cache:
        from .exec import DEFAULT_CACHE_PATH
        p.add_argument("--cache", nargs="?", const=DEFAULT_CACHE_PATH,
                       metavar="PATH",
                       help="persist results in a content-addressed cache "
                            f"(bare flag: {DEFAULT_CACHE_PATH})")
    return p


def _make_executor(args):
    """An :class:`~repro.exec.Executor` configured from shared flags."""
    from .exec import Executor
    workers = None if args.parallel < 0 else args.parallel
    progress = None
    if workers != 0:
        def progress(msg):
            print(f"[{msg}]", flush=True)
    return Executor(workers=workers, cache=getattr(args, "cache", None),
                    progress=progress)


def _print_exec_stats(executor, wall_s: float) -> None:
    """One greppable accounting line per sweep (CI matches on it)."""
    stats = executor.stats()
    hits = stats["cache_hits"]
    total = hits + stats["cache_misses"]
    rate = 100 * hits / total if total else 0.0
    print(f"[simulations: {stats['simulations']} new, {hits} cached "
          f"(hit rate {rate:.0f}%), wall {wall_s:.2f}s]")


def cmd_topo(args) -> int:
    topo = _resolve_topology(args)
    print(topo.describe())
    from .xhc import XhcConfig, build_hierarchy
    cfg = XhcConfig(hierarchy=args.hierarchy)
    hier = build_hierarchy(topo, list(range(topo.n_cores)), cfg.tokens(),
                           root=args.root)
    print(f"XHC hierarchy ({args.hierarchy!r}, root={args.root}):")
    print(" ", hier.describe())
    rows = []
    for level_idx, level in enumerate(hier.levels):
        for g in level:
            rows.append([level_idx, g.index, g.leader, len(g.members)])
    print(render_rows("Groups", ["level", "group", "leader", "members"],
                      rows))
    return 0


def cmd_bench(args) -> int:
    import time  # lint: disable=RC101  (wall time of the sweep, not sim)

    from .exec import using_executor

    names = (args.components.split(",") if args.components
             else component_names(args.collective, args.system))
    sizes = (tuple(int(s) for s in args.sizes.split(","))
             if args.sizes else DEFAULT_SIZES)
    nranks = args.nranks or get_system(args.system).n_cores
    runner = osu_bcast if args.collective == "bcast" else osu_allreduce
    t0 = time.perf_counter()
    with _make_executor(args) as executor, using_executor(executor):
        series = [
            runner(args.system, nranks, name, sizes=sizes,
                   label=name, warmup=args.warmup, iters=args.iters)
            for name in names
        ]
        wall = time.perf_counter() - t0
        stats = executor.stats()
    title = (f"MPI_{args.collective.capitalize()} on {args.system} "
             f"({nranks} ranks, us)")
    print(render_series_table(title, series))
    _print_exec_stats(executor, wall)
    if args.json:
        write_json(args.json, series_table_json(title, series))
        print(f"\n[wrote JSON table to {args.json}]")
    if args.emit_bench is not None:
        import os
        path = args.emit_bench or next_bench_path()
        tag = os.path.splitext(os.path.basename(path))[0]
        payload = bench_trajectory_json(
            tag, title, series, system=args.system,
            collective=args.collective, nranks=nranks,
            warmup=args.warmup, iters=args.iters,
            exec_info={**stats, "wall_s": wall})
        write_json(path, payload)
        print(f"\n[wrote bench trajectory to {path}]")
    return 0


def cmd_perf(args) -> int:
    import os

    from .perf import harness

    if args.profile:
        print(harness.profile_macro(quick=args.quick))
        return 0

    results = harness.run_perf(quick=args.quick,
                               macro_repeats=args.repeats,
                               engine=args.engine)
    engine, macro = results["engine"], results["macro"]
    macros, parity = results["macros"], results["parity"]
    print(f"engine micro   {engine['events']:8d} events in "
          f"{engine['cpu_s']:.3f}s cpu -> "
          f"{engine['events_per_sec']:,.0f} events/s")
    label = "quick" if macro["quick"] else "full"
    for name, m in macros.items():
        print(f"macro ({label}, {name})  wall {m['wall_s']:.3f}s  "
              f"cpu {m['cpu_s']:.3f}s over {len(m['points'])} points")
        for pt in m["points"]:
            print(f"  {pt['kind']:<10}{pt['size']:>9d}B  "
                  f"{pt['latency_us']:10.2f} us sim  "
                  f"{pt['wall_s']:7.3f} s wall")
    if parity:
        print("engine parity (array vs event; sim delta is the "
              "documented batched-pricing deviation)")
        for row in parity:
            print(f"  {row['kind']:<10}{row['size']:>9d}B  "
                  f"sim {row['latency_rel_delta']:+7.2%}  "
                  f"wall speedup {row['wall_speedup']:6.2f}x")
        print(f"array macro speedup: "
              f"{macros['event']['wall_s'] / macros['array']['wall_s']:.2f}x"
              f" wall")
    if args.baseline is not None:
        speedup = args.baseline / macro["wall_s"] if macro["wall_s"] \
            else 0.0
        print(f"speedup vs baseline {args.baseline:.3f}s wall: "
              f"{speedup:.2f}x")

    status = 0
    floor = (harness.ENGINE_EVENTS_PER_SEC_FLOOR
             if args.assert_floor is None else args.assert_floor)
    if args.assert_floor is not None or args.ci:
        if engine["events_per_sec"] < floor:
            print(f"[FAIL] engine microbench {engine['events_per_sec']:,.0f}"
                  f" events/s is below the floor {floor:,.0f}")
            status = 1
        else:
            print(f"[ok] engine microbench clears the "
                  f"{floor:,.0f} events/s floor "
                  f"({engine['events_per_sec'] / floor:.1f}x headroom)")
    if args.ci and parity:
        bad = [row for row in parity
               if abs(row["latency_rel_delta"]) > harness.PARITY_REL_TOL]
        if bad:
            for row in bad:
                print(f"[FAIL] parity gate: {row['kind']}/{row['size']}B "
                      f"array deviates {row['latency_rel_delta']:+.2%} "
                      f"from event (gate {harness.PARITY_REL_TOL:.0%})")
            status = 1
        else:
            print(f"[ok] engine parity within "
                  f"{harness.PARITY_REL_TOL:.0%} on all "
                  f"{len(parity)} macro points")

    payload = harness.emit_record(
        engine, macro,
        baseline_wall_s=args.baseline,
        baseline_cpu_s=args.baseline_cpu,
        note=args.note or "",
        macros=macros, parity=parity)
    if args.json:
        write_json(args.json, payload)
        print(f"[wrote perf report to {args.json}]")
    if args.emit_bench is not None:
        path = args.emit_bench or next_bench_path()
        tag = os.path.splitext(os.path.basename(path))[0]
        payload["tag"] = tag
        write_json(path, payload)
        print(f"[wrote perf record to {path}]")
    return status


def cmd_trace(args) -> int:
    from .obs import critical_path, flame_view, write_chrome_trace
    from .obs.runner import run_traced
    from .sim.stats import collect_stats

    node = run_traced(args.system, args.coll, size=args.size,
                      nranks=args.nranks, component=args.component,
                      root=args.root)
    out = args.out or f"results/trace_{args.system}_{args.coll}.json"
    doc = write_chrome_trace(out, node)
    report = critical_path(node)
    print(report.render(show_steps=args.steps))
    print()
    print(flame_view(node))
    print()
    print(collect_stats(node).render())
    print(f"\n[wrote Chrome-trace JSON ({len(doc['traceEvents'])} events) "
          f"to {out}]")
    print("[open it at https://ui.perfetto.dev or chrome://tracing]")
    if args.json:
        write_json(args.json, report.to_json())
        print(f"[wrote critical-path report to {args.json}]")
    return 0


def cmd_figure(args) -> int:
    import time  # lint: disable=RC101  (wall time of the sweep, not sim)

    from .exec import using_executor

    try:
        fn = FIGURES[args.name]
    except KeyError:
        print(f"unknown figure {args.name!r}; available: "
              f"{', '.join(sorted(FIGURES))}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    with _make_executor(args) as executor, using_executor(executor):
        result = fn(args.quick)
        wall = time.perf_counter() - t0
    print(result.text)
    _print_exec_stats(executor, wall)
    if args.csv:
        result.write_csv(args.csv)
        print(f"\n[wrote {len(result.to_records())} records to {args.csv}]")
    if args.json:
        write_json(args.json, {"figure": args.name,
                               "records": result.to_records()})
        print(f"\n[wrote JSON records to {args.json}]")
    return 0


def cmd_tune(args) -> int:
    from .tune import COLLECTIVES, ResultCache, tune
    from .tune.table import DecisionTable
    import os

    systems = args.systems.split(",") if args.systems else None
    collectives = (args.collectives.split(",") if args.collectives
                   else COLLECTIVES)
    sizes = (tuple(int(s) for s in args.sizes.split(","))
             if args.sizes else None)
    cache = ResultCache(args.cache)
    table = None
    if args.resume and os.path.exists(args.out):
        table = DecisionTable.load(args.out)
        print(f"[resuming from {args.out}: {len(table)} decisions]")

    kwargs = dict(collectives=collectives, sizes=sizes, quick=args.quick,
                  nranks=args.nranks, budget=args.budget,
                  workers=args.workers, cache=cache, table=table,
                  resume=args.resume,
                  progress=lambda msg: print(f"[{msg}]", flush=True))
    if systems is not None:
        kwargs["systems"] = systems
    result = tune(**kwargs)

    rows = []
    for p in result.points:
        if p.skipped:
            rows.append([p.system, p.collective, p.size, p.nranks,
                         "-", "-", "-", p.skipped])
            continue
        rows.append([
            p.system, p.collective, p.size, p.nranks,
            p.baseline_s * 1e6, p.best_s * 1e6,
            f"{p.speedup:.2f}x" if p.speedup else "-",
            _describe_config(p.best_config),
        ])
    title = "XHC tuning: paper default vs tuned (us)"
    headers = ["system", "collective", "size", "nranks",
               "default_us", "tuned_us", "speedup", "winner"]
    print(render_rows(title, headers, rows))

    result.table.save(args.out)
    print(f"\n[decision table: {len(result.table)} entries -> {args.out}]")
    print(f"[simulations: {result.simulations} new, "
          f"{result.cache_hits} cached "
          f"(hit rate {100 * result.cache_hit_rate:.0f}%)]")
    if args.json:
        write_json(args.json, {
            "table": result.table.to_json(),
            "points": [p.to_record() for p in result.points],
            "simulations": result.simulations,
            "cache_hits": result.cache_hits,
            "cache_misses": result.cache_misses,
        })
        print(f"[wrote JSON report to {args.json}]")
    return 0


def _describe_config(cfg) -> str:
    if cfg is None:
        return "-"
    from .tune import PAPER_DEFAULT
    if cfg == PAPER_DEFAULT:
        return "(default)"
    parts = [cfg.hierarchy]
    if cfg.chunk_size != PAPER_DEFAULT.chunk_size:
        if isinstance(cfg.chunk_size, tuple):
            parts.append("chunks=" + "/".join(str(c) for c in cfg.chunk_size))
        else:
            parts.append(f"chunk={cfg.chunk_size}")
    if cfg.cico_threshold != PAPER_DEFAULT.cico_threshold:
        parts.append(f"cico={cfg.cico_threshold}")
    if cfg.flag_layout != PAPER_DEFAULT.flag_layout:
        parts.append(cfg.flag_layout)
    return " ".join(parts)


# -- serve: the sweep service (docs/serving.md) ------------------------------
#
# Client subcommands (submit/status/tables/stop) talk to a running daemon
# over its local socket and follow the exit-code contract above: the
# daemon being unreachable is exit 2 (an environment problem, like a bad
# flag), an answered-but-failed request is exit 1. ``start`` runs the
# daemon in the foreground; ``manifest`` is offline and needs no daemon.


def _serve_flags() -> argparse.ArgumentParser:
    from .serve import default_socket_path
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--socket", default=None, metavar="PATH",
                   help="daemon socket path "
                        f"(default: {default_socket_path()})")
    p.add_argument("--timeout", type=float, default=10.0, metavar="SECS",
                   help="seconds to wait for the daemon to answer "
                        "(default: 10; unreachable exits 2)")
    return p


def _serve_client(args):
    from .serve import ServeClient
    return ServeClient(args.socket, timeout=args.timeout)


def cmd_serve_start(args) -> int:
    import asyncio

    from .serve import ServeDaemon

    workers = None if args.parallel < 0 else args.parallel
    daemon = ServeDaemon(
        args.socket, workers=workers, cache=args.cache,
        tables_root=args.tables, state_dir=args.state_dir,
        batch_size=args.batch_size, max_entries=args.max_entries,
        max_bytes=args.max_bytes, telemetry=not args.no_telemetry,
        log=lambda msg: print(f"[serve] {msg}", flush=True))
    try:
        asyncio.run(daemon.run())
    except KeyboardInterrupt:
        # The in-loop signal handler normally drains first; a second ^C
        # (or an interpreter without signal-handler support) lands here.
        print("[serve] interrupted", flush=True)
        return 1
    return 0


def _submit_requests(args) -> "list[dict]":
    from .exec import RunRequest

    names = (args.components.split(",") if args.components
             else component_names(args.collective, args.system))
    sizes = (tuple(int(s) for s in args.sizes.split(","))
             if args.sizes else DEFAULT_SIZES)
    nranks = args.nranks or get_system(args.system).n_cores
    return [
        RunRequest(args.system, args.collective, size, nranks,
                   component=name, warmup=args.warmup,
                   iters=args.iters).payload()
        for name in names for size in sizes
    ]


def cmd_serve_submit(args) -> int:
    requests = _submit_requests(args)

    def on_event(event: dict) -> None:
        kind = event.get("event")
        if kind == "accepted":
            print(f"[accepted job {event.get('job')} "
                  f"({event.get('total')} requests, "
                  f"tenant {event.get('tenant')!r})]", flush=True)
        elif kind == "progress":
            print(f"[progress {event.get('done')}/{event.get('total')}]",
                  flush=True)

    with _serve_client(args) as client:
        done = client.submit(requests, tenant=args.tenant,
                             on_event=on_event)
    stats = done.get("stats", {})
    results = done.get("results", [])
    rows = [
        [res["request"]["component"], res["request"]["size"],
         (res["latency_s"] * 1e6 if res.get("latency_s") is not None
          else "-"),
         res["provenance"]["cache"],
         res["provenance"]["request_hash"][:12]]
        for res in results
    ]
    print(render_rows(
        f"served {args.collective} on {args.system} "
        f"(tenant {args.tenant!r}, us)",
        ["component", "size", "latency_us", "cache", "request_hash"],
        rows))
    total = stats.get("requests", 0)
    hits = stats.get("cached", 0)
    rate = 100 * hits / total if total else 0.0
    print(f"[simulations: {stats.get('new', 0)} new, {hits} cached "
          f"(hit rate {rate:.0f}%), errors {stats.get('errors', 0)}]")
    if args.json:
        write_json(args.json, done)
        print(f"[wrote served results to {args.json}]")
    return 1 if stats.get("errors") else 0


def cmd_serve_status(args) -> int:
    with _serve_client(args) as client:
        status = client.status()
    queue = status.get("queue", {})
    store = status.get("store") or {}
    exec_stats = status.get("executor", {})
    print(f"serve daemon @ {client.socket_path}")
    print(f"  protocol {status.get('protocol')}, "
          f"SIM_VERSION {status.get('sim_version')}, "
          f"uptime {status.get('uptime_s', 0):.0f}s, "
          f"accepting={status.get('accepting')}")
    print(f"  queue: {queue.get('pending_requests', 0)} request(s) in "
          f"{queue.get('pending_chunks', 0)} chunk(s); tenants: "
          f"{', '.join(sorted(queue.get('tenants', {}))) or '(idle)'}")
    print(f"  executor: {exec_stats.get('simulations', 0)} simulations, "
          f"{exec_stats.get('cache_hits', 0)} cache hits")
    if store:
        bound = []
        if store.get("max_entries"):
            bound.append(f"max {store['max_entries']} entries")
        if store.get("max_bytes"):
            bound.append(f"max {store['max_bytes']} bytes")
        print(f"  store: {store.get('entries', 0)} entries, "
              f"{store.get('bytes', 0)} bytes at {store.get('root')}"
              f"{' (' + ', '.join(bound) + ')' if bound else ''}")
    tables = status.get("tables", {})
    print(f"  tables: {tables.get('lookups', 0)} lookups, "
          f"{tables.get('reloads', 0)} reloads")
    if args.json:
        write_json(args.json, status)
        print(f"[wrote status to {args.json}]")
    return 0


def cmd_serve_tables(args) -> int:
    with _serve_client(args) as client:
        if args.system is None:
            reply = client.tables()
            tables = reply.get("tables", [])
            if not tables:
                print("no decision tables served")
                return 1
            rows = [[t["table"], t["etag"], t["entries"],
                     ",".join(t["systems"])] for t in tables]
            print(render_rows("served decision tables",
                              ["table", "etag", "entries", "systems"],
                              rows))
            return 0
        reply = client.tables(args.system, args.collective, args.size,
                              table=args.table)
    if not reply.get("found"):
        print(f"no decision for {args.system}/{args.collective} "
              f"@ {args.size} B", file=sys.stderr)
        return 1
    decision = reply["decision"]
    print(f"decision for {args.system}/{args.collective} @ {args.size} B "
          f"(bucket {decision['bucket']}"
          f"{'' if decision['exact_bucket'] else ', nearest'}):")
    for key, value in sorted(decision["config"].items()):
        print(f"  {key}: {value}")
    if decision.get("latency_us") is not None:
        print(f"  tuned: {decision['latency_us']:.2f} us "
              f"(baseline {decision.get('baseline_us', 0) or 0:.2f} us)")
    print(f"  table: {decision['table']} (etag {decision['etag']})")
    if args.json:
        write_json(args.json, reply)
        print(f"[wrote decision to {args.json}]")
    return 0


def cmd_serve_stop(args) -> int:
    with _serve_client(args) as client:
        bye = client.shutdown()
    print(f"[daemon drained {bye.get('drained_jobs', 0)} job(s) and "
          f"stopped after {bye.get('uptime_s', 0):.0f}s]")
    return 0


def cmd_serve_metrics(args) -> int:
    with _serve_client(args) as client:
        reply = client.metrics()
    if args.prometheus:
        sys.stdout.write(reply.get("prometheus", ""))
        if args.json:
            write_json(args.json, reply)
        return 0
    snapshot = reply.get("metrics", {})
    rows = []
    for name, entry in sorted(snapshot.items()):
        if entry.get("type") == "histogram":
            value = f"n={entry.get('count', 0)} mean={entry.get('mean', 0):.4g}"
            pcts = " ".join(
                f"{p}={entry[p]:.4g}" for p in ("p50", "p95", "p99")
                if entry.get(p) is not None)
        else:
            v = entry.get("value", 0)
            value = f"{v:.4g}" if isinstance(v, float) else str(v)
            pcts = ""
        rows.append([name, entry.get("type", "?"), value, pcts])
    print(render_rows(f"serve metrics @ {args.socket or 'default socket'} "
                      f"(uptime {reply.get('uptime_s', 0):.0f}s)",
                      ["metric", "kind", "value", "percentiles"], rows))
    log_info = reply.get("event_log") or {}
    if log_info.get("path"):
        print(f"[event log: {log_info['path']} "
              f"({log_info.get('written', 0)} record(s), "
              f"{log_info.get('rotations', 0)} rotation(s))]")
    if args.json:
        write_json(args.json, reply)
        print(f"[wrote metrics to {args.json}]")
    return 0


def cmd_serve_trace(args) -> int:
    import json as json_mod

    from .obs.export import validate_chrome_trace

    with _serve_client(args) as client:
        reply = client.trace(args.job)
    doc = reply.get("trace")
    problems = validate_chrome_trace(doc)
    if problems:
        for problem in problems:
            print(f"invalid trace: {problem}", file=sys.stderr)
        return 1
    out = args.out
    if out is None:
        out = (f"results/serve/trace_job{args.job}.json"
               if args.job is not None else "results/serve/trace.json")
    directory = os.path.dirname(out)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(out, "w") as fh:
        json_mod.dump(doc, fh, indent=1)
        fh.write("\n")
    other = doc.get("otherData", {})
    scope = (f"job {args.job}" if args.job is not None
             else f"{other.get('jobs', '?')} job(s)")
    print(f"[wrote {scope}: {len(doc.get('traceEvents', []))} events "
          f"({other.get('spans', '?')} spans) to {out}; open in "
          f"https://ui.perfetto.dev]")
    return 0


def _top_frame(status: dict, metrics_reply: dict, socket_path: str) -> str:
    """One rendered frame of the live fleet view."""
    queue = status.get("queue", {})
    cache = status.get("cache") or {}
    snapshot = metrics_reply.get("metrics", {})
    lines = [
        f"serve top @ {socket_path} — "
        f"uptime {status.get('uptime_s', 0):.0f}s, "
        f"accepting={status.get('accepting')}",
        f"  jobs: {queue.get('submitted_jobs', 0)} submitted, "
        f"{queue.get('completed_jobs', 0)} completed; "
        f"{queue.get('pending_requests', 0)} request(s) queued in "
        f"{queue.get('pending_chunks', 0)} chunk(s); "
        f"in-flight chunks: {queue.get('inflight_chunks', 0)}",
        f"  cache: {cache.get('hits', 0)} hits / "
        f"{cache.get('misses', 0)} misses "
        f"(hit rate {100 * cache.get('hit_rate', 0.0):.0f}%), "
        f"{cache.get('entries', 0)} entries; "
        f"evictions {cache.get('evictions', 0)}, "
        f"quarantined {cache.get('quarantined', 0)}",
    ]
    job_hist = snapshot.get("serve.job.latency_seconds") or {}
    if job_hist.get("count"):
        pcts = " ".join(
            f"{p}={job_hist[p] * 1e3:.3g}ms" for p in ("p50", "p95", "p99")
            if job_hist.get(p) is not None)
        lines.append(f"  job latency: {pcts} "
                     f"(n={job_hist['count']}, "
                     f"mean={job_hist.get('mean', 0) * 1e3:.3g}ms)")
    totals = queue.get("tenant_totals", {})
    depths = queue.get("tenants", {})
    if totals:
        rows = [
            [tenant, counts.get("submitted", 0), counts.get("completed", 0),
             depths.get(tenant, {}).get("requests", 0)]
            for tenant, counts in sorted(totals.items())
        ]
        lines.append(render_rows(
            "tenants", ["tenant", "submitted", "completed", "queued"], rows))
    return "\n".join(lines)


def cmd_serve_top(args) -> int:
    import time  # lint: disable=RC101  (live-view refresh pacing)

    try:
        while True:
            with _serve_client(args) as client:
                status = client.status()
                metrics_reply = client.metrics()
                socket_path = client.socket_path
            frame = _top_frame(status, metrics_reply, socket_path)
            if args.once:
                print(frame)
                return 0
            # Clear-and-home between frames, like watch(1); keep it a
            # plain print so piping to a file still yields parseable
            # frames.
            print("\x1b[2J\x1b[H" + frame, flush=True)
            time.sleep(max(0.1, args.interval))
    except KeyboardInterrupt:
        return 0


def cmd_serve_manifest(args) -> int:
    from .serve import build_manifest, write_manifest

    if args.out:
        text = write_manifest(args.out, args.root,
                              state_dir=args.state_dir,
                              tables_root=args.tables)
        print(f"[wrote manifest ({len(text.splitlines())} lines) "
              f"to {args.out}]")
    else:
        print(build_manifest(args.root, state_dir=args.state_dir,
                             tables_root=args.tables))
    return 0


def cmd_serve(args) -> int:
    from .serve import ServeError

    try:
        return args.serve_fn(args)
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # The client wraps every daemon-socket failure in ServeError, so a
        # raw BrokenPipeError here means stdout went away (`... | head`).
        # Exit quietly, the way line-oriented Unix tools do.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except ConnectionResetError:
        print("error: connection to the daemon was lost", file=sys.stderr)
        return 1


def cmd_app(args) -> int:
    from .apps import run_cntk, run_miniamr, run_pisvm
    runners = {
        "pisvm": lambda f, n: run_pisvm(args.system, f, n,
                                        nranks=args.nranks),
        "miniamr": lambda f, n: run_miniamr(args.system, f, n,
                                            nranks=args.nranks,
                                            config=args.config),
        "cntk": lambda f, n: run_cntk(args.system, f, n,
                                      nranks=args.nranks),
    }
    names = (args.components.split(",") if args.components
             else ["tuned", "ucc", "xhc-tree"])
    rows = []
    for name in names:
        res = runners[args.app](COMPONENTS[name], name)
        rows.append([name, res.total_time * 1e3, res.collective_time * 1e3,
                     round(100 * res.mpi_fraction, 1)])
    print(render_rows(f"{args.app} on {args.system}",
                      ["component", "total_ms", "collective_ms", "mpi_%"],
                      rows))
    return 0


def cmd_check(args) -> int:
    from .check.lint import run_lint, write_fingerprint
    from .check.report import CheckReport

    if args.update_fingerprint:
        path = write_fingerprint()
        print(f"[regenerated sim fingerprint manifest at {path}]")

    # No selector = run everything (the CI default).
    run_all = not (args.lint or args.race or args.deadlock)
    report = CheckReport()

    if args.lint or run_all:
        lint_report = run_lint(paths=args.paths or None)
        report.extend(lint_report)
        print(f"[lint: {len(lint_report)} finding(s)]")

    if args.race or args.deadlock or run_all:
        from .check.runner import run_sanitized
        mode = "full" if (run_all or (args.race and args.deadlock)) else \
            ("race" if args.race else "deadlock")
        colls = args.colls.split(",") if args.colls else None
        sizes = (tuple(int(s) for s in args.sizes.split(","))
                 if args.sizes else None)
        workers = None if args.parallel < 0 else args.parallel
        kwargs = dict(system=args.system, nranks=args.nranks,
                      component=args.component, check=mode,
                      workers=workers)
        if colls:
            kwargs["colls"] = colls
        if sizes:
            kwargs["sizes"] = sizes
        dyn_report = run_sanitized(**kwargs)
        report.extend(dyn_report)
        print(f"[sanitizer ({mode}): {len(dyn_report)} finding(s)]")

    for finding in report:
        print(f"  {finding}")
    print(report.summary())
    if args.json:
        write_json(args.json, {"ok": report.ok,
                               "count": len(report),
                               "findings": [f.to_dict() for f in report]})
        print(f"[wrote findings to {args.json}]")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="XHC reproduction: simulated hierarchical single-copy "
                    "MPI collectives (CLUSTER 2022)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("topo", help="describe a machine + XHC hierarchy")
    p.add_argument("system", nargs="?", default="epyc-2p")
    p.add_argument("--spec", help="JSON topology spec file")
    p.add_argument("--hierarchy", default="numa+socket")
    p.add_argument("--root", type=int, default=0)
    p.set_defaults(fn=cmd_topo)

    p = sub.add_parser("bench", help="component sweep for one collective",
                       parents=[_system_flags(),
                                _json_flags("also write the table as JSON "
                                            "here"),
                                _exec_flags()])
    p.add_argument("collective", choices=["bcast", "allreduce"])
    p.add_argument("--nranks", type=int)
    p.add_argument("--components", help="comma-separated (default: paper set)")
    p.add_argument("--sizes", help="comma-separated bytes")
    p.add_argument("--warmup", type=int, default=1)
    p.add_argument("--iters", type=int, default=3)
    p.add_argument("--emit-bench", nargs="?", const="", default=None,
                   metavar="PATH",
                   help="write the perf-trajectory record (bare flag picks "
                        "the next free BENCH_<n>.json)")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "trace", help="observed single run: critical path + Perfetto JSON",
        parents=[_system_flags(),
                 _json_flags("also write the critical-path report here"),
                 _out_flags("Chrome-trace JSON path (default "
                            "results/trace_<system>_<coll>.json)")])
    p.add_argument("--coll", default="bcast",
                   choices=["bcast", "allreduce", "reduce", "barrier",
                            "gather", "alltoall"])
    p.add_argument("--size", type=int, default=65536)
    p.add_argument("--nranks", type=int)
    p.add_argument("--component", default="xhc-tree",
                   help="component name ('xhc' aliases xhc-tree)")
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--steps", action="store_true",
                   help="print every critical-path segment")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("figure", help="regenerate a paper figure/table",
                       parents=[_json_flags("also write the records as JSON "
                                            "here"),
                                _exec_flags()])
    p.add_argument("name", help=f"one of: {', '.join(sorted(FIGURES))}")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--csv", help="also write machine-readable records here")
    p.set_defaults(fn=cmd_figure)

    p = sub.add_parser(
        "tune", help="autotune XHC configs into a decision table",
        parents=[_json_flags("also write the full tuning report here"),
                 _out_flags("decision table path",
                            default="results/tuned/decision_table.json")])
    p.add_argument("--systems",
                   help="comma-separated (default: all three modeled)")
    p.add_argument("--collectives", help="comma-separated (default: "
                                         "bcast,allreduce)")
    p.add_argument("--sizes", help="comma-separated bytes "
                                   "(default: the paper sweep)")
    p.add_argument("--nranks", type=int,
                   help="override rank count (default: all cores)")
    p.add_argument("--quick", action="store_true",
                   help="trimmed grids, fewer sizes, <=64 ranks")
    p.add_argument("--budget", type=int,
                   help="max NEW simulations across the run")
    p.add_argument("--resume", action="store_true",
                   help="skip (system,collective,bucket) cells already in "
                        "the output table")
    p.add_argument("--workers", type=int,
                   help="simulation processes (0 = inline)")
    p.add_argument("--cache", default="results/tuned/cache.json")
    p.set_defaults(fn=cmd_tune)

    p = sub.add_parser(
        "check", help="lint the tree and/or sanitize collectives "
                      "(race/deadlock); no selector runs both",
        parents=[_system_flags(),
                 _json_flags("write findings as JSON here"),
                 _exec_flags(with_cache=False)])
    p.add_argument("--lint", action="store_true",
                   help="static AST lint only")
    p.add_argument("--race", action="store_true",
                   help="happens-before race sanitizer over an OSU sweep")
    p.add_argument("--deadlock", action="store_true",
                   help="proactive wait-for-graph analysis over the sweep")
    p.add_argument("--paths", nargs="*",
                   help="files/dirs to lint (default: package + tests + "
                        "benchmarks)")
    p.add_argument("--nranks", type=int,
                   help="ranks for the sanitizer sweep (default: all cores)")
    p.add_argument("--component", default="xhc-tree")
    p.add_argument("--colls", help="comma-separated (default: "
                                   "bcast,allreduce)")
    p.add_argument("--sizes", help="comma-separated bytes (default: "
                                   "1024,65536)")
    p.add_argument("--update-fingerprint", action="store_true",
                   help="regenerate the RC105 sim-semantics fingerprint "
                        "manifest (run after bumping SIM_VERSION)")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser(
        "perf", help="simulator perf suite: micro + macro benchmarks "
                     "(docs/performance.md)",
        parents=[_json_flags("write the full perf report as JSON here")])
    p.add_argument("--quick", action="store_true",
                   help="trimmed suite (2 macro sizes, fewer iters) for "
                        "CI smoke")
    p.add_argument("--repeats", type=int, default=1,
                   help="macro sweep repetitions (min is reported)")
    p.add_argument("--engine", choices=("event", "array", "both"),
                   default="event",
                   help="macro engine(s); 'both' adds per-point parity "
                        "and speedup rows (with --ci, a parity gate)")
    p.add_argument("--profile", action="store_true",
                   help="cProfile the macro workload and print the hot "
                        "list instead of timing")
    p.add_argument("--emit-bench", nargs="?", const="", default=None,
                   metavar="PATH",
                   help="write the perf record (bare flag picks the next "
                        "free BENCH_<n>.json)")
    p.add_argument("--assert-floor", type=float, default=None,
                   metavar="EV_PER_S",
                   help="exit 1 if the engine microbench runs below this "
                        "many events/second")
    p.add_argument("--ci", action="store_true",
                   help="assert the default events/second floor")
    p.add_argument("--baseline", type=float, default=None, metavar="SECS",
                   help="pre-optimization macro wall seconds (same "
                        "machine, interleaved) to compute speedup against")
    p.add_argument("--baseline-cpu", type=float, default=None,
                   metavar="SECS",
                   help="pre-optimization macro CPU seconds")
    p.add_argument("--note", help="free-form note recorded in the emitted "
                                  "record (methodology, host)")
    p.set_defaults(fn=cmd_perf)

    p = sub.add_parser(
        "serve", help="sweep service: daemon, clients, provenance "
                      "manifest (docs/serving.md)")
    serve_sub = p.add_subparsers(dest="serve_command", required=True)
    p.set_defaults(fn=cmd_serve)

    from .exec import DEFAULT_CACHE_PATH
    sp = serve_sub.add_parser(
        "start", help="run the daemon in the foreground",
        parents=[_serve_flags()])
    sp.add_argument("--parallel", type=int, default=0, metavar="N",
                    help="simulation worker processes (0 = inline, the "
                         "default; negative = pick from CPU count)")
    sp.add_argument("--cache", default=DEFAULT_CACHE_PATH, metavar="PATH",
                    help="sharded result store root "
                         f"(default: {DEFAULT_CACHE_PATH})")
    sp.add_argument("--tables", default=None, metavar="DIR",
                    help="tuned decision-table directory "
                         "(default: results/tuned)")
    sp.add_argument("--state-dir", default=None, metavar="DIR",
                    help="request-ledger directory "
                         "(default: results/serve)")
    sp.add_argument("--batch-size", type=int, default=8, metavar="N",
                    help="requests per fairness chunk (default: 8)")
    sp.add_argument("--max-entries", type=int, default=None, metavar="N",
                    help="evict the store down to N entries on flush")
    sp.add_argument("--max-bytes", type=int, default=None, metavar="N",
                    help="evict the store down to N payload bytes on flush")
    sp.add_argument("--no-telemetry", action="store_true",
                    help="disable job-lifecycle telemetry (spans, latency "
                         "histograms, event log; docs/observability.md)")
    sp.set_defaults(fn=cmd_serve, serve_fn=cmd_serve_start)

    sp = serve_sub.add_parser(
        "submit", help="submit a sweep and stream its progress",
        parents=[_serve_flags(), _system_flags(),
                 _json_flags("also write results + provenance here")])
    sp.add_argument("collective", choices=["bcast", "allreduce"])
    sp.add_argument("--nranks", type=int)
    sp.add_argument("--components",
                    help="comma-separated (default: paper set)")
    sp.add_argument("--sizes", help="comma-separated bytes")
    sp.add_argument("--warmup", type=int, default=1)
    sp.add_argument("--iters", type=int, default=3)
    sp.add_argument("--tenant", default="default",
                    help="fairness identity; concurrent tenants share the "
                         "daemon round-robin (default: 'default')")
    sp.set_defaults(fn=cmd_serve, serve_fn=cmd_serve_submit)

    sp = serve_sub.add_parser(
        "status", help="daemon health: queue, store, metrics",
        parents=[_serve_flags(),
                 _json_flags("write the raw status event here")])
    sp.set_defaults(fn=cmd_serve, serve_fn=cmd_serve_status)

    sp = serve_sub.add_parser(
        "tables", help="look up a tuned decision (or list served tables)",
        parents=[_serve_flags(),
                 _json_flags("write the raw decision event here")])
    sp.add_argument("--system", default=None,
                    help="target system (omit to list served tables)")
    sp.add_argument("--collective", default="bcast",
                    choices=["bcast", "allreduce"])
    sp.add_argument("--size", type=int, default=65536, metavar="BYTES")
    sp.add_argument("--table", default=None,
                    help="table filename under the served root "
                         "(default: decision_table.json)")
    sp.set_defaults(fn=cmd_serve, serve_fn=cmd_serve_tables)

    sp = serve_sub.add_parser(
        "metrics", help="scrape telemetry: table, JSON, or Prometheus",
        parents=[_serve_flags(),
                 _json_flags("write the raw metrics event here")])
    sp.add_argument("--prometheus", action="store_true",
                    help="print the Prometheus text exposition instead "
                         "of the table")
    sp.set_defaults(fn=cmd_serve, serve_fn=cmd_serve_metrics)

    sp = serve_sub.add_parser(
        "trace", help="export a Perfetto job-lifecycle trace",
        parents=[_serve_flags()])
    sp.add_argument("--job", type=int, default=None, metavar="ID",
                    help="one job's span tree (default: every retained "
                         "job)")
    sp.add_argument("--out", default=None, metavar="PATH",
                    help="trace file (default: "
                         "results/serve/trace[_jobID].json)")
    sp.set_defaults(fn=cmd_serve, serve_fn=cmd_serve_trace)

    sp = serve_sub.add_parser(
        "top", help="live fleet view: tenants, queues, latency "
                    "percentiles",
        parents=[_serve_flags()])
    sp.add_argument("--interval", type=float, default=2.0, metavar="SECS",
                    help="refresh period (default: 2.0)")
    sp.add_argument("--once", action="store_true",
                    help="print one frame and exit (scripts, CI)")
    sp.set_defaults(fn=cmd_serve, serve_fn=cmd_serve_top)

    sp = serve_sub.add_parser(
        "stop", help="drain in-flight jobs and stop the daemon",
        parents=[_serve_flags()])
    sp.set_defaults(fn=cmd_serve, serve_fn=cmd_serve_stop)

    sp = serve_sub.add_parser(
        "manifest", help="render the provenance ledger (offline)",
        parents=[_out_flags("write the manifest here instead of stdout")])
    sp.add_argument("--root", default=".",
                    help="repo checkout to index (default: .)")
    sp.add_argument("--state-dir", default=None, metavar="DIR",
                    help="request-ledger directory "
                         "(default: <root>/results/serve)")
    sp.add_argument("--tables", default=None, metavar="DIR",
                    help="decision-table directory "
                         "(default: <root>/results/tuned)")
    sp.set_defaults(fn=cmd_serve, serve_fn=cmd_serve_manifest)

    p = sub.add_parser("app", help="run an application skeleton",
                       parents=[_system_flags()])
    p.add_argument("app", choices=["pisvm", "miniamr", "cntk"])
    p.add_argument("--nranks", type=int)
    p.add_argument("--components")
    p.add_argument("--config", default="default",
                   help="miniAMR config (default | refine-1k)")
    p.set_defaults(fn=cmd_app)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
