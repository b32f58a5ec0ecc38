"""Per-figure/table drivers regenerating the paper's evaluation (SSV).

Every driver returns a :class:`FigureResult` whose ``text`` holds the
rendered rows/series matching the paper's presentation; ``data`` holds the
raw numbers for assertions. Pass ``quick=True`` for a trimmed
configuration (used by the test suite; the full configuration is what the
``benchmarks/`` targets run).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..apps import run_cntk, run_miniamr, run_pisvm
from ..exec import RunRequest, run_many
from ..mpi import World
from ..node import Node
from ..options import RunOptions
from ..shmem.smsc import SmscConfig
from ..sim import primitives as P
from ..sim.syncobj import Flag
from ..sim.trace import count_message_distances
from ..topology import Distance, classify_distance, get_system
from ..topology.objects import ObjKind
from .components import COMPONENTS, component_names, make_component
from .osu import DEFAULT_SIZES, OsuSeries, osu_allreduce, osu_bcast
from .report import render_rows, render_series_table

QUICK_SIZES = (4, 256, 4096, 65536, 1048576)
QUICK_ITERS = dict(warmup=1, iters=2)
FULL_ITERS = dict(warmup=1, iters=5)


@dataclass
class FigureResult:
    name: str
    text: str
    data: dict = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover
        return self.text

    def to_records(self) -> list[dict]:
        """Flatten ``data`` into machine-readable records.

        OsuSeries values expand into one record per (series, size); other
        values become one record per key. Tuple keys turn into
        ``key0, key1, ...`` columns.
        """
        records: list[dict] = []
        for key, value in self.data.items():
            parts = key if isinstance(key, tuple) else (key,)
            base = {f"key{i}": str(p) for i, p in enumerate(parts)}
            if isinstance(value, OsuSeries):
                for size in value.latency:
                    records.append({**base, "size": size,
                                    "latency_s": value.latency[size]})
            elif isinstance(value, dict):
                records.append({**base, **{str(k): v
                                            for k, v in value.items()}})
            elif hasattr(value, "total_time"):  # AppResult
                records.append({**base,
                                "total_s": value.total_time,
                                "collective_s": value.collective_time})
            else:
                records.append({**base, "value": value})
        return records

    def write_csv(self, path) -> None:
        import csv
        records = self.to_records()
        fields: list[str] = []
        for rec in records:
            for k in rec:
                if k not in fields:
                    fields.append(k)
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            writer.writerows(records)


def _iters(quick: bool) -> dict:
    return QUICK_ITERS if quick else FULL_ITERS


def _sizes(quick: bool, sizes=DEFAULT_SIZES):
    return QUICK_SIZES if quick else sizes


def _nranks(system: str, quick: bool) -> int:
    full = get_system(system).n_cores
    if quick and full > 64:
        return 64
    return full


# -- Table I --------------------------------------------------------------


def table1_systems() -> FigureResult:
    rows = []
    for name in ("epyc-1p", "epyc-2p", "arm-n1"):
        topo = get_system(name)
        rows.append([
            topo.name, topo.machine.attrs.get("processor", "?"),
            topo.machine.attrs.get("arch", "?"), topo.n_cores,
            topo.count(ObjKind.NUMA), topo.count(ObjKind.SOCKET),
        ])
    text = render_rows("Table I — Evaluation systems",
                       ["Codename", "Processor", "Arch", "Cores", "NUMA",
                        "Sockets"], rows)
    return FigureResult("table1", text, {"rows": rows})


# -- Fig. 1a: performance across topological domains -------------------------


def _pair_at_distance(system: str, dist: Distance) -> tuple[int, int] | None:
    topo = get_system(system)
    for b in range(1, topo.n_cores):
        if classify_distance(topo, 0, b) is dist:
            return (0, b)
    return None


def _pingpong_request(system, pair, size, *, smsc=None, **iters) -> RunRequest:
    return RunRequest(system=system, collective="pingpong", size=size,
                      nranks=2, component="tuned", mapping=pair,
                      smsc=smsc, **iters)


def fig1a_domains(quick: bool = False, size: int = 1 << 20) -> FigureResult:
    cells = []
    for system in ("epyc-1p", "epyc-2p", "arm-n1"):
        for dist in (Distance.CACHE_LOCAL, Distance.INTRA_NUMA,
                     Distance.CROSS_NUMA, Distance.CROSS_SOCKET):
            pair = _pair_at_distance(system, dist)
            if pair is None:
                continue
            cells.append((system, dist.label,
                          _pingpong_request(system, pair, size,
                                            **_iters(quick))))
    results = run_many([req for _, _, req in cells])
    rows = []
    data: dict = {}
    for (system, label, _req), res in zip(cells, results):
        rows.append([system, label, res.latency_s * 1e6])
        data[(system, label)] = res.latency_s
    text = render_rows("Fig. 1a — One-way latency (1 MB) across domains",
                       ["system", "domain", "latency_us"], rows)
    return FigureResult("fig1a", text, data)


# -- Fig. 1b: fan-out congestion, flat vs hierarchical ------------------------


def fig1b_congestion(quick: bool = False, size: int = 1 << 20,
                     observed_rank: int = 7) -> FigureResult:
    """Concurrent 1 MB copies from a root on Epyc-1P: the observed rank's
    copy time under a flat tree vs a NUMA-wise two-level hierarchy."""
    topo = get_system("epyc-1p")
    counts = (8, 16, 24, 32) if not quick else (8, 32)
    rows = []
    data: dict = {}
    for scheme in ("flat", "hierarchical"):
        for n in counts:
            node = Node(get_system("epyc-1p"),
                        options=RunOptions(data_movement=False))
            spaces = [node.new_address_space(r, r) for r in range(n)]
            src_buf = spaces[0].alloc("src", size)
            bufs = [sp.alloc("dst", size) for sp in spaces]
            numa_first = sorted({
                min(c for c in numa.cpuset() if c < n)
                for numa in node.topo.objects(ObjKind.NUMA)
                if any(c < n for c in numa.cpuset())
            })
            leaders = set(numa_first)
            root_avail = Flag("f1b.root", 0)
            leader_avail = {r: Flag(f"f1b.l{r}", r) for r in leaders}
            durations: dict[int, float] = {}

            def program(r):
                if r == 0:
                    yield P.Copy(src=bufs[0].whole(), dst=src_buf.whole())
                    yield P.SetFlag(root_avail, 1)
                    return
                hierarchical = scheme == "hierarchical"
                my_leader = max(l for l in leaders
                                if node.topo.numa_of_core(l)
                                is node.topo.numa_of_core(r)) \
                    if hierarchical else 0
                if hierarchical and r in leaders:
                    my_leader = 0
                if my_leader == 0:
                    yield P.WaitFlag(root_avail, 1)
                    src = src_buf
                else:
                    yield P.WaitFlag(leader_avail[my_leader], 1)
                    src = bufs[my_leader]
                t0 = node.engine.now
                yield P.Copy(src=src.whole(), dst=bufs[r].whole())
                durations[r] = node.engine.now - t0
                if hierarchical and r in leaders:
                    yield P.SetFlag(leader_avail[r], 1)

            for r in range(n):
                node.engine.spawn(program(r), core=r, name=f"r{r}")
            node.engine.run()
            rows.append([scheme, n, durations[observed_rank] * 1e6])
            data[(scheme, n)] = durations[observed_rank]
    text = render_rows(
        "Fig. 1b — 1 MB copy time of one rank vs participants (Epyc-1P)",
        ["scheme", "ranks", "copy_time_us"], rows)
    return FigureResult("fig1b", text, data)


# -- Fig. 3: single-copy mechanisms -----------------------------------------

MECH_CONFIGS = {
    "xpmem": SmscConfig(mechanism="xpmem"),
    "xpmem-nocache": SmscConfig(mechanism="xpmem", use_regcache=False),
    "knem": SmscConfig(mechanism="knem"),
    "cma": SmscConfig(mechanism="cma"),
    "cico": SmscConfig(mechanism=None),
}

FIG3_SIZES = (16384, 65536, 262144, 1048576, 4194304)


def fig3_mechanisms(quick: bool = False) -> FigureResult:
    sizes = FIG3_SIZES if not quick else (65536, 1048576)
    p2p_requests = [
        _pingpong_request("epyc-2p", (0, 8), size, smsc=cfg, **_iters(quick))
        for cfg in MECH_CONFIGS.values() for size in sizes
    ]
    p2p_results = iter(run_many(p2p_requests))
    p2p_series = []
    bc_series = []
    for mech, cfg in MECH_CONFIGS.items():
        s = OsuSeries(label=mech)
        for size in sizes:
            s.add(size, next(p2p_results).latency_s)
        p2p_series.append(s)
        bc_series.append(osu_bcast(
            "epyc-2p", 64 if not quick else 32, "tuned",
            sizes=sizes, label=mech, smsc=cfg, **_iters(quick)))
    text = (render_series_table(
        "Fig. 3a — Point-to-point latency (us) by copy mechanism (Epyc-2P)",
        p2p_series)
        + "\n\n" + render_series_table(
            "Fig. 3b — Broadcast latency (us) by copy mechanism (Epyc-2P)",
            bc_series))
    data = {("p2p", s.label): s for s in p2p_series}
    data.update({("bcast", s.label): s for s in bc_series})
    return FigureResult("fig3", text, data)


# -- Fig. 4: atomics vs single-writer ----------------------------------------


def fig4_atomics(quick: bool = False, size: int = 4) -> FigureResult:
    counts = (10, 20, 40, 80, 120, 160) if not quick else (10, 80, 160)
    schemes = (("single-writer", "smhc-flat"), ("atomics", "sm"))
    results = iter(run_many([
        RunRequest(system="arm-n1", collective="bcast", size=size,
                   nranks=n, component=comp, **_iters(quick))
        for _label, comp in schemes for n in counts
    ]))
    series = []
    data: dict = {}
    for label, _comp in schemes:
        s = OsuSeries(label=label)
        for n in counts:
            lat = next(results).latency_s
            s.add(n, lat)
            data[(label, n)] = lat
        series.append(s)
    rows = [[n] + [ser.latency[n] * 1e6 for ser in series] for n in counts]
    text = render_rows(
        "Fig. 4 — Broadcast (4 B) latency vs ranks: sync schemes (ARM-N1)",
        ["ranks"] + [s.label + "_us" for s in series], rows)
    return FigureResult("fig4", text, data)


# -- Fig. 7: osu_bcast vs osu_bcast_mb ----------------------------------------


def fig7_osu_variants(quick: bool = False) -> FigureResult:
    n = 64 if not quick else 32
    sizes = _sizes(quick)
    series = []
    for hierarchy, hname in (("flat", "flat"), ("numa+socket", "tree")):
        for modify, mname in ((False, "osu_bcast"), (True, "osu_bcast_mb")):
            series.append(osu_bcast(
                "epyc-2p", n, f"xhc-{hname}", sizes=sizes,
                label=f"{hname}/{mname}", modify=modify, **_iters(quick)))
    text = render_series_table(
        "Fig. 7 — osu_bcast variants, XHC flat vs tree (Epyc-2P, us)",
        series)
    return FigureResult("fig7", text, {s.label: s for s in series})


# -- Fig. 8 / Fig. 11: main microbenchmark comparisons -----------------------


def _component_sweep(kind: str, system: str, quick: bool) -> FigureResult:
    n = _nranks(system, quick)
    sizes = _sizes(quick)
    names = component_names(kind, system)
    runner = osu_bcast if kind == "bcast" else osu_allreduce
    series = [
        runner(system, n, name, sizes=sizes, label=name,
               **_iters(quick))
        for name in names
    ]
    fig = "Fig. 8" if kind == "bcast" else "Fig. 11"
    text = render_series_table(
        f"{fig} — MPI {kind.capitalize()} latency ({system}, "
        f"{n} ranks, us)", series)
    return FigureResult(f"{fig}:{system}", text, {s.label: s for s in series})


def fig8_bcast(system: str, quick: bool = False) -> FigureResult:
    return _component_sweep("bcast", system, quick)


def fig11_allreduce(system: str, quick: bool = False) -> FigureResult:
    return _component_sweep("allreduce", system, quick)


# -- Fig. 9 + Table II: layout and root sensitivity ---------------------------


def fig9_layout_root(quick: bool = False) -> FigureResult:
    n = 64 if not quick else 32
    sizes = _sizes(quick)
    series = []
    for comp in ("tuned", "xhc-tree"):
        for mapping in ("core", "numa"):
            series.append(osu_bcast(
                "epyc-2p", n, comp, sizes=sizes,
                label=f"{comp}/map-{mapping}", mapping=mapping,
                **_iters(quick)))
        series.append(osu_bcast(
            "epyc-2p", n, comp, sizes=sizes,
            label=f"{comp}/root10", root=10 % n, **_iters(quick)))
    text = render_series_table(
        "Fig. 9 — Broadcast under rank layouts and root ranks "
        "(Epyc-2P, us)", series)
    return FigureResult("fig9", text, {s.label: s for s in series})


def _count_messages(system: str, nranks: int, component: str, mapping,
                    root: int, size: int = 1 << 20) -> dict[str, int]:
    # The messages are the observer's instants; observing moves no
    # simulated time.
    node = Node(get_system(system),
                options=RunOptions(data_movement=False, observe="spans"))
    world = World(node, nranks, mapping=mapping)
    comm = world.communicator(make_component(component))

    def program(comm_, ctx):
        buf = ctx.alloc("t2", size)
        yield from comm_.bcast(ctx, buf.whole(), root)

    comm.run(program)
    return count_message_distances(node)


def table2_message_counts(quick: bool = False) -> FigureResult:
    n = 64
    scenarios = [
        ("tuned", "core", 0, "map-core"),
        ("tuned", "numa", 0, "map-numa"),
        ("tuned", "core", 10, "root=10"),
        ("xhc-tree", "core", 0, "map-core"),
        ("xhc-tree", "numa", 0, "map-numa"),
        ("xhc-tree", "core", 10, "root=10"),
    ]
    rows = []
    data: dict = {}
    for comp, mapping, root, label in scenarios:
        counts = _count_messages("epyc-2p", n, comp, mapping, root)
        rows.append([comp, label, counts["inter-socket"],
                     counts["inter-numa"], counts["intra-numa"]])
        data[(comp, label)] = counts
    text = render_rows(
        "Table II — Number and distance of exchanged messages (Epyc-2P)",
        ["component", "scenario", "inter-socket", "inter-numa",
         "intra-numa"], rows)
    return FigureResult("table2", text, data)


# -- Fig. 10: cache-line sharing of synchronization flags --------------------


def fig10_cacheline(quick: bool = False) -> FigureResult:
    sizes = (4, 16, 64, 256, 1024) if not quick else (4, 256)
    series = []
    for hierarchy, hname in (("flat", "flat"), ("numa+socket", "tree")):
        for layout in ("multi-shared", "multi-separate"):
            spec = ("xhc", {"hierarchy": hierarchy, "flag_layout": layout})
            series.append(osu_bcast(
                "epyc-1p", 32, spec, sizes=sizes,
                label=f"{hname}/{layout.split('-')[1]}", **_iters(quick)))
    text = render_series_table(
        "Fig. 10 — Broadcast: flag cache-line sharing schemes "
        "(Epyc-1P, us)", series)
    return FigureResult("fig10", text, {s.label: s for s in series})


# -- Figs. 12-14: applications ---------------------------------------------

APP_SYSTEMS = ("epyc-1p", "epyc-2p", "arm-n1")


def _app_figure(name: str, title: str, runner, components: Sequence[str],
                quick: bool, **app_kw) -> FigureResult:
    systems = ("epyc-2p",) if quick else APP_SYSTEMS
    rows = []
    data: dict = {}
    for system in systems:
        nranks = 32 if quick else None
        for comp in components:
            res = runner(system, COMPONENTS[comp], comp, nranks=nranks,
                         **app_kw)
            rows.append([system, comp, res.total_time * 1e3,
                         res.collective_time * 1e3,
                         round(100 * res.mpi_fraction, 1)])
            data[(system, comp)] = res
    text = render_rows(title, ["system", "component", "total_ms",
                               "collective_ms", "mpi_%"], rows)
    return FigureResult(name, text, data)


def fig12_pisvm(quick: bool = False) -> FigureResult:
    comps = ["tuned", "ucc", "smhc-flat", "smhc-tree", "xhc-flat",
             "xhc-tree"]
    return _app_figure(
        "fig12", "Fig. 12 — PiSvM performance", run_pisvm, comps, quick,
        iterations=10 if quick else 40)


def fig13_miniamr(config: str = "default", quick: bool = False) -> FigureResult:
    comps = ["tuned", "ucc", "xbrc", "xhc-flat", "xhc-tree"]
    return _app_figure(
        f"fig13:{config}",
        f"Fig. 13 — miniAMR performance ({config})",
        run_miniamr, comps, quick, config=config)


def fig14_cntk(quick: bool = False) -> FigureResult:
    comps = ["tuned", "ucc", "xbrc", "xhc-flat", "xhc-tree"]
    return _app_figure(
        "fig14", "Fig. 14 — CNTK performance (AlexNet-scale SGD)",
        run_cntk, comps, quick,
        minibatches=2 if quick else 8)
