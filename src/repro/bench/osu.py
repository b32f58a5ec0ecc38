"""OSU-microbenchmark-style drivers (SSV-A).

Each collective benchmark runs warmup + measured iterations inside one
simulation and reports the mean per-rank latency, exactly like
``osu_bcast`` / ``osu_allreduce``. The ``modify`` option is the paper's
``_mb`` variant: the transmitted buffer is rewritten (a *simulated* write,
so caches invalidate) before every iteration — without it the benchmark
measures the unrealistic hot-cache scenario the paper dissects in Fig. 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..mpi import FLOAT, SUM, World
from ..node import Node
from ..options import RunOptions
from ..shmem.smsc import SmscConfig
from ..sim import primitives as P

DEFAULT_SIZES = (4, 16, 64, 256, 1024, 4096, 16384, 65536,
                 262144, 1048576, 4194304)


@dataclass
class OsuSeries:
    """Mean latency (seconds) per message size for one configuration."""

    label: str
    sizes: list[int] = field(default_factory=list)
    latency: dict[int, float] = field(default_factory=dict)

    def add(self, size: int, value: float) -> None:
        self.sizes.append(size)
        self.latency[size] = value

    def us(self, size: int) -> float:
        return self.latency[size] * 1e6


def _pairwise_sum(x, lo: int, n: int) -> float:
    """numpy's pairwise summation, element-for-element.

    The golden latency fixtures were recorded when this module averaged
    samples with ``np.mean``; numpy is now an optional extra, so the
    mean is computed here — in the exact floating-point operation order
    numpy uses (naive below 8, eight-way unrolled up to a 128 block,
    recursive halving above) — to keep every recorded fixture bit-true.
    math.fsum would be off by an ulp on some cells.
    """
    if n < 8:
        res = 0.0
        for i in range(n):
            res += x[lo + i]
        return res
    if n <= 128:
        r = x[lo:lo + 8]
        i = 8
        while i + 8 <= n:
            for j in range(8):
                r[j] += x[lo + i + j]
            i += 8
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        while i < n:
            res += x[lo + i]
            i += 1
        return res
    n2 = (n // 2) - ((n // 2) % 8)
    return _pairwise_sum(x, lo, n2) + _pairwise_sum(x, lo + n2, n - n2)


def _mean(samples: "list[float]") -> float:
    return _pairwise_sum(samples, 0, len(samples)) / len(samples)


def _modify(scratch, view):
    """A simulated full rewrite of ``view`` (invalidates peer caches)."""
    return P.Copy(src=scratch.view(0, view.length), dst=view)


def run_collective(
    kind: str,
    system: str,
    nranks: int,
    component_factory: Callable[[], object],
    size: int,
    *,
    warmup: int = 1,
    iters: int = 5,
    modify: bool = True,
    mapping="core",
    root: int = 0,
    smsc: SmscConfig | None = None,
    data_movement: bool = False,
    options: RunOptions | None = None,
    node: Node | None = None,
) -> float:
    """One (configuration, size) cell: mean per-rank collective latency."""
    if node is None:
        from ..exec.worker import get_topology
        if options is None:
            options = RunOptions(data_movement=data_movement)
        node = Node(get_topology(system), options=options)
    world = World(node, nranks, mapping=mapping, smsc=smsc)
    comm = world.communicator(component_factory())
    samples: list[float] = []

    def program(comm, ctx):
        me = comm.rank_of(ctx)
        scratch = ctx.alloc("osu.scratch", size)
        if kind == "bcast":
            buf = ctx.alloc("osu.buf", size)
            for it in range(warmup + iters):
                if modify and me == root:
                    yield _modify(scratch, buf.whole())
                t0 = ctx.now
                yield from comm.bcast(ctx, buf.whole(), root)
                if it >= warmup:
                    samples.append(ctx.now - t0)
        elif kind == "allreduce":
            sbuf = ctx.alloc("osu.sbuf", size)
            rbuf = ctx.alloc("osu.rbuf", size)
            for it in range(warmup + iters):
                if modify:
                    yield _modify(scratch, sbuf.whole())
                t0 = ctx.now
                yield from comm.allreduce(ctx, sbuf.whole(), rbuf.whole(),
                                          SUM, FLOAT)
                if it >= warmup:
                    samples.append(ctx.now - t0)
        elif kind == "reduce":
            sbuf = ctx.alloc("osu.sbuf", size)
            rbuf = ctx.alloc("osu.rbuf", size) if me == root else None
            for it in range(warmup + iters):
                if modify:
                    yield _modify(scratch, sbuf.whole())
                t0 = ctx.now
                yield from comm.reduce(
                    ctx, sbuf.whole(),
                    None if rbuf is None else rbuf.whole(),
                    SUM, FLOAT, root)
                if it >= warmup:
                    samples.append(ctx.now - t0)
        elif kind == "barrier":
            for it in range(warmup + iters):
                t0 = ctx.now
                yield from comm.barrier(ctx)
                if it >= warmup:
                    samples.append(ctx.now - t0)
        elif kind == "gather":
            sbuf = ctx.alloc("osu.sbuf", size)
            rbuf = (ctx.alloc("osu.rbuf", size * comm.size)
                    if me == root else None)
            for it in range(warmup + iters):
                if modify:
                    yield _modify(scratch, sbuf.whole())
                t0 = ctx.now
                yield from comm.gather(
                    ctx, sbuf.whole(),
                    None if rbuf is None else rbuf.whole(), root)
                if it >= warmup:
                    samples.append(ctx.now - t0)
        elif kind == "alltoall":
            sbuf = ctx.alloc("osu.sbuf", size * comm.size)
            rbuf = ctx.alloc("osu.rbuf", size * comm.size)
            big_scratch = ctx.alloc("osu.scr2", size * comm.size)
            for it in range(warmup + iters):
                if modify:
                    yield _modify(big_scratch, sbuf.whole())
                t0 = ctx.now
                yield from comm.alltoall(ctx, sbuf.whole(), rbuf.whole())
                if it >= warmup:
                    samples.append(ctx.now - t0)
        else:
            raise ValueError(f"unknown collective kind {kind!r}")

    comm.run(program)
    return _mean(samples)


def _component_spec(component) -> "tuple[str, dict | None] | None":
    """Normalize a sweep's component argument into (name, config).

    Accepts a registry name (``"xhc-tree"``), a ``(name, config_dict)``
    pair, or — the legacy form — an arbitrary factory callable, for which
    ``None`` is returned: un-addressable components cannot go through the
    executor's cache, so they run inline.
    """
    if isinstance(component, str):
        return component, None
    if isinstance(component, tuple) and len(component) == 2 \
            and isinstance(component[0], str):
        return component[0], dict(component[1])
    return None


def _sweep(kind, system, nranks, component, sizes, label,
           executor=None, **kw) -> OsuSeries:
    """Sweep ``sizes`` through :mod:`repro.exec` (parallel + cached when
    the ambient executor says so); factory callables fall back to the
    inline loop."""
    spec = _component_spec(component)
    series = OsuSeries(label=label)
    if spec is None:
        for size in sizes:
            series.add(size, run_collective(kind, system, nranks,
                                            component, size, **kw))
        return series
    from .. import exec as exec_mod
    name, config = spec
    requests = [
        exec_mod.RunRequest(
            system=system, collective=kind, size=size, nranks=nranks,
            component=name, config=config,
            warmup=kw.get("warmup", 1), iters=kw.get("iters", 5),
            modify=kw.get("modify", True), mapping=kw.get("mapping", "core"),
            root=kw.get("root", 0), smsc=kw.get("smsc"),
            options=kw.get("options") or RunOptions(
                data_movement=kw.get("data_movement", False)),
        )
        for size in sizes
    ]
    for size, result in zip(sizes, exec_mod.run_many(requests,
                                                     executor=executor)):
        if result is not None and result.latency_s is not None:
            series.add(size, result.latency_s)
    return series


def osu_bcast(system, nranks, component, sizes=DEFAULT_SIZES,
              label="bcast", **kw) -> OsuSeries:
    return _sweep("bcast", system, nranks, component, sizes, label,
                  **kw)


def osu_allreduce(system, nranks, component, sizes=DEFAULT_SIZES,
                  label="allreduce", **kw) -> OsuSeries:
    return _sweep("allreduce", system, nranks, component, sizes,
                  label, **kw)


def osu_latency(
    system: str,
    cores: tuple[int, int],
    size: int,
    *,
    warmup: int = 1,
    iters: int = 5,
    smsc: SmscConfig | None = None,
    modify: bool = True,
    node: Node | None = None,
) -> float:
    """Ping-pong one-way latency between two pinned ranks (osu_latency)."""
    if node is None:
        from ..exec.worker import get_topology
        node = Node(get_topology(system),
                    options=RunOptions(data_movement=False))
    world = World(node, 2, mapping=list(cores), smsc=smsc)
    from ..mpi.colls import Tuned
    comm = world.communicator(Tuned())
    samples: list[float] = []

    def program(comm, ctx):
        me = comm.rank_of(ctx)
        buf = ctx.alloc("pingpong", size)
        scratch = ctx.alloc("pp.scratch", size)
        for it in range(warmup + iters):
            t0 = ctx.now
            if me == 0:
                if modify:
                    yield _modify(scratch, buf.whole())
                yield from comm.send(ctx, buf.whole(), 1)
                yield from comm.recv(ctx, buf.whole(), 1)
                if it >= warmup:
                    samples.append((ctx.now - t0) / 2)
            else:
                yield from comm.recv(ctx, buf.whole(), 0)
                if modify:
                    yield _modify(scratch, buf.whole())
                yield from comm.send(ctx, buf.whole(), 0)

    comm.run(program)
    return _mean(samples)
