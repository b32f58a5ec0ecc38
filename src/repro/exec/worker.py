"""Execution of requests — inline or inside a pool worker process.

:func:`execute` is the single place in the repo that turns a
:class:`~repro.exec.request.RunRequest` into a measured latency; every
entry point (bench, figures, tune, check, obs) funnels through it. The
module is import-light so pool workers fork cheaply; the heavy imports
(benchmark drivers, component registry) happen lazily on first use.

Topologies are memoized per process: a warm pool worker builds Epyc-2P or
ARM-N1 once and amortizes it across every batch it is handed, which is
where most of the non-simulation overhead of a sweep used to go. The
memoized :class:`~repro.topology.objects.Topology` is read-only after
construction (each run still gets a fresh :class:`~repro.node.Node`), so
reuse cannot leak state between measurements — batched results are
bit-identical to serial ones.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from ..errors import DeadlockError
from .request import RunRequest, RunResult

if TYPE_CHECKING:  # pragma: no cover
    from ..topology.objects import Topology

# Per-process memo: {system codename: Topology}. Populated lazily; lives
# for the worker's lifetime, which is exactly the warm-worker win. LRU-
# bounded: a long-lived pool worker handed sweeps over many systems (or
# many ad-hoc spec files) must not accumulate one Topology per codename
# forever. Insertion order is the recency order — a hit re-inserts.
_TOPO_MEMO: dict[str, "Topology"] = {}
_TOPO_MEMO_CAP = 4


def get_topology(system: str) -> "Topology":
    """The (per-process memoized) topology of a named system.

    Eviction is invisible to results: a Topology is a pure function of
    its codename and is read-only after construction, so rebuilding an
    evicted one yields an equivalent object (asserted by the exec tests).
    """
    topo = _TOPO_MEMO.pop(system, None)
    if topo is None:
        from ..topology import get_system
        topo = get_system(system)
        if len(_TOPO_MEMO) >= _TOPO_MEMO_CAP:
            del _TOPO_MEMO[next(iter(_TOPO_MEMO))]
    _TOPO_MEMO[system] = topo
    return topo


def resolve_component(component: str,
                      config: dict | None) -> Callable[[], object]:
    """Turn a request's component spec into a fresh-instance factory.

    ``config`` only combines with the ``"xhc"`` component (an explicit
    :class:`~repro.xhc.config.XhcConfig`); registry names take their
    configuration from the registry.
    """
    if config is not None:
        if component not in ("xhc", "xhc-flat", "xhc-tree"):
            raise ValueError(
                f"config= only applies to the 'xhc' component, "
                f"not {component!r}")
        from ..xhc import Xhc, XhcConfig
        kwargs = dict(config)
        chunk = kwargs.get("chunk_size")
        if isinstance(chunk, list):
            kwargs["chunk_size"] = tuple(chunk)
        cfg = XhcConfig(**kwargs)
        return lambda: Xhc(config=cfg, name=component)
    from ..bench.components import make_component
    return lambda: make_component(component)


def execute(request: RunRequest, *, keep_node: bool = False) -> RunResult:
    """Run one request to completion and measure it.

    A :class:`~repro.errors.DeadlockError` raised by the engine (a real
    finding for sanitized runs) is converted into ``result.error`` plus a
    deadlock finding instead of aborting a sweep; all other exceptions
    propagate. ``keep_node=True`` attaches the live node to the result
    (inline callers only — obs/trace want the spans, not just the time).
    """
    from ..bench.osu import osu_latency, run_collective
    from ..node import Node

    topo = get_topology(request.system)
    options = request.options
    node = Node(topo, options=options)
    findings: list[dict] = []
    error: dict | None = None
    latency: float | None = None
    try:
        if request.collective == "pingpong":
            latency = osu_latency(
                request.system, tuple(request.mapping), request.size,
                warmup=request.warmup, iters=request.iters,
                smsc=request.smsc, modify=request.modify, node=node)
        else:
            latency = run_collective(
                request.collective, request.system, request.nranks,
                resolve_component(request.component, request.config),
                max(request.size, 1),
                warmup=request.warmup, iters=request.iters,
                modify=request.modify, mapping=request.mapping,
                root=request.root, smsc=request.smsc, node=node)
    except DeadlockError as exc:
        error = {"type": "DeadlockError", "message": str(exc),
                 "cycle": list(getattr(exc, "cycle", ()) or ())}
    if options.check:
        findings = [f.to_dict() for f in node.check_report]
    result = RunResult(request=request, latency_s=latency,
                       findings=findings, error=error,
                       node=node if keep_node else None)
    return result


def run_batch(requests: Sequence[RunRequest]) -> list[RunResult]:
    """Pool-worker entry point: execute a batch, return stripped results.

    Top-level (picklable) on purpose; the requests in one batch share a
    ``batch_key`` so the memoized topology is built at most once here.
    """
    return [execute(req).strip() for req in requests]
