"""The typed run API: :class:`RunRequest` in, :class:`RunResult` out.

A request is a complete, picklable, content-addressable description of one
measurement — system, collective, component, message size, rank count,
iteration counts and :class:`~repro.options.RunOptions`. Every sweep in
the repo (OSU curves, paper figures, autotuning candidates, sanitizer and
trace runs) is a list of these, which is what lets one scheduler batch,
parallelize and cache all of them.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from ..options import RunOptions
from ..shmem.smsc import SmscConfig
from .cache import cache_key

#: Collective kinds the OSU driver implements, plus the two-rank
#: ping-pong ("pingpong") of Fig. 1a / Fig. 3a.
RUN_KINDS = ("bcast", "allreduce", "reduce", "barrier", "gather",
             "alltoall", "pingpong")

#: Every request's default options: latency only, no data movement.
#: ``RunOptions`` is frozen, so all requests share this one instance.
_LATENCY_ONLY = RunOptions(data_movement=False)


@dataclass(frozen=True)
class RunRequest:
    """One measurement: ``mean per-rank latency of <collective> at <size>
    bytes with <component> on <system>``.

    ``component`` is a name from :data:`repro.bench.components.COMPONENTS`
    or the literal ``"xhc"`` combined with ``config`` (a dict of
    :class:`~repro.xhc.config.XhcConfig` fields) for explicit
    configurations — autotuning candidates, Fig. 10's flag layouts.
    ``mapping`` is a rank-placement policy name or an explicit core tuple
    (required for ``"pingpong"``, which runs between exactly two pinned
    cores). Of ``options``, only ``engine`` affects the measured latency
    (and is therefore part of the cache key); requests with
    instrumentation (observe/check) bypass the result cache because their
    product is the side artifacts, not the number.
    """

    system: str
    collective: str
    size: int
    nranks: int
    component: str = "xhc-tree"
    config: dict | None = None
    warmup: int = 1
    iters: int = 3
    modify: bool = True
    mapping: "str | tuple[int, ...]" = "core"
    root: int = 0
    smsc: SmscConfig | None = None
    options: RunOptions = _LATENCY_ONLY

    def __post_init__(self) -> None:
        if self.collective not in RUN_KINDS:
            raise ValueError(
                f"unknown collective {self.collective!r}; "
                f"choose from {RUN_KINDS}")
        if isinstance(self.mapping, list):
            object.__setattr__(self, "mapping", tuple(self.mapping))
        if self.collective == "pingpong":
            if not isinstance(self.mapping, tuple) or len(self.mapping) != 2:
                raise ValueError(
                    "pingpong requests need mapping=(core_a, core_b)")

    # -- caching ----------------------------------------------------------

    @property
    def cacheable(self) -> bool:
        """Instrumented runs produce spans/findings, not just a latency,
        so they always execute; plain latency measurements are cached."""
        return not self.options.instrumented

    def payload(self) -> dict:
        """The canonical, JSON-safe dict the cache key is computed over.

        Only latency-determining fields appear; :class:`RunOptions` is
        deliberately absent because observation, checking and data
        movement never change simulated time — with one exception:
        ``options.engine`` *does* (the array engine prices under the
        documented SIM_VERSION 3 approximations, docs/performance.md),
        so the engine name is lifted into the payload and two engines
        never share a cache entry.
        """
        return {
            "engine": self.options.engine,
            "system": self.system,
            "collective": self.collective,
            "size": self.size,
            "nranks": self.nranks,
            "component": self.component,
            "config": self.config,
            "warmup": self.warmup,
            "iters": self.iters,
            "modify": self.modify,
            "mapping": (list(self.mapping)
                        if isinstance(self.mapping, tuple)
                        else self.mapping),
            "root": self.root,
            "smsc": (dataclasses.asdict(self.smsc)
                     if self.smsc is not None else None),
        }

    def key(self) -> str:
        """Content-address of this request (includes ``SIM_VERSION``)."""
        return cache_key(self.payload())

    @classmethod
    def from_payload(cls, data: dict) -> "RunRequest":
        """Rebuild a request from its JSON form — the inverse of
        :meth:`payload`, and what the serve daemon applies to request
        dicts arriving over the wire. Unknown fields raise ``ValueError``
        (a client protocol error, not a crash)."""
        kwargs = dict(data)
        # "engine" is payload()'s flattened form of options.engine (the
        # one option in the cache key); fold it back into RunOptions.
        engine = kwargs.pop("engine", None)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(kwargs) - known
        if unknown:
            raise ValueError(
                f"unknown request field(s): {', '.join(sorted(unknown))}")
        smsc = kwargs.get("smsc")
        if isinstance(smsc, dict):
            from ..shmem.smsc import SmscConfig as _Smsc
            kwargs["smsc"] = _Smsc(**smsc)
        options = kwargs.get("options")
        if options is None:
            options = _LATENCY_ONLY
        elif isinstance(options, dict):
            options = RunOptions(**options)
        if engine is not None and engine != options.engine:
            options = options.with_(engine=engine)
        kwargs["options"] = options
        mapping = kwargs.get("mapping")
        if isinstance(mapping, list):
            kwargs["mapping"] = tuple(mapping)
        return cls(**kwargs)

    def batch_key(self) -> tuple:
        """Requests sharing this key run on identical (system, component,
        smsc, options) state — a pool worker amortizes one memoized
        topology across the whole batch."""
        return (self.system, self.component,
                json.dumps(self.config, sort_keys=True),
                self.smsc, self.options)

    def estimated_cost(self) -> float:
        """Relative cost weight for load balancing (not a latency)."""
        return (self.warmup + self.iters) * (self.size + 1024.0) \
            * max(2, self.nranks)


@dataclass
class RunResult:
    """Outcome of one request.

    ``latency_s`` is ``None`` only when the run died with a reported
    error (e.g. a deadlock finding). ``findings`` holds serialized
    :class:`repro.check.report.Finding` dicts when the request had
    ``options.check`` set; ``node`` is populated only by inline execution
    (:func:`repro.exec.run_inline`) — live nodes never cross process
    boundaries.
    """

    request: RunRequest
    latency_s: float | None
    cached: bool = False
    findings: list = field(default_factory=list)
    error: dict | None = None
    node: object | None = None

    @property
    def us(self) -> float | None:
        return None if self.latency_s is None else self.latency_s * 1e6

    def strip(self) -> "RunResult":
        """A picklable copy without the live node (pool transport)."""
        if self.node is None:
            return self
        return dataclasses.replace(self, node=None)
