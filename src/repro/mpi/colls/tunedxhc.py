"""XHC behind a tuned decision table (``xhc-tuned``).

Where :class:`repro.xhc.Xhc` runs one fixed configuration, this component
loads a :class:`repro.tune.table.DecisionTable` (the artifact
``python -m repro tune`` produces) and dispatches every operation to the
best configuration for its (machine, collective, message size) — the same
shape as OpenMPI's ``tuned`` decision rules, but with entries *derived*
for this machine instead of hard-coded.

Each distinct configuration gets its own lazily-created :class:`Xhc`
delegate bound to the same communicator; dispatch is a pure function of
the table and the operation, so every rank independently picks the same
delegate and the collective stays matched.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ...errors import ConfigError
from ...xhc.config import XhcConfig
from .base import CollComponent

if TYPE_CHECKING:  # repro.xhc imports colls.base; keep runtime import lazy
    from ...xhc import Xhc

# Collectives the tuner does not sweep borrow the nearest swept shape:
# rooted reductions follow allreduce, the remaining fan-in/fan-out
# patterns follow bcast (barrier is a zero-byte fan-in + fan-out).
ALIASES = {
    "reduce": "allreduce",
    "reduce_scatter": "allreduce",
    "barrier": "bcast",
    "gather": "bcast",
    "scatter": "bcast",
    "allgather": "bcast",
    "alltoall": "bcast",
}


class TunedXhc(CollComponent):
    name = "xhc-tuned"

    def __init__(self, table=None, path: str | None = None,
                 fallback: XhcConfig | None = None) -> None:
        """``table`` (a DecisionTable) wins over ``path`` (a JSON file);
        with neither, the default committed table is loaded when present.
        ``fallback`` serves sizes/collectives the table does not cover
        (default: the paper's hand-tuned configuration)."""
        super().__init__()
        from ...tune.table import DecisionTable, default_table_path
        if table is None:
            if path is None:
                path = default_table_path()
            table = (DecisionTable.load(path) if path is not None
                     else DecisionTable())
        self.table = table
        self.fallback = fallback if fallback is not None else XhcConfig()
        self._delegates: dict[XhcConfig, "Xhc"] = {}

    def _setup(self, comm) -> None:
        self._system = comm.node.topo.name.lower()

    def config_for(self, collective: str, size: int) -> XhcConfig:
        cfg = self.table.lookup(self._system, collective, size)
        if cfg is None and collective in ALIASES:
            cfg = self.table.lookup(self._system, ALIASES[collective], size)
        return cfg if cfg is not None else self.fallback

    def _delegate(self, comm, collective: str, size: int) -> "Xhc":
        from ...xhc import Xhc
        cfg = self.config_for(collective, size)
        inner = self._delegates.get(cfg)
        if inner is None:
            try:
                inner = Xhc(config=cfg, name=self.name)
                inner.setup(comm)
            except ConfigError:
                # A per-level chunk tuple tuned at a different rank count
                # can mismatch this communicator's hierarchy depth. The
                # failure is a pure function of (config, communicator), so
                # every rank degrades to the fallback in lockstep.
                inner = self._delegates.get(self.fallback)
                if inner is None:
                    inner = Xhc(config=self.fallback, name=self.name)
                    inner.setup(comm)
                    self._delegates[self.fallback] = inner
            self._delegates[cfg] = inner
        return inner

    # -- dispatch ----------------------------------------------------------

    def bcast(self, comm, ctx, view, root) -> Iterator:
        return self._delegate(comm, "bcast", view.length) \
            .bcast(comm, ctx, view, root)

    def allreduce(self, comm, ctx, sview, rview, op, dtype) -> Iterator:
        return self._delegate(comm, "allreduce", sview.length) \
            .allreduce(comm, ctx, sview, rview, op, dtype)

    def reduce(self, comm, ctx, sview, rview, op, dtype, root) -> Iterator:
        return self._delegate(comm, "reduce", sview.length) \
            .reduce(comm, ctx, sview, rview, op, dtype, root)

    def barrier(self, comm, ctx) -> Iterator:
        # Barriers carry no payload: treat as the smallest message class.
        return self._delegate(comm, "barrier", 1).barrier(comm, ctx)

    def gather(self, comm, ctx, sview, rview, root) -> Iterator:
        return self._delegate(comm, "gather", sview.length) \
            .gather(comm, ctx, sview, rview, root)

    def scatter(self, comm, ctx, sview, rview, root) -> Iterator:
        return self._delegate(comm, "scatter", rview.length) \
            .scatter(comm, ctx, sview, rview, root)

    def allgather(self, comm, ctx, sview, rview) -> Iterator:
        return self._delegate(comm, "allgather", sview.length) \
            .allgather(comm, ctx, sview, rview)

    def alltoall(self, comm, ctx, sview, rview) -> Iterator:
        return self._delegate(comm, "alltoall",
                              sview.length // max(1, comm.size)) \
            .alltoall(comm, ctx, sview, rview)

    def reduce_scatter_block(self, comm, ctx, sview, rview, op,
                             dtype) -> Iterator:
        return self._delegate(comm, "reduce_scatter", rview.length) \
            .reduce_scatter_block(comm, ctx, sview, rview, op, dtype)
