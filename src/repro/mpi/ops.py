"""MPI reduction operations.

Like :mod:`.datatypes`, the numpy ufunc is resolved lazily so that
latency-only runs on either engine work without numpy installed: primitives
then carry ``op.ufunc is None``, which is fine because nothing applies
it until values actually move.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..compat import get_numpy


@dataclass(frozen=True)
class ReduceOp:
    name: str
    ufunc_name: str
    _cache: list = field(default_factory=list, repr=False, compare=False)

    @property
    def ufunc(self):
        """The numpy ufunc, or ``None`` when numpy is not installed."""
        if not self._cache:
            np = get_numpy()
            self._cache.append(
                None if np is None else getattr(np, self.ufunc_name))
        return self._cache[0]

    def __call__(self, a, b):
        return self.ufunc(a, b)


SUM = ReduceOp("MPI_SUM", "add")
PROD = ReduceOp("MPI_PROD", "multiply")
MAX = ReduceOp("MPI_MAX", "maximum")
MIN = ReduceOp("MPI_MIN", "minimum")
