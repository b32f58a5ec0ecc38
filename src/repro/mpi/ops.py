"""MPI reduction operations.

Like :mod:`.datatypes`, primitives carry the :class:`ReduceOp` itself;
only code that moves values reads :attr:`ReduceOp.ufunc`, which raises a
:class:`~repro.errors.ConfigError` when numpy is not installed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..compat import require_numpy


@dataclass(frozen=True)
class ReduceOp:
    name: str
    ufunc_name: str

    @property
    def ufunc(self):
        """The numpy ufunc (data plane only)."""
        return getattr(require_numpy(f"applying {self.name} to values"),
                       self.ufunc_name)

    def __call__(self, a, b):
        return self.ufunc(a, b)


SUM = ReduceOp("MPI_SUM", "add")
PROD = ReduceOp("MPI_PROD", "multiply")
MAX = ReduceOp("MPI_MAX", "maximum")
MIN = ReduceOp("MPI_MIN", "minimum")
