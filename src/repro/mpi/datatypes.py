"""MPI datatypes (the subset the paper's collectives exercise).

Primitives carry the :class:`Datatype` itself, never a numpy dtype, so
latency-only runs (``data_movement=False`` on either engine) never
import numpy. Only code that moves values reads :attr:`Datatype.np_dtype`;
without numpy installed that raises a :class:`~repro.errors.ConfigError`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..compat import require_numpy
from ..errors import MPIError


@dataclass(frozen=True)
class Datatype:
    name: str
    itemsize: int
    np_name: str

    def count_of(self, nbytes: int) -> int:
        if nbytes % self.itemsize:
            raise MPIError(
                f"{nbytes} bytes is not a whole number of {self.name} elements"
            )
        return nbytes // self.itemsize

    @property
    def np_dtype(self):
        """The numpy dtype (data plane only)."""
        return require_numpy(f"moving {self.name} values").dtype(self.np_name)


BYTE = Datatype("MPI_BYTE", 1, "uint8")
INT = Datatype("MPI_INT", 4, "int32")
FLOAT = Datatype("MPI_FLOAT", 4, "float32")
DOUBLE = Datatype("MPI_DOUBLE", 8, "float64")
