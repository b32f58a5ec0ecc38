"""MPI datatypes (the subset the paper's collectives exercise).

numpy is a ``[perf]`` extra, so the concrete dtype object is resolved
lazily: latency-only runs (``data_movement=False`` on either engine)
carry ``np_dtype is None`` through the primitives and never import
numpy; anything that actually touches values gets the real dtype, or a
clear :class:`~repro.errors.ConfigError` from the buffer allocation that
needed it first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..compat import get_numpy
from ..errors import MPIError


@dataclass(frozen=True)
class Datatype:
    name: str
    itemsize: int
    np_name: str
    _cache: list = field(default_factory=list, repr=False, compare=False)

    def count_of(self, nbytes: int) -> int:
        if nbytes % self.itemsize:
            raise MPIError(
                f"{nbytes} bytes is not a whole number of {self.name} elements"
            )
        return nbytes // self.itemsize

    @property
    def np_dtype(self):
        """The numpy dtype, or ``None`` when numpy is not installed
        (pure-latency runs never dereference it)."""
        if not self._cache:
            np = get_numpy()
            self._cache.append(
                None if np is None else np.dtype(self.np_name))
        return self._cache[0]


BYTE = Datatype("MPI_BYTE", 1, "uint8")
INT = Datatype("MPI_INT", 4, "int32")
FLOAT = Datatype("MPI_FLOAT", 4, "float32")
DOUBLE = Datatype("MPI_DOUBLE", 8, "float64")
