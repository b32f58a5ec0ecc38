"""Per-process address spaces and buffers.

Each simulated MPI process owns an :class:`AddressSpace`; buffers allocated
from it get a NUMA home per the first-touch policy (the NUMA node of the
core the process is pinned to). When the node runs with a real data plane
(``data_movement=True``), every buffer is backed by a numpy byte array and
copies/reductions actually move data, making collectives verifiable
end-to-end.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..compat import require_numpy
from ..errors import MemoryModelError

if TYPE_CHECKING:
    import numpy as np


class Buffer:
    """A contiguous allocation with a NUMA home and optional real storage."""

    _ids = itertools.count()

    __slots__ = ("id", "name", "size", "owner_rank", "owner_core",
                 "home_numa", "data", "shared")

    def __init__(
        self,
        name: str,
        size: int,
        owner_rank: int,
        owner_core: int,
        home_numa: int,
        data: Optional[np.ndarray],
        shared: bool = False,
    ) -> None:
        if size <= 0:
            raise MemoryModelError(f"buffer size must be positive, got {size}")
        self.id = next(Buffer._ids)
        self.name = name
        self.size = size
        self.owner_rank = owner_rank
        self.owner_core = owner_core
        self.home_numa = home_numa
        self.data = data
        # Shared segments (CICO mailboxes, control structs) are mapped by
        # peers without XPMEM; plain application buffers need an attachment.
        self.shared = shared

    def view(self, offset: int = 0, length: int | None = None) -> "BufView":
        return BufView(self, offset, self.size - offset if length is None else length)

    def whole(self) -> "BufView":
        return BufView(self, 0, self.size)

    def fill(self, value: int) -> None:
        if self.data is not None:
            self.data[:] = value

    def __repr__(self) -> str:
        return (f"<Buffer #{self.id} {self.name!r} size={self.size} "
                f"rank={self.owner_rank} numa={self.home_numa}>")


@dataclass(slots=True)
class BufView:
    """A byte range of a buffer.

    Slotted and not frozen, like the primitives that carry it:
    :meth:`sub` mints one per pipelined chunk, and a frozen view needs an
    ``object.__setattr__`` call per field. Nothing mutates a view once it
    is built.
    """

    buf: Buffer
    offset: int
    length: int

    def __post_init__(self) -> None:
        if self.offset < 0 or self.length < 0:
            raise MemoryModelError("negative view offset/length")
        if self.offset + self.length > self.buf.size:
            raise MemoryModelError(
                f"view [{self.offset}, {self.offset + self.length}) exceeds "
                f"buffer {self.buf.name!r} of size {self.buf.size}"
            )

    def sub(self, offset: int, length: int) -> "BufView":  # hot-path
        if offset < 0 or length < 0 or offset + length > self.length:
            raise MemoryModelError(
                f"sub-view [{offset}, {offset + length}) escapes a view of "  # lint: disable=RC106
                f"length {self.length}"
            )
        # Bypass the dataclass constructor: the bounds check above already
        # implies __post_init__'s invariants (our own offset/length were
        # validated when *this* view was built), and pipelined collectives
        # mint sub-views on every chunk.
        view = object.__new__(BufView)
        view.buf = self.buf
        view.offset = self.offset + offset
        view.length = length
        return view

    def array(self) -> Optional[np.ndarray]:
        if self.buf.data is None:
            return None
        return self.buf.data[self.offset:self.offset + self.length]

    def as_dtype(self, dtype) -> Optional[np.ndarray]:
        arr = self.array()
        if arr is None:
            return None
        return arr.view(dtype)

    def __repr__(self) -> str:
        return f"<view {self.buf.name!r}[{self.offset}:{self.offset + self.length}]>"


class AddressSpace:
    """Allocation arena of one simulated process."""

    def __init__(self, rank: int, core: int, home_numa: int,
                 data_movement: bool = True) -> None:
        self.rank = rank
        self.core = core
        self.home_numa = home_numa
        self.data_movement = data_movement
        self.buffers: list[Buffer] = []

    def alloc(self, name: str, size: int, *, shared: bool = False,
              home_numa: int | None = None) -> Buffer:
        """Allocate ``size`` bytes; first-touch places it on our NUMA node."""
        if self.data_movement:
            np = require_numpy("data_movement=True (value-backed buffers)")
            data = np.zeros(size, dtype=np.uint8)
        else:
            data = None
        buf = Buffer(
            name=f"r{self.rank}:{name}",
            size=size,
            owner_rank=self.rank,
            owner_core=self.core,
            home_numa=self.home_numa if home_numa is None else home_numa,
            data=data,
            shared=shared,
        )
        self.buffers.append(buf)
        return buf

    def free(self, buf: Buffer) -> None:
        try:
            self.buffers.remove(buf)
        except ValueError:
            raise MemoryModelError(f"{buf!r} not owned by rank {self.rank}") from None
