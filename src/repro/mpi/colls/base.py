"""Component interface and shared algorithm helpers."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ...errors import MPIError

if TYPE_CHECKING:  # pragma: no cover
    from ..world import Communicator


class CollComponent:
    """Base class: one instance serves exactly one communicator.

    The communicator owns its component and passes itself to every entry
    point, so the component keeps no reference back to it.
    """

    name = "base"

    def __init__(self) -> None:
        self._bound = False

    def setup(self, comm: "Communicator") -> None:
        if self._bound:
            raise MPIError(
                f"component {self.name!r} already bound to a communicator; "
                f"create a fresh instance per communicator"
            )
        self._bound = True
        self._setup(comm)

    def _setup(self, comm: "Communicator") -> None:
        pass

    # Collective entry points; subclasses override what they support.

    def bcast(self, comm, ctx, view, root) -> Iterator:
        raise MPIError(f"{self.name} does not implement bcast")

    def allreduce(self, comm, ctx, sview, rview, op, dtype) -> Iterator:
        raise MPIError(f"{self.name} does not implement allreduce")

    def reduce(self, comm, ctx, sview, rview, op, dtype, root) -> Iterator:
        raise MPIError(f"{self.name} does not implement reduce")

    def barrier(self, comm, ctx) -> Iterator:
        raise MPIError(f"{self.name} does not implement barrier")

    def gather(self, comm, ctx, sview, rview, root) -> Iterator:
        raise MPIError(f"{self.name} does not implement gather")

    def scatter(self, comm, ctx, sview, rview, root) -> Iterator:
        raise MPIError(f"{self.name} does not implement scatter")

    def allgather(self, comm, ctx, sview, rview) -> Iterator:
        raise MPIError(f"{self.name} does not implement allgather")

    def alltoall(self, comm, ctx, sview, rview) -> Iterator:
        raise MPIError(f"{self.name} does not implement alltoall")

    def reduce_scatter_block(self, comm, ctx, sview, rview, op,
                             dtype) -> Iterator:
        raise MPIError(f"{self.name} does not implement reduce_scatter")


# -- flag ledgers -------------------------------------------------------------


class OpLedger:
    """The cumulative flag values a component's ranks expect, one snapshot
    per op that some rank is still in.

    Progress and ack flags carry monotonic cumulative values (the
    sequence tagging of the real implementations), so a flag is never
    reset; every expected value follows from the counters at the start of
    the op, and the counters after an op follow from the same
    deterministic update rule whichever rank applies it. Every rank runs a
    communicator's collectives in the same order (the non-blocking chain
    serializes one rank's ops), so ranks differ only in which op they are
    in, and one shared snapshot per op replaces a per-rank copy of
    everyone's counters: the first rank to leave op k builds snapshot k+1
    from a copy of snapshot k and the op's rule, and the last rank to
    leave op k drops snapshot k. A snapshot is never mutated once built,
    so a rank may keep reading its op's values after it advanced.

    Counters are a dict of ints, lists of ints and lists of int lists.
    """

    __slots__ = ("_size", "_op", "_snaps", "_left")

    def __init__(self, size: int, counters: dict) -> None:
        self._size = size
        self._op = [0] * size           # each rank's current op index
        self._snaps = {0: counters}     # op index -> counters at its start
        self._left: dict[int, int] = {}  # op index -> ranks that left it

    def at(self, me: int) -> dict:
        """The counters at the start of ``me``'s current op (read only)."""
        return self._snaps[self._op[me]]

    def advance(self, me: int, update, *args) -> None:
        """``me`` leaves its current op, whose ledger rule is
        ``update(counters, *args)`` (mutating ``counters`` in place)."""
        k = self._op[me]
        self._op[me] = k + 1
        left = self._left.get(k, 0) + 1
        if left == 1:
            counters = {key: _copy_counter(value)
                        for key, value in self._snaps[k].items()}
            update(counters, *args)
            self._snaps[k + 1] = counters
        if left == self._size:
            del self._snaps[k]
            self._left.pop(k, None)
        else:
            self._left[k] = left

    @property
    def live(self) -> int:
        """Snapshots held: one per op some rank is in."""
        return len(self._snaps)


def _copy_counter(value):
    if type(value) is not list:
        return value
    if value and type(value[0]) is list:
        return [row.copy() for row in value]
    return value.copy()


# -- tree shapes --------------------------------------------------------------


def binomial_tree(rank: int, size: int, root: int) -> tuple[int | None, list[int]]:
    """(parent, children) of ``rank`` in a root-rotated binomial tree.

    MPICH convention: a rank's parent clears its lowest set (relative) bit;
    children sit at lower bit positions, listed far-subtree first.
    """
    rel = (rank - root) % size
    parent = None if rel == 0 else ((rel & (rel - 1)) + root) % size
    children_rel: list[int] = []
    mask = 1
    while mask < size and not rel & mask:
        child = rel + mask
        if child < size:
            children_rel.append(child)
        mask <<= 1
    children_rel.reverse()  # far subtree first, matching MPICH send order
    return parent, [(c + root) % size for c in children_rel]


def knomial_tree(rank: int, size: int, root: int,
                 radix: int) -> tuple[int | None, list[int]]:
    """(parent, children) in a root-rotated k-nomial tree.

    A rank's parent clears its lowest nonzero base-``radix`` digit; its
    children add r*digit (r in 1..radix-1) at every digit position below
    that, listed far-subtree first.
    """
    if radix < 2:
        raise MPIError("knomial radix must be >= 2")
    rel = (rank - root) % size
    parent_rel = None
    children_rel: list[int] = []
    digit = 1
    while digit < size:
        r = (rel // digit) % radix
        if r != 0:
            parent_rel = rel - r * digit
            break
        for r in range(1, radix):
            child = rel + r * digit
            if child < size:
                children_rel.append(child)
        digit *= radix
    children_rel.sort(reverse=True)
    parent = None if parent_rel is None else (parent_rel + root) % size
    return parent, [(c + root) % size for c in children_rel]


def chain_next(rank: int, size: int, root: int) -> tuple[int | None, int | None]:
    """(prev, next) of ``rank`` in a root-rotated chain (pipeline)."""
    rel = (rank - root) % size
    prev = None if rel == 0 else ((rel - 1) + root) % size
    nxt = None if rel == size - 1 else ((rel + 1) + root) % size
    return prev, nxt


def chunks(total: int, chunk: int) -> Iterator[tuple[int, int]]:
    """Yield (offset, nbytes) pieces of a ``total``-byte message."""
    if chunk <= 0:
        raise MPIError("chunk size must be positive")
    off = 0
    while off < total:
        n = min(chunk, total - off)
        yield off, n
        off += n


def partition(total: int, parts: int, minimum: int = 1,
              align: int = 1) -> list[tuple[int, int]]:
    """Split [0, total) into up to ``parts`` contiguous (offset, nbytes)
    ranges, each at least ``minimum`` bytes (except possibly the last one)
    and aligned to ``align``.

    Fewer than ``parts`` ranges come back for small totals — the "minimum
    index limit" of the paper's Allreduce (SSIV-B, step 2a): with little
    data, only some members reduce.
    """
    if total <= 0:
        return []
    if parts < 1:
        raise MPIError("partition needs at least one part")
    base = max(minimum, -(-total // parts))
    if align > 1:
        base = -(-base // align) * align
    out: list[tuple[int, int]] = []
    off = 0
    while off < total:
        n = min(base, total - off)
        out.append((off, n))
        off += n
    return out
