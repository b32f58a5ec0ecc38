"""Yieldable simulation primitives.

A simulated process is a generator; each ``yield`` hands one of these
objects to the engine, which charges the corresponding simulated time and
resumes the generator (``AtomicRMW`` sends the pre-increment value back).

Every simulated event mints one, so they are plain slotted dataclasses:
a frozen dataclass's generated ``__init__`` pays an
``object.__setattr__`` call per field, about three times the cost of
the plain stores. Nothing mutates a primitive once it is yielded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..memory.address_space import BufView
    from ..mpi.datatypes import Datatype
    from ..mpi.ops import ReduceOp
    from .syncobj import Atomic, Flag


@dataclass(slots=True)
class Compute:
    """Occupy the CPU for a fixed simulated duration."""

    seconds: float


@dataclass(slots=True)
class Copy:
    """Copy ``nbytes`` from ``src`` to ``dst``, executed by this process's core.

    Priced by where the source bytes currently are (cache model) and the
    contention on the path. ``bw_factor`` scales the achievable bandwidth
    (kernel-assisted copy engines run below user-space memcpy speed).
    ``in_kernel`` marks CMA/KNEM copies that hold kernel locks and thereby
    contribute to (and suffer from) kernel-lock contention.
    """

    src: "BufView"
    dst: "BufView"
    bw_factor: float = 1.0
    in_kernel: bool = False

    @property
    def nbytes(self) -> int:
        return min(self.src.length, self.dst.length)


@dataclass(slots=True)
class Reduce:
    """Fetch every source view and reduce them into ``dst``.

    Models the single-copy reduction XPMEM permits: operands are read
    directly from peers' buffers (each priced like a :class:`Copy` read)
    and combined at ``reduce_bw``. ``accumulate=True`` reduces the sources
    *into* dst's current contents instead of overwriting.

    ``op`` and ``dtype`` are the MPI :class:`~repro.mpi.ops.ReduceOp` and
    :class:`~repro.mpi.datatypes.Datatype` the collective was called with
    (``None`` means ``SUM`` and ``FLOAT``). Pricing never reads them; only
    the data plane resolves them to a numpy ufunc and dtype, so
    latency-only runs never import numpy.
    """

    srcs: tuple["BufView", ...]
    dst: "BufView"
    op: "ReduceOp | None" = None
    dtype: "Datatype | None" = None
    accumulate: bool = False

    @property
    def nbytes(self) -> int:
        return self.dst.length


@dataclass(slots=True)
class SetFlag:
    """Single-writer flag update (store + peer-copy invalidation)."""

    flag: "Flag"
    value: int


@dataclass(slots=True)
class SetFlagGroup:
    """Back-to-back single-writer updates of several same-owner flags.

    Models a tight store loop: each store is charged, but a cache line
    carrying several of the flags is invalidated once (the stores complete
    long before any reader's fetch lands), so readers of a shared line
    keep their LLC-assist (Fig. 10's "shared" layout)."""

    flags: tuple["Flag", ...]
    value: int


@dataclass(slots=True)
class WaitFlag:
    """Block until ``flag >= value``.

    Flags carry monotonic counters, so ``>=`` is the only wait there is.
    The waiter pays the line-fetch cost on wake-up, serialized at the
    line's home point when the line is not already shared locally.
    """

    flag: "Flag"
    value: int


@dataclass(slots=True)
class ChunkRun:
    """A zero-decision pipelined chunk loop as one primitive.

    The payload range ``[start, stop)`` is processed in ``chunk``-byte
    pieces; for the chunk ending at payload offset ``e``:

    * every ``(flag, base, lo, hi)`` entry of ``waits`` must first reach
      ``flag >= base + min(e, hi) - lo`` (entries with
      ``min(e, hi) <= lo`` do not gate the chunk) — the clamped form
      expresses a producer responsible for the sub-range ``[lo, hi)``;
    * ``lookups`` registration-cache lookups of ``lookup_cost`` seconds
      each run (the component accounts the hits when it emits the run);
    * the chunk body runs: ``copy = (src, dst)`` copies
      ``src.sub(o, n) -> dst.sub(o, n)``, or ``reduce = (srcs, dst, op,
      dtype)`` reduces the same slices (``op``/``dtype`` as in
      :class:`Reduce`);
    * every ``(flags, base)`` entry of ``sets`` publishes
      ``base + (e - start)`` to its flags.

    ``first_ready`` says the emitting loop already waited for the first
    chunk and mapped its operands itself.

    Its waits are ``>=`` waits, like every wait (:class:`WaitFlag`):
    availability counters only grow, which makes the segment
    zero-decision. Both engines run the same ChunkRun and differ only in
    pricing. The event engine runs each chunk as exactly the events of
    the per-chunk loop: one per gated wait (skipped for the first chunk
    when ``first_ready``), one :class:`Compute` per lookup (skipped
    likewise), the :class:`Copy` or :class:`Reduce`, then a
    :class:`SetFlag` per single-flag set and a :class:`SetFlagGroup` per
    other set; a chunk with none of these takes no time. The array
    engine prices the whole run as one closed-form sweep, which charges
    the first chunk's waits and ``lookups * lookup_cost`` again even when
    ``first_ready`` (a SIM_VERSION 3 approximation, docs/performance.md).
    """

    start: int
    stop: int
    chunk: int
    waits: tuple = ()
    sets: tuple = ()
    copy: "tuple | None" = None
    reduce: "tuple | None" = None
    lookups: int = 0
    lookup_cost: float = 0.0
    first_ready: bool = False

    @property
    def nbytes(self) -> int:
        return self.stop - self.start


@dataclass(slots=True)
class AtomicRMW:
    """Atomic fetch-and-add; the engine sends the *old* value back."""

    atom: "Atomic"
    delta: int = 1


@dataclass(slots=True)
class WaitAtomic:
    """Block until ``atom >= value`` (the only wait, as for flags)."""

    atom: "Atomic"
    value: int


@dataclass(slots=True)
class Syscall:
    """Enter the kernel. ``kind`` selects the mechanism-specific cost and
    whether the call contends on kernel locks (CMA/KNEM, per [28])."""

    kind: str = "generic"  # generic | cma | knem | xpmem_attach | xpmem_detach


@dataclass(slots=True)
class PageFaults:
    """First-touch page faults of a fresh XPMEM mapping."""

    npages: int


@dataclass(slots=True)
class Trace:
    """Zero-cost annotation: an observed run records it as one of the
    observer's instants (Table II's ``"message"`` counts); an unobserved
    run drops it."""

    label: str
    meta: dict = field(default_factory=dict)
