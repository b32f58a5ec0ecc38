"""Yieldable simulation primitives.

A simulated process is a generator; each ``yield`` hands one of these
objects to the engine, which charges the corresponding simulated time and
resumes the generator (``AtomicRMW`` sends the pre-increment value back).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover
    from ..memory.address_space import BufView
    from .syncobj import Atomic, Flag


@dataclass(frozen=True, slots=True)
class Compute:
    """Occupy the CPU for a fixed simulated duration."""

    seconds: float


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class CopyBatch:
    """A pipeline segment executed back-to-back inside the engine.

    ``steps`` is a tuple of :class:`Copy` / :class:`Compute` /
    :class:`Reduce` / :class:`SetFlag` / :class:`SetFlagGroup`
    primitives; the engine runs
    each step exactly as if the process had yielded it and started the
    next the instant the previous one completed. A generator yielding the
    same steps one at a time produces the identical event sequence — the
    only thing a batch removes is the zero-simulated-cost generator
    round-trip between steps, so batching can never change simulated
    time. Waits may NOT appear in a batch: a satisfied wait still costs a
    line fetch, so eliding one would change the timeline; primitives that
    send a value back (:class:`AtomicRMW`) are excluded for the same
    reason batches exist — there is no generator frame to receive it.
    For whole pipelined loops (waits included) under the array engine,
    see :class:`ChunkRun`.
    """

    steps: tuple

    @property
    def nbytes(self) -> int:
        return sum(s.nbytes for s in self.steps if isinstance(s, Copy))


@dataclass(frozen=True, slots=True)
class Reduce:
    """Fetch every source view and reduce them into ``dst``.

    Models the single-copy reduction XPMEM permits: operands are read
    directly from peers' buffers (each priced like a :class:`Copy` read)
    and combined at ``reduce_bw``. ``accumulate=True`` reduces the sources
    *into* dst's current contents instead of overwriting.
    """

    srcs: tuple["BufView", ...]
    dst: "BufView"
    op: Callable[..., Any] | None = None  # numpy ufunc, e.g. np.add
    dtype: Any = None                      # element dtype, default float32
    accumulate: bool = False

    @property
    def nbytes(self) -> int:
        return self.dst.length


@dataclass(frozen=True, slots=True)
class SetFlag:
    """Single-writer flag update (store + peer-copy invalidation)."""

    flag: "Flag"
    value: int


@dataclass(frozen=True, slots=True)
class SetFlagGroup:
    """Back-to-back single-writer updates of several same-owner flags.

    Models a tight store loop: each store is charged, but a cache line
    carrying several of the flags is invalidated once (the stores complete
    long before any reader's fetch lands), so readers of a shared line
    keep their LLC-assist (Fig. 10's "shared" layout)."""

    flags: tuple["Flag", ...]
    value: int


@dataclass(frozen=True, slots=True)
class WaitFlag:
    """Block until ``flag`` satisfies ``value`` under ``cmp``.

    ``cmp`` is one of ``">="``, ``"=="``. The waiter pays the line-fetch
    cost on wake-up, serialized at the line's home point when the line is
    not already shared locally.
    """

    flag: "Flag"
    value: int
    cmp: str = ">="


@dataclass(frozen=True, slots=True)
class ChunkRun:
    """A zero-decision pipelined chunk loop, lowered to one primitive.

    This is :class:`CopyBatch` taken to its limit: where a batch removes
    the generator round-trips *within* one chunk, a ChunkRun removes the
    per-chunk resumes of an entire pipelined segment. The payload range
    ``[start, stop)`` is processed in ``chunk``-byte pieces; for the
    chunk ending at payload offset ``e``:

    * every ``(flag, base, lo, hi)`` entry of ``waits`` must first reach
      ``flag >= base + min(e, hi) - lo`` (entries with
      ``min(e, hi) <= lo`` do not gate the chunk) — the clamped form
      expresses a producer responsible for the sub-range ``[lo, hi)``;
    * the chunk body runs: ``copy = (src, dst)`` copies
      ``src.sub(o, n) -> dst.sub(o, n)``, or ``reduce = (srcs, dst, op,
      dtype)`` reduces the same slices, plus ``const_cost`` seconds of
      fixed CPU work (e.g. registration-cache lookups);
    * every ``(flags, base)`` entry of ``sets`` publishes
      ``base + (e - start)`` to each flag.

    Only ``>=`` waits are expressible — that is what makes the segment
    zero-decision: availability counters only grow, so the whole run's
    timeline is a prefix-max recurrence over the producers' publication
    schedules. Components emit a ChunkRun only when the engine
    advertises ``lower_chunk_runs`` (the array engine, which prices the
    run as one closed-form sweep); the event engine refuses it rather
    than approximate the per-chunk event sequence.
    """

    start: int
    stop: int
    chunk: int
    waits: tuple = ()
    sets: tuple = ()
    copy: "tuple | None" = None
    reduce: "tuple | None" = None
    const_cost: float = 0.0

    @property
    def nbytes(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True, slots=True)
class AtomicRMW:
    """Atomic fetch-and-add; the engine sends the *old* value back."""

    atom: "Atomic"
    delta: int = 1


@dataclass(frozen=True, slots=True)
class WaitAtomic:
    """Block until the atomic's value satisfies ``value`` under ``cmp``."""

    atom: "Atomic"
    value: int
    cmp: str = ">="


@dataclass(frozen=True, slots=True)
class Syscall:
    """Enter the kernel. ``kind`` selects the mechanism-specific cost and
    whether the call contends on kernel locks (CMA/KNEM, per [28])."""

    kind: str = "generic"  # generic | cma | knem | xpmem_attach | xpmem_detach


@dataclass(frozen=True, slots=True)
class PageFaults:
    """First-touch page faults of a fresh XPMEM mapping."""

    npages: int


@dataclass(frozen=True, slots=True)
class Trace:
    """Zero-cost annotation recorded in the engine trace (Table II counts)."""

    label: str
    meta: dict = field(default_factory=dict)
