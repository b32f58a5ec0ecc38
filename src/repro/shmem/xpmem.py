"""XPMEM (Cross-Partition Memory) service.

Exposure (``xpmem_make``) is a one-time syscall by the owner. Attachment
(``xpmem_get`` + ``xpmem_attach``) by a peer costs a syscall plus page
faults over the mapped range; the mapping is then reusable with ordinary
loads/stores until detached (SSII-B). Pages faulted on first touch are
tracked so a re-attach after a detach pays the faults again.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..errors import ShmemError
from ..memory.model import PAGE_SIZE
from ..sim import primitives as P

if TYPE_CHECKING:  # pragma: no cover
    from ..memory.address_space import Buffer
    from ..node import Node


class XpmemService:
    """Node-global registry of exposed address ranges."""

    def __init__(self, node: "Node") -> None:
        # The node owns this service; holding its engine rather than the
        # node keeps the ownership graph acyclic (docs/architecture.md).
        self.engine = node.engine
        self._exposed: set[int] = set()
        # The observer's metrics are the only count of these syscalls.
        # Their handles resolve to shared no-ops when the node is not
        # observed, so the hot paths below pay one call per event.
        metrics = node.engine.obs.metrics
        self._m_makes = metrics.counter(
            "xpmem.makes", "xpmem_make exposures")
        self._m_attaches = metrics.counter(
            "xpmem.attaches", "xpmem_get/attach mappings")
        self._m_detaches = metrics.counter(
            "xpmem.detaches", "xpmem_detach unmappings")

    def expose(self, buf: "Buffer") -> Iterator:
        """Owner publishes ``buf`` (xpmem_make). Idempotent after the first."""
        if buf.id in self._exposed:
            return
        self._exposed.add(buf.id)
        self._m_makes.inc()
        yield P.Syscall("generic")

    def attach(self, buf: "Buffer") -> Iterator:
        """Peer maps ``buf`` (xpmem_get/attach + first-touch page faults)."""
        if buf.id not in self._exposed and not buf.shared:
            raise ShmemError(
                f"attach to unexposed buffer {buf.name!r}; owner must "
                f"expose() it first"
            )
        self._m_attaches.inc()
        engine = self.engine
        if engine.checker is not None:
            engine.checker.on_attach(engine._current_proc, buf)
        with engine.obs.span("xpmem.attach", cat="shmem", nbytes=buf.size):
            yield P.Syscall("xpmem_attach")
            yield P.PageFaults((buf.size + PAGE_SIZE - 1) // PAGE_SIZE)

    def detach(self, buf: "Buffer") -> Iterator:
        self._m_detaches.inc()
        engine = self.engine
        if engine.checker is not None:
            engine.checker.on_detach(engine._current_proc, buf)
        yield P.Syscall("xpmem_detach")
