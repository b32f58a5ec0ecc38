"""Trace analysis: message accounting and copy timelines.

Both read the run's observer, its only recorder. An observed run
(``RunOptions(observe="spans")`` or ``"full"``) keeps one instant per
zero-cost :class:`~repro.sim.primitives.Trace` event programs yield
(collectives emit one ``"message"`` per logical transfer), and an
``observe="full"`` run one ``cat="copy"`` span per transfer quantum.
This module turns them into the reports the paper's methodology needs:

* :func:`message_matrix` / :func:`count_message_distances` — the Table II
  analysis; they raise on an unobserved run, which recorded no messages;
* :class:`Timeline` — per-core copy activity from the observer's copy
  spans, renderable as a text Gantt chart for debugging pipelining
  behaviour.

Payload per distance class is the ``message.bytes.<class>`` metric;
blocked time per wait family is :func:`repro.sim.stats.collect_stats`'s
``wait_breakdown``; :mod:`repro.obs.critical_path` explains the rest.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import SimulationError
from ..topology.distance import message_distance_label

if TYPE_CHECKING:  # pragma: no cover
    from ..node import Node
    from .engine import Engine


def messages(engine: "Engine") -> list[dict]:
    """All logical-message records of an observed run."""
    obs = engine.obs
    if not obs.enabled:
        raise SimulationError(
            'message records need an observed run: build the node with '
            'RunOptions(observe="spans")')
    return [meta for _t, _track, label, meta in obs.instants
            if label == "message"]


def message_matrix(engine: "Engine", nranks: int) -> list[list[int]]:
    """matrix[src][dst] = number of logical messages sent."""
    matrix = [[0] * nranks for _ in range(nranks)]
    for meta in messages(engine):
        matrix[meta["src_rank"]][meta["dst_rank"]] += 1
    return matrix


def count_message_distances(node: "Node",
                            unique_edges: bool = True) -> dict[str, int]:
    """Table II's classification: message counts per distance class.

    ``unique_edges`` counts each (src, dst) pair once (the paper counts
    tree edges, not per-segment traffic).
    """
    topo = node.topo
    counts: Counter = Counter({"intra-numa": 0, "inter-numa": 0,
                               "inter-socket": 0})
    seen: set = set()
    for meta in messages(node.engine):
        key = (meta["src_rank"], meta["dst_rank"])
        if unique_edges:
            if key in seen:
                continue
            seen.add(key)
        counts[message_distance_label(topo, meta["src"], meta["dst"])] += 1
    return dict(counts)


@dataclass
class Span:
    start: float
    end: float
    label: str


@dataclass
class Timeline:
    """Per-core copy activity assembled from the observer's copy spans
    (one per transfer quantum, copies and reduces alike)."""

    spans: dict[int, list[Span]] = field(default_factory=dict)
    end_time: float = 0.0

    @classmethod
    def from_engine(cls, engine: "Engine") -> "Timeline":
        """Build from ``engine.obs``'s copy spans (``observe="full"``;
        any other run gives an empty timeline)."""
        tl = cls()
        obs = engine.obs
        for rec in obs.spans:
            if rec.cat != "copy":
                continue
            tl.spans.setdefault(obs.track_core(rec.track), []).append(
                Span(start=rec.start, end=rec.end,
                     label=f"{rec.args['nbytes']}B"))
            if rec.end > tl.end_time:
                tl.end_time = rec.end
        return tl

    def busy_events(self, core: int) -> int:
        return len(self.spans.get(core, []))

    def render(self, width: int = 72, cores: list[int] | None = None) -> str:
        """A coarse text Gantt: one row per core, '#' where copies ran."""
        if not self.spans or self.end_time <= 0:
            return '(no copy spans; run with observe="full")'
        rows = []
        selected = sorted(self.spans) if cores is None else cores
        last = width - 1
        for core in selected:
            cells = [" "] * width
            for span in self.spans.get(core, []):
                lo = min(last, int(width * span.start / self.end_time))
                hi = min(last, int(width * span.end / self.end_time))
                cells[lo:hi + 1] = "#" * (hi + 1 - lo)
            rows.append(f"core {core:4d} |{''.join(cells)}|")
        return "\n".join(rows)
