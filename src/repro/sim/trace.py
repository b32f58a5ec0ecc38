"""Trace analysis: message accounting and copy timelines.

``engine.trace`` keeps the zero-cost :class:`~repro.sim.primitives.Trace`
events programs yield (collectives emit one ``"message"`` per logical
transfer); an ``observe="full"`` run's observer keeps one ``cat="copy"``
span per transfer quantum. This module turns them into the reports the
paper's methodology needs:

* :func:`message_matrix` / :func:`count_message_distances` — the Table II
  analysis, for any run;
* :class:`Timeline` — per-core copy activity from the observer's copy
  spans, renderable as a text Gantt chart for debugging pipelining
  behaviour.

Blocked time per wait family is :func:`repro.sim.stats.collect_stats`'s
``wait_breakdown``; :mod:`repro.obs.critical_path` explains the rest.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..topology.distance import message_distance_label

if TYPE_CHECKING:  # pragma: no cover
    from ..node import Node
    from .engine import Engine


def messages(engine: "Engine") -> list[dict]:
    """All logical-message records of a run."""
    return [meta for _t, label, meta in engine.trace if label == "message"]


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


def bytes_by_distance(node: "Node") -> dict[str, int]:
    """Total logical-message payload per distance class."""
    topo = node.topo
    out: Counter = Counter()
    for meta in messages(node.engine):
        label = message_distance_label(topo, meta["src"], meta["dst"])
        out[label] += meta.get("nbytes", 0)
    return dict(out)


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
