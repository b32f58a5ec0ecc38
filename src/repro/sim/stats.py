"""Engine statistics: where did the simulated time go?

Collects per-core busy time, event counts by primitive kind, flag traffic
and XPMEM counters into one report — the first thing to look at when a
collective is slower than expected. On an observed run (``Node(...,
options=RunOptions(observe=True))``) the report also carries the full
metrics-registry snapshot, so every counter any subsystem registered
rides along without this module having to know about it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..node import Node


@dataclass
class RunStats:
    sim_time: float
    events: int
    processes: int
    processes_done: int
    core_busy: dict[int, float] = field(default_factory=dict)
    xpmem_makes: int = 0
    xpmem_attaches: int = 0
    xpmem_detaches: int = 0
    messages: int = 0
    message_bytes: int = 0
    # Blocked time per wait family, merged across all processes by the
    # interned ``wait_key`` (``flag xhc.avail``, ``atomic sm.ctr`` — rank
    # suffixes already stripped), so one family is one row.
    wait_breakdown: dict[str, float] = field(default_factory=dict)
    # Metrics-registry snapshot (empty unless the run was observed).
    metrics: dict[str, object] = field(default_factory=dict)

    @property
    def mean_core_utilization(self) -> float:
        if not self.core_busy or self.sim_time <= 0:
            return 0.0
        return (sum(self.core_busy.values())
                / (len(self.core_busy) * self.sim_time))

    def render(self) -> str:
        lines = [
            f"simulated time     {self.sim_time * 1e6:12.2f} us",
            f"events processed   {self.events:12d}",
            f"processes          {self.processes:12d} "
            f"({self.processes_done} finished)",
            f"mean core busy     {100 * self.mean_core_utilization:11.1f} %",
            f"xpmem make/attach  {self.xpmem_makes:6d} /"
            f" {self.xpmem_attaches:6d}",
            f"xpmem detaches     {self.xpmem_detaches:12d}",
            f"logical messages   {self.messages:12d} "
            f"({self.message_bytes} bytes)",
        ]
        if self.wait_breakdown:
            lines.append("")
            lines.append("blocked time by wait family")
            rows = sorted(self.wait_breakdown.items(),
                          key=lambda kv: -kv[1])
            for key, t in rows[:8]:
                lines.append(f"  {key:<34}{t * 1e6:14.2f} us")
        if self.metrics:
            lines.append("")
            lines.append(f"metrics ({len(self.metrics)} registered)")
            for name in sorted(self.metrics):
                lines.append(f"  {name:<34}"
                             f"{_metric_cell(self.metrics[name]):>18}")
        return "\n".join(lines)


def _metric_cell(value) -> str:
    """Compact one snapshot entry for the text report."""
    if isinstance(value, dict):
        if value.get("type") == "histogram":
            mean = value.get("mean")
            mean_s = f"{mean:.3g}" if isinstance(mean, float) else "-"
            return f"n={value.get('count', 0)} mean={mean_s}"
        return str(value.get("value", value))
    return str(value)


def collect_stats(node: "Node") -> RunStats:
    """Snapshot the node's engine/transport counters."""
    engine = node.engine
    busy = dict(engine._core_busy)
    msgs = [m for _t, label, m in engine.trace if label == "message"]
    done = sum(1 for p in engine.processes
               if p.finish_time is not None)
    waits: dict[str, float] = {}
    for proc in engine.processes:
        for key, t in proc.wait_breakdown.items():
            waits[key] = waits.get(key, 0.0) + t
    obs = engine.obs
    return RunStats(
        sim_time=engine.now,
        events=engine.events_processed,
        processes=len(engine.processes),
        processes_done=done,
        core_busy={c: min(t, engine.now) for c, t in busy.items()},
        xpmem_makes=node.xpmem.makes,
        xpmem_attaches=node.xpmem.attaches,
        xpmem_detaches=node.xpmem.detaches,
        messages=len(msgs),
        message_bytes=sum(m.get("nbytes", 0) for m in msgs),
        wait_breakdown=waits,
        metrics=obs.metrics.snapshot() if obs.enabled else {},
    )
