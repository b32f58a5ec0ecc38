"""Engine statistics: where did the simulated time go?

Collects simulated time, the event count and per-core busy time into one
report — the first thing to look at when a collective is slower than
expected. Everything else comes from the observer, a run's only
recorder: on an observed run (``Node(...,
options=RunOptions(observe="spans"))``, as ``repro trace`` runs) the
report carries the blocked time per wait family and the full
metrics-registry snapshot, message and XPMEM counts included, so every
counter any subsystem registered rides along without this module having
to know about it.
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
    # Observed blocked time per wait family, merged across processes by
    # ``Flag.wait_key`` (``flag xhc.avail``, ``atomic sm.ctr`` — rank
    # suffixes stripped), so one family is one row.
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
    """Snapshot the engine's clock and busy times and its observer's
    waits/metrics."""
    engine = node.engine
    busy = dict(engine._core_busy)
    done = sum(1 for p in engine.processes
               if p.finish_time is not None)
    obs = engine.obs
    waits: dict[str, float] = {}
    for wait in obs.waits:
        key = f"{wait.kind} {wait.group}"
        waits[key] = waits.get(key, 0.0) + (wait.end - wait.start)
    return RunStats(
        sim_time=engine.now,
        events=engine.events_processed,
        processes=len(engine.processes),
        processes_done=done,
        core_busy={c: min(t, engine.now) for c, t in busy.items()},
        wait_breakdown=waits,
        metrics=obs.metrics.snapshot(),
    )
