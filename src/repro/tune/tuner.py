"""The tuning loop: space → prune → simulate → decide → persist.

For every (system, collective, size) point the tuner generates the
topology-derived candidate space, discards analytically dominated configs,
simulates the survivors (cache-backed, optionally in parallel), and
records the winner in a :class:`~repro.tune.table.DecisionTable` next to
the paper-default baseline it replaced. The paper default is always
simulated, so a tuned table is never slower than the hand-tuned
configuration at any swept point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..memory.model import model_for
from ..topology import get_system
from ..exec.cache import ResultCache
from ..xhc.config import XhcConfig
from .evaluate import EVAL_ITERS, QUICK_ITERS, Evaluator
from .prune import DEFAULT_KEEP, DEFAULT_MARGIN, prune
from .space import PAPER_DEFAULT, config_to_dict, generate_space
from .table import DecisionTable, bucket_of

SWEEP_SIZES = (256, 1024, 4096, 16384, 65536, 262144, 1048576)
QUICK_SIZES = (1024, 65536, 1048576)
COLLECTIVES = ("bcast", "allreduce")


@dataclass
class TunePoint:
    """Outcome of tuning one (system, collective, size) cell."""

    system: str
    collective: str
    size: int
    nranks: int
    candidates: int          # generated space size
    survivors: int           # after analytic pruning
    baseline_s: float | None
    best_s: float | None
    best_config: XhcConfig | None
    skipped: str | None = None

    @property
    def speedup(self) -> float | None:
        if not self.baseline_s or not self.best_s:
            return None
        return self.baseline_s / self.best_s

    def to_record(self) -> dict:
        return {
            "system": self.system,
            "collective": self.collective,
            "size": self.size,
            "nranks": self.nranks,
            "candidates": self.candidates,
            "survivors": self.survivors,
            "default_us": None if self.baseline_s is None
            else self.baseline_s * 1e6,
            "tuned_us": None if self.best_s is None else self.best_s * 1e6,
            "speedup": self.speedup,
            "config": None if self.best_config is None
            else config_to_dict(self.best_config),
            "skipped": self.skipped,
        }


@dataclass
class TuneResult:
    table: DecisionTable
    points: list[TunePoint] = field(default_factory=list)
    simulations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


def tune(systems=("epyc-1p", "epyc-2p", "arm-n1"),
         collectives=COLLECTIVES,
         sizes=None,
         *,
         quick: bool = False,
         nranks: int | None = None,
         budget: int | None = None,
         workers: int | None = None,
         cache: ResultCache | None = None,
         table: DecisionTable | None = None,
         resume: bool = False,
         margin: float = DEFAULT_MARGIN,
         keep: int | None = None,
         progress=None) -> TuneResult:
    """Tune every (system, collective, size) point and return the table.

    ``table`` (with ``resume=True``) skips already-decided buckets;
    ``budget`` caps new simulations across the whole run; ``quick`` trims
    the sweep, the candidate grids, and the rank counts the way the
    figure drivers do.
    """
    if sizes is None:
        sizes = QUICK_SIZES if quick else SWEEP_SIZES
    if keep is None:
        keep = 6 if quick else DEFAULT_KEEP
    iters = QUICK_ITERS if quick else EVAL_ITERS
    table = table if table is not None else DecisionTable()
    evaluator = Evaluator(cache=cache, workers=workers, budget=budget)
    result = TuneResult(table=table)

    for system in systems:
        topo = get_system(system)
        model = model_for(topo)
        n = nranks if nranks is not None else topo.n_cores
        if quick:
            n = min(n, 64)
        for collective in collectives:
            for size in sizes:
                point = TunePoint(system=system, collective=collective,
                                  size=size, nranks=n, candidates=0,
                                  survivors=0, baseline_s=None, best_s=None,
                                  best_config=None)
                result.points.append(point)
                if resume and (system, collective, bucket_of(size)) in table:
                    point.skipped = "already tuned (resume)"
                    continue
                space = generate_space(topo, n, collective, size,
                                       quick=quick)
                point.candidates = len(space)
                survivors = prune(space, topo, model, collective, size, n,
                                  margin=margin, keep=keep,
                                  always_keep=(PAPER_DEFAULT,))
                point.survivors = len(survivors)
                # Baseline first: even a budget-truncated evaluation then
                # measures the paper default, so "best" never regresses.
                if PAPER_DEFAULT in survivors:
                    survivors = [PAPER_DEFAULT] + [
                        c for c in survivors if c != PAPER_DEFAULT]
                if progress is not None:
                    progress(f"{system} {collective} {size}B: "
                             f"{len(space)} candidates, "
                             f"{len(survivors)} survive pruning")
                scores = evaluator.evaluate(system, collective, size, n,
                                            survivors, iters=iters)
                if not scores:
                    point.skipped = "budget exhausted"
                    continue
                baseline = scores.get(PAPER_DEFAULT)
                best_cfg = min(sorted(scores, key=repr),
                               key=lambda c: scores[c])
                point.baseline_s = baseline
                point.best_s = scores[best_cfg]
                point.best_config = best_cfg
                table.record(system, collective, size, best_cfg,
                             scores[best_cfg], baseline_s=baseline,
                             nranks=n)

    result.simulations = evaluator.simulations
    result.cache_hits = evaluator.cache.hits
    result.cache_misses = evaluator.cache.misses
    evaluator.close()
    return result
