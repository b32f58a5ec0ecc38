"""Autotuning over XHC's configuration space (``python -m repro tune``).

The paper hand-tunes XHC per machine (SSIII-B/D); this package derives
those choices instead:

1. :mod:`~repro.tune.space` generates candidate :class:`XhcConfig`\\ s
   from the topology (valid hierarchy orderings, per-level chunk tuples,
   CICO thresholds, flag layouts);
2. :mod:`~repro.tune.prune` discards analytically dominated candidates
   using the :mod:`repro.analysis.loggp` closed forms;
3. :mod:`~repro.tune.evaluate` simulates the survivors through the
   shared :class:`repro.exec.Executor` (parallel, behind the repo-wide
   content-addressed cache; :mod:`~repro.tune.cache` is a deprecated
   shim over :mod:`repro.exec.cache`);
4. :mod:`~repro.tune.table` persists the winners as a JSON decision
   table that :class:`repro.mpi.colls.tunedxhc.TunedXhc` dispatches from
   at run time.
"""

from ..exec.cache import SIM_VERSION, ResultCache, cache_key
from .evaluate import Evaluator, measurement_request, simulate_payload
from .prune import estimate_cost, prune
from .space import (PAPER_DEFAULT, config_from_dict, config_to_dict,
                    generate_space, hierarchy_candidates, hierarchy_depth)
from .table import DecisionTable, bucket_of, default_table_path
from .tuner import (COLLECTIVES, QUICK_SIZES, SWEEP_SIZES, TunePoint,
                    TuneResult, tune)

__all__ = [
    "SIM_VERSION", "ResultCache", "cache_key", "Evaluator",
    "measurement_request", "simulate_payload",
    "estimate_cost", "prune", "PAPER_DEFAULT", "config_from_dict",
    "config_to_dict", "generate_space", "hierarchy_candidates",
    "hierarchy_depth", "DecisionTable", "bucket_of", "default_table_path",
    "COLLECTIVES", "QUICK_SIZES", "SWEEP_SIZES", "TunePoint", "TuneResult",
    "tune",
]
