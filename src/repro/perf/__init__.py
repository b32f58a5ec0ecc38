"""repro.perf — simulator performance measurement and regression guard.

The hot-path work (single-pass source selection, the event engine's
in-engine ChunkRun expansion, allocation-free handlers, inlined cache
accounting — see docs/performance.md) is only worth having if it is
*measured* and *protected*. This package is the measurement side:

* :func:`~repro.perf.harness.run_engine_micro` — a synthetic event storm
  through the bare engine; reports events/second. CI asserts a floor on
  this number so an accidental slow-down in the event loop fails the
  build, not a later paper-figure sweep.
* :func:`~repro.perf.harness.run_macro` — the reference macro workload
  (64 KiB–1 MiB bcast+allreduce, 32 ranks, epyc-1p, observe/check off);
  its wall time is the headline number recorded in ``BENCH_<n>.json``.

Run via ``python -m repro perf`` (``--quick``, ``--profile``,
``--emit-bench``, ``--assert-floor``); see docs/performance.md.
"""

from .harness import (MACRO_KINDS, MACRO_SIZES, emit_record,
                      profile_macro, run_engine_micro, run_macro, run_perf)

__all__ = [
    "MACRO_KINDS", "MACRO_SIZES", "emit_record", "profile_macro",
    "run_engine_micro", "run_macro", "run_perf",
]
