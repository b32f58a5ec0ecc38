"""repro.check — the correctness-tooling subsystem.

Two heads:

* **dynamic sanitizer** — a vector-clock happens-before race detector
  (:mod:`repro.check.race`) plus wait-for-graph deadlock analysis
  (:mod:`repro.check.deadlock`), switched on per node with
  ``Node(topo, options=RunOptions(check='race'|'deadlock'|'full'))``,
  mirroring the ``observe`` field. Findings land in
  ``node.check_report``.
* **static lint** — repo-specific AST rules (:mod:`repro.check.lint`),
  runnable as ``python -m repro check --lint``.

See docs/checking.md for the rule catalogue and workflow.

This module deliberately imports neither :mod:`repro.check.lint` nor
:mod:`repro.check.runner` at import time — the engine imports us, and
those two pull in the tuning cache and the bench drivers respectively.
"""

from .deadlock import DeadlockInfo, find_deadlock
from .race import RaceChecker
from .report import CheckReport, Finding
from .vclock import VClock

__all__ = [
    "CheckReport",
    "DeadlockInfo",
    "Finding",
    "RaceChecker",
    "VClock",
    "find_deadlock",
    "run_lint",
    "run_sanitized",
]


def __getattr__(name: str):
    if name == "run_lint":
        from .lint import run_lint
        return run_lint
    if name == "run_sanitized":
        from .runner import run_sanitized
        return run_sanitized
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
