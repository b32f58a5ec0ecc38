"""The single run-behavior knob object: :class:`RunOptions`.

Historically :class:`repro.node.Node` grew one keyword per concern —
``data_movement=``, ``record_copies=``, ``observe=``, ``check=`` — and
every runner copied the pile. :class:`RunOptions` collapses them into one
frozen dataclass accepted by ``Node``, :class:`repro.exec.RunRequest` and
the runners; the old keywords survive as deprecated aliases (see
:func:`resolve_options` and docs/api.md for the deprecation policy).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

from .errors import ConfigError

#: Engines a Node can run programs on (docs/performance.md).
ENGINES = ("event", "array")


class _Unset:
    """Sentinel distinguishing "not passed" from an explicit None/False."""

    def __repr__(self) -> str:  # pragma: no cover
        return "<unset>"


UNSET = _Unset()


@dataclass(frozen=True)
class RunOptions:
    """Everything that modulates *how* a simulation runs.

    With one deliberate exception — ``engine`` — none of these change the
    simulated latencies.

    ``data_movement``
        Actually move buffer bytes (numerical correctness checks need it;
        latency sweeps leave it off).
    ``record_copies``
        Legacy per-transfer records in ``engine.trace`` for
        :class:`repro.sim.trace.Timeline`.
    ``observe``
        ``None``/``False`` | ``"spans"`` | ``True``/``"full"`` — span
        tracing and metrics (docs/observability.md).
    ``check``
        ``None``/``False`` | ``"race"`` | ``"deadlock"`` |
        ``True``/``"full"`` — the dynamic sanitizer (docs/checking.md).
    ``engine``
        ``"event"`` (default) — the per-event heap engine, the numeric
        reference. ``"array"`` — the array-mode engine
        (:class:`repro.sim.array_engine.ArrayEngine`): zero-decision
        pipeline segments are priced in batches with bulk
        bandwidth-contention sampling. Array-mode latencies differ from
        the event engine by the documented approximations
        (docs/performance.md); the engine name is therefore part of the
        result-cache key (docs/api.md). Neither engine needs numpy for
        latency-only runs; the array engine is incompatible with
        ``observe``/``check``/``record_copies``.
    """

    data_movement: bool = True
    record_copies: bool = False
    observe: "bool | str | None" = None
    check: "bool | str | None" = None
    engine: str = "event"

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ConfigError(
                f"unknown engine {self.engine!r}; expected one of "
                f"{'/'.join(ENGINES)}"
            )

    @property
    def instrumented(self) -> bool:
        """True when the run produces side artifacts (spans, findings,
        copy records) beyond a latency — such runs bypass the result
        cache, which stores latencies only."""
        return (bool(self.observe) or bool(self.check)
                or self.record_copies)

    def with_(self, **changes) -> "RunOptions":
        """A copy with ``changes`` applied (frozen-dataclass update)."""
        return replace(self, **changes)


#: The do-nothing default: data moves, nothing is instrumented.
DEFAULT_OPTIONS = RunOptions()


def resolve_options(
    options: RunOptions | None,
    *,
    caller: str = "Node",
    stacklevel: int = 3,
    data_movement: "bool | _Unset" = UNSET,
    record_copies: "bool | _Unset" = UNSET,
    observe: "bool | str | None | _Unset" = UNSET,
    check: "bool | str | None | _Unset" = UNSET,
) -> RunOptions:
    """Merge the deprecated per-concern keywords into a RunOptions.

    Exactly one :class:`DeprecationWarning` is emitted per call that uses
    any legacy keyword, naming all of them at once. Passing both
    ``options`` and a legacy keyword is ambiguous and raises
    ``TypeError``.
    """
    legacy = {
        name: value
        for name, value in (("data_movement", data_movement),
                            ("record_copies", record_copies),
                            ("observe", observe),
                            ("check", check))
        if value is not UNSET
    }
    if legacy:
        if options is not None:
            raise TypeError(
                f"{caller}: pass either options=RunOptions(...) or the "
                f"legacy keyword(s) {sorted(legacy)}, not both")
        warnings.warn(
            f"{caller}(..., {', '.join(sorted(legacy))}=...) is "
            f"deprecated; pass options=RunOptions(...) instead "
            f"(see docs/api.md)",
            DeprecationWarning, stacklevel=stacklevel)
        return RunOptions(**legacy)
    return options if options is not None else DEFAULT_OPTIONS
