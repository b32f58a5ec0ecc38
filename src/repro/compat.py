"""Optional-dependency gates.

numpy is a ``[perf]`` extra, not a hard dependency: both engines and
every latency-only code path run without it. Anything that genuinely
needs arrays — data movement, value validation — goes through
:func:`get_numpy` / :func:`require_numpy` so a missing install fails
with one clear :class:`~repro.errors.ConfigError` instead of an
ImportError from deep inside a simulation.
"""

from __future__ import annotations

from .errors import ConfigError

_NUMPY = None
_NUMPY_CHECKED = False


def get_numpy():
    """The numpy module, or ``None`` when it is not installed."""
    global _NUMPY, _NUMPY_CHECKED
    if not _NUMPY_CHECKED:
        try:
            import numpy
            _NUMPY = numpy
        except ImportError:
            _NUMPY = None
        _NUMPY_CHECKED = True
    return _NUMPY


def require_numpy(feature: str):
    """numpy, or a ConfigError naming the feature that wanted it."""
    np = get_numpy()
    if np is None:
        raise ConfigError(
            f"{feature} requires numpy, which is not installed; "
            f"install the perf extra (pip install repro[perf])"
        )
    return np
