"""Optional-dependency gates.

numpy is a ``[perf]`` extra, not a hard dependency: both engines and
every latency-only code path run without it. Anything that genuinely
needs arrays — data movement, value validation — goes through
:func:`require_numpy` so a missing install fails with one clear
:class:`~repro.errors.ConfigError` instead of an ImportError from deep
inside a simulation.
"""

from __future__ import annotations

from .errors import ConfigError


def require_numpy(feature: str):
    """numpy, or a ConfigError naming the feature that wanted it."""
    try:
        import numpy
    except ImportError:
        raise ConfigError(
            f"{feature} requires numpy, which is not installed; "
            f"install the perf extra (pip install repro[perf])"
        ) from None
    return numpy
