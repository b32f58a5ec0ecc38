"""Deprecated shim — the result cache now lives in :mod:`repro.exec.cache`.

The cache was promoted out of the tuner so that every sweep entry point
(bench, figures, tune, check, obs) shares one content-addressed store.
Each name imported from this module still resolves to its
``repro.exec.cache`` original but emits a ``DeprecationWarning`` naming
that module; the shim goes when docs/api.md's deprecation window ends.
``import repro.tune`` itself stays warning-free.
"""

import warnings

from ..exec import cache as _cache

__all__ = [
    "DEFAULT_CACHE_PATH",
    "SIM_VERSION",
    "ResultCache",
    "cache_key",
    "default_cache_path",
]


def __getattr__(name: str):
    if name in __all__:
        warnings.warn(
            f"repro.tune.cache.{name} is deprecated; import it from "
            f"repro.exec.cache instead (see docs/api.md)",
            DeprecationWarning, stacklevel=2)
        return getattr(_cache, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
