"""Registry of the collectives frameworks compared in the paper (SSV-C)."""

from __future__ import annotations

from typing import Callable

from ..errors import ConfigError
from ..mpi.colls import SmColl, Smhc, Tuned, TunedXhc, Ucc, Xbrc
from ..xhc import Xhc

COMPONENTS: dict[str, Callable[[], object]] = {
    "tuned": Tuned,
    "sm": SmColl,
    "ucc": Ucc,
    "smhc-flat": lambda: Smhc(tree=False, name="smhc-flat"),
    "smhc-tree": lambda: Smhc(tree=True, name="smhc-tree"),
    "xbrc": Xbrc,
    "xhc-flat": lambda: Xhc(hierarchy="flat", name="xhc-flat"),
    "xhc-tree": lambda: Xhc(hierarchy="numa+socket", name="xhc-tree"),
    # Not in the paper's figure sets: uses the decision table produced by
    # ``python -m repro tune`` (falls back to xhc-tree's config without one).
    "xhc-tuned": TunedXhc,
}

# The component sets each figure compares (smhc has no tree variant on the
# single-socket Epyc-1P; xbrc implements only reduction collectives).
BCAST_SET = ["tuned", "sm", "ucc", "smhc-flat", "smhc-tree",
             "xhc-flat", "xhc-tree"]
ALLREDUCE_SET = ["tuned", "sm", "ucc", "xbrc", "xhc-flat", "xhc-tree"]


def component_names(kind: str, system: str) -> list[str]:
    names = list(BCAST_SET if kind == "bcast" else ALLREDUCE_SET)
    if system.lower() == "epyc-1p" and "smhc-tree" in names:
        names.remove("smhc-tree")
    return names


def make_component(name: str):
    try:
        factory = COMPONENTS[name]
    except KeyError:
        raise ConfigError(
            f"unknown component {name!r}; known: {sorted(COMPONENTS)}"
        ) from None
    return factory()
