"""The benchmark's fixed grid, its seeded samples and the reference table.

A *cell* is one (system, collective, size) with every component of the
paper's comparison in it; a *point* is one component of a cell. The grid
is fixed here; ``--seed`` only chooses which cells a run answers (and,
for serve-mixed, which points each job carries). Sampling is stratified
by size class and sized by the reference table's per-cell host cost, so
every seed gets the same cost mix and roughly ``--seconds`` of work on
the machine the table was recorded on.

The reference table (``reference.json``) holds, for every point, the
event-engine latency as ``float.hex``, plus the host seconds each cell
took per sweep mode (and each batch-pool point on the event engine) when
the table was recorded. The latencies are what a run checks against; the
host seconds are only sampling weights. Regenerate it with
``python3 perfbench/reference.py`` — a deliberate act, needed exactly
when SIM_VERSION changes.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_PATH = HERE / "reference.json"


def use_repo_source() -> None:
    """Put the checkout's ``src`` first on ``sys.path``; refuse to run
    without it (the benchmark measures the tree it sits in)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {src}")
    sys.path.insert(0, str(src))


#: System codename -> rank count (the full machine, as in Figs. 8 and 11).
SYSTEMS = {"epyc-1p": 32, "epyc-2p": 64, "arm-n1": 80}
COMPONENTS = {
    "bcast": ("xhc-tree", "xhc-flat", "smhc-flat", "sm", "ucc"),
    "allreduce": ("xhc-tree", "xhc-flat", "smhc-flat", "sm", "ucc",
                  "xbrc"),
}
SIZE_CLASSES = {
    "small": (64, 256, 1024),
    "medium": (4096, 16384, 65536),
    "large": (262144, 1048576),
}
#: OSU iteration counts of the figure drivers' quick mode.
WARMUP, ITERS = 1, 2
#: Cells figure-sweep and array-sweep answer first: the two headline
#: cells whose component ranking the array engine is known to disturb.
PINNED = (("epyc-1p", "bcast", 1048576), ("epyc-2p", "allreduce", 65536))
#: A sample may cost this much more than ``--seconds`` of reference time.
OVERSHOOT = 1.25
#: Extra bcast roots that give serve-mixed's batch tenant more distinct
#: store misses than the grid's root-0 points alone: about 36 reference
#: seconds of work, three times what one session can answer, so the batch
#: list outlasts the session on a faster tree or host too.
BATCH_ROOTS = tuple(range(1, 24))
BATCH_SIZES = (64, 256, 1024, 4096, 16384)
#: The small points every workload warms up on and the interactive
#: tenant queries: every component on every system at 64 B.
INTERACTIVE_SIZE = 64


def all_cells(classes: dict = SIZE_CLASSES) -> list[tuple]:
    """Every cell of ``classes`` (size class -> sizes)."""
    return [(system, coll, size)
            for sizes in classes.values() for size in sizes
            for system in SYSTEMS for coll in COMPONENTS]


def cell_points(cell: tuple, root: int = 0) -> list[tuple]:
    system, coll, size = cell
    return [(system, coll, size, comp, root) for comp in COMPONENTS[coll]]


def cell_key(cell: tuple) -> str:
    return "/".join(map(str, cell))


def point_key(point: tuple) -> str:
    system, coll, size, comp, root = point
    return f"{system}/{coll}/{size}/{comp}/r{root}"


def interactive_points() -> list[tuple]:
    return [p for system in SYSTEMS for coll in COMPONENTS
            for p in cell_points((system, coll, INTERACTIVE_SIZE))]


def interactive_jobs(seed: int, count: int) -> list[list]:
    """Interactive queries: their sizes cycle through 8-16 points, so
    every seed has the same size mix; the seed picks the points."""
    rng = random.Random(f"interactive:{seed}")
    pool = interactive_points()
    return [rng.sample(pool, 8 + index % 9) for index in range(count)]


def batch_pool() -> list[tuple]:
    """Small and medium points that the interactive set does not hold:
    the grid's root-0 points, then bcast at the extra roots."""
    warm = set(interactive_points())
    pool = [p for size in BATCH_SIZES for system in SYSTEMS
            for coll in COMPONENTS
            for p in cell_points((system, coll, size))
            if p not in warm]
    pool += [p for root in BATCH_ROOTS for size in BATCH_SIZES
             for system in SYSTEMS
             for p in cell_points((system, "bcast", size), root)]
    return pool


def make_request(point: tuple, mode: str):
    """The :class:`repro.exec.RunRequest` a point runs as in ``mode``."""
    from repro.exec import RunRequest
    from repro.options import RunOptions
    system, coll, size, comp, root = point
    if mode == "checked":
        options = RunOptions(data_movement=False, observe="spans",
                             check="full")
    else:
        options = RunOptions(data_movement=False, engine=mode)
    return RunRequest(system, coll, size, SYSTEMS[system], component=comp,
                      warmup=WARMUP, iters=ITERS, root=root,
                      options=options)


class Reference:
    """The loaded reference table, kept in flat dicts of strings and
    floats: the garbage collector tracks a handful of objects for it,
    not one per point, so it adds next to nothing to the collections the
    measured program pays for."""

    def __init__(self, path: Path = REFERENCE_PATH) -> None:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        self.sim_version = doc["sim_version"]
        self.hex = {key: entry["hex"] for key, entry in doc["points"].items()}
        self.costs = {key: entry["cost_s"]
                      for key, entry in doc["points"].items()
                      if "cost_s" in entry}
        self.cells = {f"{key}:{mode}": cost
                      for key, by_mode in doc["cells"].items()
                      for mode, cost in by_mode.items()}

    def latency(self, point: tuple) -> float:
        return float.fromhex(self.hex[point_key(point)])

    def cost(self, point: tuple) -> float:
        """Host seconds of one batch-pool point on the event engine."""
        return self.costs[point_key(point)]

    def cell_cost(self, cell: tuple, mode: str) -> float:
        return self.cells[f"{cell_key(cell)}:{mode}"]

    def grid_cost(self, mode: str, classes: dict) -> float:
        return sum(self.cell_cost(c, mode) for c in all_cells(classes))


def sample_cells(ref: Reference, seed: int, mode: str, classes: dict,
                 pinned: tuple, target_s: float) -> list[tuple]:
    """``pinned``, then rounds of one cell per size class drawn without
    replacement, until the reference cost reaches ``target_s``. A drawn
    cell that would take the total past ``OVERSHOOT * target_s`` is
    passed over, so every seed's sample costs about the same."""
    rng = random.Random(f"cells:{seed}")
    pools = {cls: [c for c in all_cells({cls: sizes}) if c not in pinned]
             for cls, sizes in classes.items()}
    for pool in pools.values():
        rng.shuffle(pool)
    cells = list(pinned)
    total = sum(ref.cell_cost(c, mode) for c in cells)
    while total < target_s and any(pools.values()):
        for cls in classes:
            if pools[cls] and total < target_s:
                cell = pools[cls].pop()
                cost = ref.cell_cost(cell, mode)
                if total + cost <= OVERSHOOT * target_s:
                    cells.append(cell)
                    total += cost
    return cells
