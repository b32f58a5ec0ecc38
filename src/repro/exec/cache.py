"""Content-addressed cache of simulation results (promoted from
``repro.tune.cache`` — every entry point shares this store now, not just
the autotuner; ``repro.tune.cache`` remains as a thin re-export shim).

Every measurement is keyed by a digest of *everything that determines it*:
system, collective, message size, rank count, iteration counts, the full
component/config description, and a simulator version tag. Re-running any
sweep with a warm cache therefore performs zero new simulations, and any
change to the inputs (or a bump of ``SIM_VERSION`` when the simulator's
pricing changes) misses cleanly instead of serving stale numbers.

The digest is taken over the canonical JSON form (sorted keys, no
whitespace), so it is stable across dict insertion orders and across
process boundaries — a worker process and the coordinating process always
agree on the key of a request.

Persistence is a sharded, one-file-per-entry store
(:class:`~repro.exec.store.ShardedStore`) under the cache *root*
directory — the single flat JSON file of earlier versions could not
survive millions of entries. A ``*.json`` path, the old flat-file
spelling, still names a store: its root is the file's directory.
Corrupt or truncated entries are quarantined with a warning and treated
as misses; writes are atomic (``*.tmp`` + ``os.replace``); the store can
be size-bounded with LRU eviction (see docs/serving.md).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading

from .store import ShardedStore

# Bump when simulator pricing changes invalidate cached latencies.
# Lint rule RC105 (repro.check.lint) enforces this: it fingerprints the
# sim-semantics sources and fails when they change without a bump here.
# After bumping, run `python -m repro check --update-fingerprint`.
# 2: scatter gathers all ranks' acks at the root (release-protocol fix).
# 3: the array engine (RunOptions.engine="array") joins the result cache:
#    its latencies differ from the event engine by the documented
#    approximations (docs/performance.md), so the engine name entered
#    RunRequest.payload() and cached entries must not survive the key
#    change. Event-engine semantics are unchanged — the latency goldens
#    were re-recorded verbatim under the new version.
SIM_VERSION = 3

#: Where the shared store lives unless a caller says otherwise. This is
#: the store *root* directory; entries live in sharded per-entry files
#: underneath it (``objects/v<SIM_VERSION>/<2-hex>/<digest>.json``).
DEFAULT_CACHE_PATH = os.path.join("results", "cache")


def default_cache_path() -> str:
    """The conventional location of the shared result store."""
    return DEFAULT_CACHE_PATH


def cache_key(payload: dict) -> str:
    """SHA-256 over the canonical JSON form of the measurement request."""
    canon = json.dumps({**payload, "sim_version": SIM_VERSION},
                       sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def store_layout(path: str) -> str:
    """Resolve a cache path to its store root.

    Directory paths are store roots; a ``*.json`` path is the old
    flat-file spelling and maps to its containing directory, so
    ``results/cache/sim_cache.json`` and ``results/cache`` name the same
    store.
    """
    if path.endswith(".json"):
        return os.path.dirname(path) or "."
    return path


@dataclasses.dataclass(frozen=True)
class CacheStats:
    """One coherent snapshot of a :class:`ResultCache`'s accounting —
    what the serve daemon scrapes into its telemetry after every chunk
    (hit/miss totals from this process, eviction/quarantine totals from
    the backing store's lifetime counters)."""

    hits: int
    misses: int
    entries: int
    evictions: int
    quarantined: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {**dataclasses.asdict(self),
                "hit_rate": round(self.hit_rate, 6)}


class ResultCache:
    """A persistent {digest: latency} store with hit/miss accounting.

    The API is unchanged from the flat-file era — ``get``/``put`` by
    payload, ``save()``, ``len()`` — so exec/tune callers are untouched;
    only the on-disk layout moved to sharded per-entry files. ``len()``
    and lookups cover the *current* ``SIM_VERSION`` generation only;
    stale generations are invisible (and reclaimed by eviction).

    One cache is safe to share between threads: the serve daemon's event
    loop answers store hits at submit while its worker thread looks up
    and records a chunk's simulations. ``get``, ``put``, ``save``,
    ``stats``, ``store_info`` and ``len()`` each hold one lock for their
    whole body, and none of them calls another.
    """

    def __init__(self, path: str | os.PathLike | None = None, *,
                 max_entries: int | None = None,
                 max_bytes: int | None = None) -> None:
        self.path = os.fspath(path) if path is not None else None
        self.entries: dict[str, dict] = {}
        self._dirty: set[str] = set()
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self.store: ShardedStore | None = None
        if self.path:
            self.store = ShardedStore(store_layout(self.path),
                                      max_entries=max_entries,
                                      max_bytes=max_bytes)

    def __len__(self) -> int:
        with self._lock:
            return self._count()

    def _count(self) -> int:
        """Entries in the store's current generation plus unflushed puts.

        ``entries`` also keeps what the store has since evicted, so it
        does not count; an entry another process wrote and this one read
        is in the store's digest set (``ShardedStore.read`` adds it)."""
        if self.store is None:
            return len(self.entries)
        stored = self.store.digests(SIM_VERSION)
        return len(stored) + len(self._dirty - stored)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def get(self, payload: dict, *, count_miss: bool = True) -> float | None:
        """The stored latency of ``payload``, or ``None``. A hit always
        counts in :attr:`hits`; a miss counts in :attr:`misses` unless
        ``count_miss`` is false, for a caller that looks the payload up
        again later and counts it then."""
        digest = cache_key(payload)
        with self._lock:
            entry = self.entries.get(digest)
            if self.store is not None:
                if entry is not None:
                    # A memory hit refreshes LRU recency as a disk read
                    # does, or the hottest entries would be the first
                    # evicted.
                    self.store.touch(SIM_VERSION, digest)
                else:
                    entry = self.store.read(SIM_VERSION, digest)
                    if entry is not None:
                        if entry.get("sim_version",
                                     SIM_VERSION) != SIM_VERSION:
                            entry = None  # stale generation; never serve
                        else:
                            self.entries[digest] = entry
            if entry is None:
                if count_miss:
                    self.misses += 1
                return None
            self.hits += 1
            return entry["latency_s"]

    def put(self, payload: dict, latency_s: float) -> None:
        digest = cache_key(payload)
        entry = {
            "latency_s": latency_s,
            # The request itself is stored alongside for auditability;
            # the digest alone would be write-only.
            "request": payload,
            "sim_version": SIM_VERSION,
        }
        with self._lock:
            self.entries[digest] = entry
            self._dirty.add(digest)

    def save(self) -> None:
        """Flush dirty entries to the sharded store, evict if that wrote
        any, and refresh the ledger if any of that (or a quarantine)
        changed the store since the last ledger write. A save with
        nothing to flush leaves ``ledger.json`` untouched and never walks
        the store, bounded or not; one that flushed only new entries
        walks it only when :meth:`ShardedStore.save_ledger` must rescan
        or a bound asks :meth:`ShardedStore.evict` to. A no-op without a
        backing path."""
        if self.store is None:
            return
        with self._lock:
            wrote = bool(self._dirty)
            for digest in sorted(self._dirty):
                self.store.write(SIM_VERSION, digest, self.entries[digest])
            self._dirty.clear()
            if wrote:
                self.store.evict()
            if wrote or self.store.evictions or self.store.quarantined:
                self.store.save_ledger()

    def stats(self) -> CacheStats:
        """Cheap accounting snapshot (no filesystem walk; ``entries``
        counts the current ``SIM_VERSION`` generation)."""
        with self._lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                entries=self._count(),
                evictions=(self.store.evictions_total
                           if self.store is not None else 0),
                quarantined=(self.store.quarantined_total
                             if self.store is not None else 0),
            )

    def store_info(self) -> dict | None:
        """Totals + policy of the backing store (``None`` if in-memory).

        ``entries`` and ``bytes`` are the store's running ledger totals
        when this instance knows them (it saved the ledger last), so a
        daemon's ``status`` does not walk the store; otherwise a scan."""
        if self.store is None:
            return None
        with self._lock:
            totals = self.store.running_totals()
            count, size = totals if totals is not None \
                else self.store.totals()
            return {
                "root": self.store.root,
                "entries": count,
                "bytes": size,
                "current_version_entries": self.store.count(SIM_VERSION),
                "max_entries": self.store.max_entries,
                "max_bytes": self.store.max_bytes,
                "sim_version": SIM_VERSION,
            }
