"""Sharded, content-addressed, size-bounded on-disk result store.

The flat single-file cache (``results/cache/sim_cache.json``) served the
repo fine at thousands of entries but cannot survive millions: every load
parses the whole file, every save rewrites it, and two writers clobber
each other's entries. This store keeps **one file per entry**, sharded by
the first two hex characters of the digest so no directory ever holds
more than ~1/256th of the population::

    <root>/
      objects/v<SIM_VERSION>/<2-hex>/<digest>.json   one entry per file
      ledger.json          advisory totals + policy
      quarantine/          corrupt entries are moved here, never parsed again

Properties the serving layer (and concurrent sweeps) rely on:

* **Atomic writes** — every entry (and the ledger) is written to a
  per-writer ``*.tmp`` sibling and ``os.replace``'d into place, so a
  killed worker or daemon can never leave a half-written entry behind.
* **Corruption is a miss, not a crash** — an unparseable entry file is
  moved to ``quarantine/`` with a warning and treated as absent.
* **The filesystem is the source of truth** — ``ledger.json`` is an
  advisory summary. :meth:`save_ledger` derives its totals from a scan
  of every shard on an instance's first save, after an eviction or a
  quarantine, after a write replaced an existing entry, and whenever
  ``ledger.json`` is not the file this instance last wrote (another
  process saved since). Otherwise it adds the sizes of this instance's
  own new entries to the totals it last wrote, so one save costs the
  same on a 10,000-entry store as on a 50-entry one. Entries another
  process wrote after this instance's last scan are missing from its
  ledger until some process scans again, so the last ledger written can
  lag the files.
* **LRU eviction** — when ``max_entries``/``max_bytes`` bounds are set,
  the oldest entries (by file mtime; reads refresh it) are unlinked
  until the store fits. Stale ``SIM_VERSION`` generations age out the
  same way since nothing ever reads (or touches) them again. A save
  whose running ledger totals fit the bounds does not walk the store.
"""

from __future__ import annotations

import json
import os
import threading
import warnings

OBJECTS_DIR = "objects"
QUARANTINE_DIR = "quarantine"
LEDGER_NAME = "ledger.json"
ENTRY_SUFFIX = ".json"
LEDGER_VERSION = 1


def _atomic_write_json(path: str, payload: dict, *,
                       indent=None) -> os.stat_result:
    """Write JSON via ``*.tmp`` + ``os.replace``; returns the written
    file's stat (``st_size`` is its length).

    The temp name carries the writing process and thread, so two writers
    of one path never replace each other's temp file. The directory is
    created only when opening the temp file finds it missing, so a write
    into an existing directory makes no extra system call.
    """
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        try:
            fh = open(tmp, "w")
        except FileNotFoundError:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            fh = open(tmp, "w")
        with fh:
            fh.write(json.dumps(payload, indent=indent, sort_keys=True))
            fh.flush()
            # Renaming keeps the inode, size and mtime, so this is also
            # the stat of ``path`` once the replace below lands.
            st = os.fstat(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return st


def _stamp(st: os.stat_result) -> tuple[int, int, int]:
    """What identifies one version of a file that is only ever replaced
    whole: a rewrite gets a new inode (and usually mtime)."""
    return (st.st_mtime_ns, st.st_size, st.st_ino)


def _touch(path: str) -> None:
    """Refresh a file's mtime (LRU recency); a missing file is ignored."""
    try:
        os.utime(path)
    except OSError:  # never flushed, or raced with an eviction
        pass


class ShardedStore:
    """The on-disk half of :class:`~repro.exec.cache.ResultCache`.

    Versions are kept as separate subtrees (``objects/v2/…``) so the set
    of *servable* entries — the current ``SIM_VERSION`` generation — is
    enumerable without opening a single entry file, and a version bump
    makes the whole previous generation invisible at once instead of
    poisoning lookups.
    """

    def __init__(self, root: str | os.PathLike, *,
                 max_entries: int | None = None,
                 max_bytes: int | None = None) -> None:
        self.root = os.fspath(root)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        # ``evictions``/``quarantined`` fold into the on-disk ledger on
        # every save_ledger() and reset; the ``*_total`` counters keep
        # the whole-lifetime view a long-lived daemon scrapes.
        self.evictions = 0
        self.quarantined = 0
        self.evictions_total = 0
        self.quarantined_total = 0
        # {version: set(digests)} — lazily scanned, incrementally updated
        # by our own writes/evictions; external writers are picked up on
        # the next refresh().
        self._digests: dict[int, set[str]] = {}
        # The (entries, bytes) of the last ledger this instance wrote and
        # that file's stamp; None makes the next save_ledger() rescan.
        # ``_added`` is what this instance's writes added since.
        self._ledger_totals: tuple[int, int] | None = None
        self._ledger_stamp: tuple[int, int, int] | None = None
        self._added = [0, 0]

    # -- paths ------------------------------------------------------------

    def objects_root(self, version: int) -> str:
        return os.path.join(self.root, OBJECTS_DIR, f"v{version}")

    def entry_path(self, version: int, digest: str) -> str:
        return os.path.join(self.objects_root(version), digest[:2],
                            digest + ENTRY_SUFFIX)

    @property
    def ledger_path(self) -> str:
        return os.path.join(self.root, LEDGER_NAME)

    @property
    def quarantine_root(self) -> str:
        return os.path.join(self.root, QUARANTINE_DIR)

    # -- entry I/O --------------------------------------------------------

    def read(self, version: int, digest: str) -> dict | None:
        """Load one entry; corrupt or truncated files become a miss and
        are moved to ``quarantine/`` with a warning."""
        path = self.entry_path(version, digest)
        try:
            with open(path) as fh:
                entry = json.load(fh)
            if not isinstance(entry, dict) or "latency_s" not in entry:
                raise ValueError("entry missing 'latency_s'")
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, ValueError, UnicodeDecodeError,
                OSError) as exc:
            self.quarantine(path, str(exc))
            self._digests.get(version, set()).discard(digest)
            return None
        _touch(path)  # refresh LRU recency on every hit
        known = self._digests.get(version)
        if known is not None:
            known.add(digest)  # another process may have written it
        return entry

    def touch(self, version: int, digest: str) -> None:
        """Refresh one entry's LRU recency, as a read does. An entry that
        is not on disk (never flushed, or evicted) is ignored."""
        _touch(self.entry_path(version, digest))

    def write(self, version: int, digest: str, entry: dict) -> str:
        """Atomically persist one entry; returns its path.

        Past the generation's first write, which scans its digest set,
        this costs the same however large the store is: the digest set
        gains the digest and the pending ledger totals gain the entry.
        Replacing an existing file makes the next save rescan instead,
        because the old file's size is not known.
        """
        path = self.entry_path(version, digest)
        replaced = os.path.exists(path)
        size = _atomic_write_json(path, entry).st_size
        if replaced:
            self._ledger_totals = None
        else:
            self._added[0] += 1
            self._added[1] += size
        self.digests(version).add(digest)
        return path

    # -- enumeration ------------------------------------------------------

    def _scan_digests(self, version: int) -> set[str]:
        found: set[str] = set()
        base = self.objects_root(version)
        try:
            shards = os.scandir(base)
        except FileNotFoundError:
            return found
        with shards:
            for shard in shards:
                if not shard.is_dir():
                    continue
                for name in os.listdir(shard.path):
                    if name.endswith(ENTRY_SUFFIX) \
                            and not name.endswith(".tmp"):
                        found.add(name[:-len(ENTRY_SUFFIX)])
        return found

    def digests(self, version: int) -> set[str]:
        """Digests of the ``version`` generation (cached scan)."""
        if version not in self._digests:
            self._digests[version] = self._scan_digests(version)
        return self._digests[version]

    def refresh(self) -> None:
        """Drop scan caches (pick up entries other processes wrote); the
        next :meth:`save_ledger` rescans too."""
        self._digests.clear()
        self._ledger_totals = None

    def count(self, version: int) -> int:
        return len(self.digests(version))

    def scan(self) -> "list[tuple[str, os.stat_result]]":
        """``(path, stat)`` of every entry file across all generations."""
        out: list[tuple[str, os.stat_result]] = []
        base = os.path.join(self.root, OBJECTS_DIR)
        if not os.path.isdir(base):
            return out
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in filenames:
                if not name.endswith(ENTRY_SUFFIX):
                    continue
                path = os.path.join(dirpath, name)
                try:
                    out.append((path, os.stat(path)))
                except FileNotFoundError:
                    continue  # raced with a concurrent eviction
        return out

    def totals(self) -> tuple[int, int]:
        """(entry count, total bytes) over every generation, by scan."""
        entries = self.scan()
        return len(entries), sum(st.st_size for _p, st in entries)

    # -- eviction ---------------------------------------------------------

    def _fits(self, count: int, size: int) -> bool:
        return ((self.max_entries is None or count <= self.max_entries)
                and (self.max_bytes is None or size <= self.max_bytes))

    def running_totals(self) -> tuple[int, int] | None:
        """The totals :meth:`save_ledger` would write without a scan, or
        ``None`` when it would rescan: the last ledger this instance
        wrote plus its own new entries, while ``ledger.json`` is still
        that file. For a store no other process writes, they equal
        :meth:`totals`."""
        if self._ledger_totals is None:
            return None
        try:
            stamp = _stamp(os.stat(self.ledger_path))
        except FileNotFoundError:
            return None
        if stamp != self._ledger_stamp:
            return None
        return (self._ledger_totals[0] + self._added[0],
                self._ledger_totals[1] + self._added[1])

    def evict(self) -> int:
        """Unlink least-recently-used entries until the store fits the
        ``max_entries``/``max_bytes`` bounds; returns how many went.

        The store is scanned only when the running totals (see
        :meth:`save_ledger`) are unknown or exceed a bound."""
        if self.max_entries is None and self.max_bytes is None:
            return 0
        known = self.running_totals()
        if known is not None and self._fits(*known):
            return 0
        entries = self.scan()
        count = len(entries)
        size = sum(st.st_size for _p, st in entries)
        over_entries = (self.max_entries is not None
                        and count > self.max_entries)
        over_bytes = self.max_bytes is not None and size > self.max_bytes
        if not (over_entries or over_bytes):
            return 0
        # Oldest first; ties broken by path so two processes evicting
        # concurrently converge on the same victims.
        entries.sort(key=lambda ps: (ps[1].st_mtime_ns, ps[0]))
        removed = 0
        for path, st in entries:
            if self._fits(count, size):
                break
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass  # another process got it first; still gone
            count -= 1
            size -= st.st_size
            removed += 1
        if removed:
            self.evictions += removed
            self.evictions_total += removed
            self.refresh()
            bounds = ", ".join(
                part for part in (
                    f"max {self.max_entries} entries"
                    if self.max_entries is not None else "",
                    f"max {self.max_bytes} bytes"
                    if self.max_bytes is not None else "") if part)
            warnings.warn(
                f"evicted {removed} result-cache entr"
                f"{'y' if removed == 1 else 'ies'} from {self.root!r} "
                f"to fit {bounds} ({self.evictions_total} total this "
                f"process)", RuntimeWarning, stacklevel=2)
        return removed

    # -- quarantine -------------------------------------------------------

    def quarantine(self, path: str, reason: str) -> str | None:
        """Move an unreadable file aside so it is never parsed again."""
        os.makedirs(self.quarantine_root, exist_ok=True)
        dest = os.path.join(self.quarantine_root,
                            os.path.basename(path) + ".corrupt")
        n = 0
        while os.path.exists(dest):
            n += 1
            dest = os.path.join(self.quarantine_root,
                                f"{os.path.basename(path)}.corrupt.{n}")
        try:
            os.replace(path, dest)
        except FileNotFoundError:  # pragma: no cover - raced
            return None
        self._ledger_totals = None
        self.quarantined += 1
        self.quarantined_total += 1
        warnings.warn(
            f"quarantined corrupt cache entry {path!r} -> {dest!r} "
            f"({reason}); treating as a miss "
            f"({self.quarantined_total} total this process)",
            RuntimeWarning, stacklevel=3)
        return dest

    # -- ledger -----------------------------------------------------------

    def load_ledger(self) -> dict:
        return self._read_ledger()[0]

    def _read_ledger(self) -> "tuple[dict, tuple[int, int, int] | None]":
        """The ledger on disk and its stamp (``{}, None`` when absent)."""
        try:
            with open(self.ledger_path) as fh:
                stamp = _stamp(os.fstat(fh.fileno()))
                ledger = json.load(fh)
            if isinstance(ledger, dict):
                return ledger, stamp
        except FileNotFoundError:
            pass
        except (json.JSONDecodeError, OSError):
            self.quarantine(self.ledger_path, "unreadable ledger")
        return {}, None

    def save_ledger(self) -> dict:
        """Persist the totals and counters; returns the ledger written.

        The totals are derived from a scan of every shard on this
        instance's first save, after an eviction or a quarantine, after a
        write replaced an existing entry, and when ``ledger.json`` is not
        the file this instance last wrote (another process saved since).
        Otherwise they are the totals this instance last wrote plus its
        own new entries, so the save does not walk the store. Either way
        no entry is counted twice; entries another process wrote after
        this instance's last scan are left out until some process scans.
        """
        previous, stamp = self._read_ledger()
        if self._ledger_totals is None or stamp != self._ledger_stamp:
            count, size = self.totals()
        else:
            count = self._ledger_totals[0] + self._added[0]
            size = self._ledger_totals[1] + self._added[1]
        ledger = {
            "ledger_version": LEDGER_VERSION,
            "entries": count,
            "bytes": size,
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
            "evictions": int(previous.get("evictions", 0)) + self.evictions,
            "quarantined": (int(previous.get("quarantined", 0))
                            + self.quarantined),
        }
        self.evictions = 0
        self.quarantined = 0
        self._ledger_stamp = _stamp(
            _atomic_write_json(self.ledger_path, ledger, indent=1))
        self._ledger_totals = (count, size)
        self._added = [0, 0]
        return ledger
