"""Result-cache tiers for the mining engine and hub.

Keys are ``(store fingerprint, request canonical key)`` tuples — see
:meth:`CompactStore.fingerprint` and :meth:`MineRequest.canonical_key` —
so a hit is only possible when both the data and the (resolved) query
parameters are identical, an engine serving modified data can never
return stale results, and caches may be shared across networks (an
:class:`~repro.engine.hub.EngineHub` keeps one cache for all of its
registered networks; fingerprints keep the entries apart).

Three tiers with one contract (``get`` / ``put`` / ``purge_fingerprint``
/ ``take_fingerprint`` / ``clear`` / ``close``):

* :class:`ResultCache` — in-memory LRU.  Entries are stored as pickled
  *snapshots*: ``put`` serializes, ``get`` deserializes, so every caller
  receives a private copy and mutating a returned result can never
  poison a future hit (nor can mutating the object after ``put``).
* :class:`DiskResultCache` — one sqlite file keyed by
  ``(fingerprint, pickled canonical key)``, values pickled
  :class:`~repro.core.results.MiningResult` snapshots.  A restarted
  process answers previously mined queries without re-mining.  Loads are
  corruption-tolerant: unreadable files and undecodable rows degrade to
  misses (a corrupt file is recreated), never to exceptions.  The file
  is bounded: ``max_bytes`` caps the summed value size with
  LRU-by-``last_used`` eviction, and ``ttl_seconds`` expires entries not
  served within that window (both optional; the default stays
  unbounded for backward compatibility).
* :class:`TieredResultCache` — memory over disk: hits promote to the
  memory tier, writes and purges go to both.

The disk tier is internally locked and its connection is shared across
threads — the :mod:`repro.serve` coordinator thread reads and writes the
cache a different thread constructed.
"""

from __future__ import annotations

import os
import pickle
import sqlite3
import threading
import time
from collections import OrderedDict
from typing import Hashable

from ..obs.metrics import REGISTRY
from ..serve.markers import coordinator_only

__all__ = ["DiskResultCache", "ResultCache", "TieredResultCache"]

_CACHE_HITS = REGISTRY.counter(
    "repro_cache_hits_total", "Result-cache hits, by tier.", labels=("tier",)
)
_CACHE_MISSES = REGISTRY.counter(
    "repro_cache_misses_total", "Result-cache misses, by tier.", labels=("tier",)
)
_CACHE_EVICTIONS = REGISTRY.counter(
    "repro_cache_evictions_total",
    "Result-cache entries evicted by a size cap, by tier.",
    labels=("tier",),
)
_CACHE_EXPIRATIONS = REGISTRY.counter(
    "repro_cache_expirations_total",
    "Result-cache entries expired by TTL, by tier.",
    labels=("tier",),
)
_MEM_HITS = _CACHE_HITS.labels(tier="memory")
_MEM_MISSES = _CACHE_MISSES.labels(tier="memory")
_MEM_EVICTIONS = _CACHE_EVICTIONS.labels(tier="memory")
_DISK_HITS = _CACHE_HITS.labels(tier="disk")
_DISK_MISSES = _CACHE_MISSES.labels(tier="disk")
_DISK_EVICTIONS = _CACHE_EVICTIONS.labels(tier="disk")
_DISK_EXPIRATIONS = _CACHE_EXPIRATIONS.labels(tier="disk")

#: Fixed protocol so key blobs are stable across interpreter runs.
_PICKLE_PROTOCOL = 4


def _now() -> float:
    """Wall-clock source for TTL/LRU stamps (patchable in tests)."""
    return time.time()


def _key_fingerprint(key: Hashable) -> str | None:
    """The fingerprint component of an engine cache key, if it has one."""
    if isinstance(key, tuple) and key and isinstance(key[0], str):
        return key[0]
    return None


class ResultCache:
    """A snapshotting LRU mapping.  Hit/miss accounting lives in
    :class:`~repro.engine.engine.EngineStats`, which also sees the
    in-batch duplicates this cache never receives.

    ``maxsize=0`` disables caching entirely (every ``get`` misses and
    ``put`` is a no-op) — the engine exposes that as ``cache_size=0``.
    """

    def __init__(self, maxsize: int = 128) -> None:
        if maxsize < 0:
            raise ValueError("maxsize must be non-negative")
        self.maxsize = maxsize
        self._entries: OrderedDict[Hashable, bytes] = OrderedDict()

    def get(self, key: Hashable):
        """A private copy of the cached value, refreshed to most-recent,
        or ``None``.  Each call deserializes a fresh object — callers may
        mutate what they receive without poisoning later hits."""
        try:
            blob = self._entries[key]
        except KeyError:
            _MEM_MISSES.inc()
            return None
        self._entries.move_to_end(key)
        _MEM_HITS.inc()
        return pickle.loads(blob)

    def put(self, key: Hashable, value) -> None:
        """Snapshot ``value`` into the cache (later mutation of the
        caller's object does not reach the stored copy)."""
        if self.maxsize == 0:
            return
        self._entries[key] = pickle.dumps(value, protocol=_PICKLE_PROTOCOL)
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            _MEM_EVICTIONS.inc()

    @coordinator_only
    def purge_fingerprint(self, fingerprint: str) -> int:
        """Drop every entry keyed under ``fingerprint``; returns the count.

        Entries of a superseded store version could never be *served*
        again (lookups use the new fingerprint) — the purge exists so
        dead keys stop occupying LRU capacity that live entries need.
        """
        stale = [
            key for key in self._entries if _key_fingerprint(key) == fingerprint
        ]
        for key in stale:
            del self._entries[key]
        return len(stale)

    @coordinator_only
    def take_fingerprint(self, fingerprint: str) -> list[tuple]:
        """Remove and return ``(key, value)`` for every entry under
        ``fingerprint``.

        The destructive read behind delta *migration*: the engine takes
        a superseded fingerprint's entries, re-keys the ones it can
        prove still valid and drops the rest — either way the stale keys
        are gone, so a half-completed migration degrades to today's
        purge, never to serving a stale entry.  Values are deserialized
        snapshots, private to the caller like ``get``'s.
        """
        taken = []
        for key in [
            key for key in self._entries if _key_fingerprint(key) == fingerprint
        ]:
            blob = self._entries.pop(key)
            taken.append((key, pickle.loads(blob)))
        return taken

    def clear(self) -> None:
        self._entries.clear()

    def close(self) -> None:
        self.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries


class DiskResultCache:
    """Result cache persisted to one sqlite file between processes.

    The schema is a single ``results`` table keyed by ``(fingerprint,
    pickled canonical key)``, with per-row ``size`` and ``last_used``
    bookkeeping columns (files written by older versions are migrated in
    place).  Mid-run degradation is best-effort: an existing file that
    cannot be read as sqlite is recreated (the cache is a cache — losing
    it costs re-mining, not correctness), a row whose value fails to
    unpickle is deleted and reported as a miss, and operational errors
    during ``put`` are swallowed.  An *unopenable path* at construction
    (nonexistent directory, no permission) raises instead: a persistence
    config typo must not silently disable the tier the caller asked for.

    Parameters
    ----------
    path:
        The sqlite file.
    max_bytes:
        Cap on the summed pickled-value bytes.  Exceeding it on ``put``
        evicts least-recently-*used* rows (``get`` refreshes a row's
        ``last_used``) until back under; ``None`` leaves the file
        unbounded.  One oversized value is still stored — the cap then
        keeps everything else out, mirroring the hub's lease budget.
    ttl_seconds:
        Rows not served within this window expire: lazily on the access
        that finds them stale, and in bulk on every ``put``.  ``None``
        disables expiry.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        max_bytes: int | None = None,
        ttl_seconds: float | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None)")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive (or None)")
        self.path = os.fspath(path)
        self.max_bytes = max_bytes
        self.ttl_seconds = ttl_seconds
        #: Rows deleted by the size cap / by TTL expiry (this process).
        self.evictions = 0
        self.expirations = 0
        self._lock = threading.RLock()
        self._conn: sqlite3.Connection | None = None
        self._connect()

    # ------------------------------------------------------------------
    def _connect(self) -> None:
        try:
            self._conn = self._open()
        except sqlite3.Error:
            if not os.path.exists(self.path):
                # The file could not even be created — a bad path, not a
                # bad cache.  Corruption tolerance must not mask it.
                raise
            # Corrupt or not sqlite at all: recreate from scratch.
            os.unlink(self.path)
            self._conn = self._open()

    def _open(self) -> sqlite3.Connection:
        # One connection shared across threads, serialized by our lock —
        # the serve coordinator thread uses a cache built on the main
        # thread, which sqlite's default per-thread check would reject.
        conn = sqlite3.connect(self.path, check_same_thread=False)
        conn.execute(
            "CREATE TABLE IF NOT EXISTS results ("
            " fingerprint TEXT NOT NULL,"
            " ckey BLOB NOT NULL,"
            " value BLOB NOT NULL,"
            " PRIMARY KEY (fingerprint, ckey))"
        )
        # In-place migration of pre-eviction files: add the bookkeeping
        # columns and backfill them so old rows are evictable too.
        columns = {row[1] for row in conn.execute("PRAGMA table_info(results)")}
        if "size" not in columns:
            conn.execute(
                "ALTER TABLE results ADD COLUMN size INTEGER NOT NULL DEFAULT 0"
            )
            conn.execute("UPDATE results SET size = LENGTH(value)")
        if "last_used" not in columns:
            conn.execute(
                "ALTER TABLE results ADD COLUMN last_used REAL NOT NULL DEFAULT 0"
            )
            conn.execute("UPDATE results SET last_used = ?", (_now(),))
        conn.commit()
        return conn

    @staticmethod
    def _split(key: Hashable) -> tuple[str, bytes]:
        fingerprint = _key_fingerprint(key) or ""
        return fingerprint, pickle.dumps(key, protocol=_PICKLE_PROTOCOL)

    # ------------------------------------------------------------------
    def get(self, key: Hashable):
        with self._lock:
            if self._conn is None:
                _DISK_MISSES.inc()
                return None
            fingerprint, ckey = self._split(key)
            now = _now()
            try:
                row = self._conn.execute(
                    "SELECT value, last_used FROM results"
                    " WHERE fingerprint = ? AND ckey = ?",
                    (fingerprint, ckey),
                ).fetchone()
            except sqlite3.Error:
                _DISK_MISSES.inc()
                return None
            if row is None:
                _DISK_MISSES.inc()
                return None
            if (
                self.ttl_seconds is not None
                and now - row[1] > self.ttl_seconds
            ):
                # Stale by TTL: lazily expired on the access that saw it.
                self._delete(fingerprint, ckey)
                self.expirations += 1
                _DISK_EXPIRATIONS.inc()
                _DISK_MISSES.inc()
                return None
            try:
                value = pickle.loads(row[0])
            # repro-lint: disable=swallowed-exception -- an undecodable row is a miss by this tier's contract, and unpickling a truncated or version-skewed blob can raise any exception type
            except Exception:
                # Undecodable value (truncated write, version skew): drop it.
                self._delete(fingerprint, ckey)
                _DISK_MISSES.inc()
                return None
            _DISK_HITS.inc()
            if self.max_bytes is not None or self.ttl_seconds is not None:
                # The recency stamp only matters when something reads it
                # (LRU eviction / TTL); an unbounded cache keeps its hit
                # path a pure SELECT instead of a write transaction.
                try:
                    self._conn.execute(
                        "UPDATE results SET last_used = ?"
                        " WHERE fingerprint = ? AND ckey = ?",
                        (now, fingerprint, ckey),
                    )
                    self._conn.commit()
                except sqlite3.Error:
                    pass
            return value

    def put(self, key: Hashable, value) -> None:
        with self._lock:
            if self._conn is None:
                return
            fingerprint, ckey = self._split(key)
            blob = pickle.dumps(value, protocol=_PICKLE_PROTOCOL)
            try:
                self._conn.execute(
                    "INSERT OR REPLACE INTO results"
                    " (fingerprint, ckey, value, size, last_used)"
                    " VALUES (?, ?, ?, ?, ?)",
                    (fingerprint, ckey, blob, len(blob), _now()),
                )
                self._conn.commit()
                self._enforce_bounds(keep=(fingerprint, ckey))
            except sqlite3.Error:
                pass

    def _enforce_bounds(self, keep: tuple[str, bytes]) -> None:
        """Expire TTL-stale rows, then evict LRU rows over ``max_bytes``.

        The just-written row is exempt from the size sweep (an oversized
        single entry is stored rather than thrashed), matching the
        lease budget's in-flight exemption.
        """
        now = _now()
        if self.ttl_seconds is not None:
            cursor = self._conn.execute(
                "DELETE FROM results WHERE last_used < ?"
                " AND NOT (fingerprint = ? AND ckey = ?)",
                (now - self.ttl_seconds, *keep),
            )
            self.expirations += max(cursor.rowcount, 0)
            _DISK_EXPIRATIONS.inc(max(cursor.rowcount, 0))
        if self.max_bytes is None:
            self._conn.commit()
            return
        while True:
            total = self._conn.execute(
                "SELECT COALESCE(SUM(size), 0) FROM results"
            ).fetchone()[0]
            if total <= self.max_bytes:
                break
            victim = self._conn.execute(
                "SELECT fingerprint, ckey FROM results"
                " WHERE NOT (fingerprint = ? AND ckey = ?)"
                " ORDER BY last_used ASC LIMIT 1",
                keep,
            ).fetchone()
            if victim is None:
                break
            self._conn.execute(
                "DELETE FROM results WHERE fingerprint = ? AND ckey = ?",
                tuple(victim),
            )
            self.evictions += 1
            _DISK_EVICTIONS.inc()
        self._conn.commit()

    @coordinator_only
    def purge_fingerprint(self, fingerprint: str) -> int:
        with self._lock:
            if self._conn is None:
                return 0
            try:
                cursor = self._conn.execute(
                    "DELETE FROM results WHERE fingerprint = ?", (fingerprint,)
                )
                self._conn.commit()
                return cursor.rowcount
            except sqlite3.Error:
                return 0

    @coordinator_only
    def take_fingerprint(self, fingerprint: str) -> list[tuple]:
        """Remove and return ``(key, value)`` for every row under
        ``fingerprint`` (see :meth:`ResultCache.take_fingerprint`).

        Keys are recovered from the pickled ``ckey`` blobs.  Rows whose
        key or value no longer unpickles (truncated write, version skew)
        are deleted but not returned — for those the take degrades to a
        purge, matching this tier's corruption-tolerance contract.
        """
        with self._lock:
            if self._conn is None:
                return []
            try:
                rows = self._conn.execute(
                    "SELECT ckey, value FROM results WHERE fingerprint = ?",
                    (fingerprint,),
                ).fetchall()
                self._conn.execute(
                    "DELETE FROM results WHERE fingerprint = ?", (fingerprint,)
                )
                self._conn.commit()
            except sqlite3.Error:
                return []
            taken = []
            for ckey_blob, value_blob in rows:
                try:
                    taken.append((pickle.loads(ckey_blob), pickle.loads(value_blob)))
                # repro-lint: disable=swallowed-exception -- an undecodable row is purged by this tier's contract, and unpickling a truncated or version-skewed blob can raise any exception type
                except Exception:
                    continue
            return taken

    def _delete(self, fingerprint: str, ckey: bytes) -> None:
        try:
            self._conn.execute(
                "DELETE FROM results WHERE fingerprint = ? AND ckey = ?",
                (fingerprint, ckey),
            )
            self._conn.commit()
        except sqlite3.Error:
            pass

    def total_bytes(self) -> int:
        """Summed pickled-value bytes currently stored."""
        with self._lock:
            if self._conn is None:
                return 0
            try:
                return int(
                    self._conn.execute(
                        "SELECT COALESCE(SUM(size), 0) FROM results"
                    ).fetchone()[0]
                )
            except sqlite3.Error:
                return 0

    def clear(self) -> None:
        with self._lock:
            if self._conn is None:
                return
            try:
                self._conn.execute("DELETE FROM results")
                self._conn.commit()
            except sqlite3.Error:
                pass

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                try:
                    self._conn.close()
                except sqlite3.Error:
                    pass
                self._conn = None

    def __len__(self) -> int:
        """Rows ``get`` would still serve — TTL-expired rows are not
        counted, even before the lazy expiry physically deletes them,
        so ``len(cache)`` and the hit rate agree."""
        with self._lock:
            if self._conn is None:
                return 0
            try:
                if self.ttl_seconds is not None:
                    return int(
                        self._conn.execute(
                            "SELECT COUNT(*) FROM results WHERE last_used >= ?",
                            (_now() - self.ttl_seconds,),
                        ).fetchone()[0]
                    )
                return int(
                    self._conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]
                )
            except sqlite3.Error:
                return 0

    def __contains__(self, key: Hashable) -> bool:
        """Whether ``get(key)`` would hit.  A row past its TTL reports
        ``False`` (``get`` would refuse to serve it); the row itself is
        left for the lazy/bulk expiry paths — introspection must not
        mutate."""
        with self._lock:
            if self._conn is None:
                return False
            fingerprint, ckey = self._split(key)
            try:
                row = self._conn.execute(
                    "SELECT last_used FROM results"
                    " WHERE fingerprint = ? AND ckey = ?",
                    (fingerprint, ckey),
                ).fetchone()
            except sqlite3.Error:
                return False
            if row is None:
                return False
            if (
                self.ttl_seconds is not None
                and _now() - row[0] > self.ttl_seconds
            ):
                return False
            return True


class TieredResultCache:
    """Memory LRU in front of a disk tier.

    ``get`` consults memory first and promotes disk hits; ``put``,
    ``purge_fingerprint`` and ``clear`` apply to both tiers, so delta
    invalidation reaches persisted entries too.
    """

    def __init__(self, memory: ResultCache, disk: DiskResultCache) -> None:
        self.memory = memory
        self.disk = disk

    def get(self, key: Hashable):
        value = self.memory.get(key)
        if value is not None:
            return value
        value = self.disk.get(key)
        if value is not None:
            self.memory.put(key, value)
        return value

    def put(self, key: Hashable, value) -> None:
        self.memory.put(key, value)
        self.disk.put(key, value)

    @coordinator_only
    def purge_fingerprint(self, fingerprint: str) -> int:
        purged = self.memory.purge_fingerprint(fingerprint)
        return purged + self.disk.purge_fingerprint(fingerprint)

    @coordinator_only
    def take_fingerprint(self, fingerprint: str) -> list[tuple]:
        """Remove and return the fingerprint's entries from both tiers.

        Deduplicated by key — a memory hit is also persisted on disk,
        and counting it twice would double both the migration work and
        the migrated/purged stats.  The memory tier's copy wins (it is
        never older than the disk row it was promoted from).
        """
        taken = dict(self.disk.take_fingerprint(fingerprint))
        taken.update(self.memory.take_fingerprint(fingerprint))
        return list(taken.items())

    def clear(self) -> None:
        self.memory.clear()
        self.disk.clear()

    def close(self) -> None:
        self.memory.close()
        self.disk.close()

    def __contains__(self, key: Hashable) -> bool:
        return key in self.memory or key in self.disk
