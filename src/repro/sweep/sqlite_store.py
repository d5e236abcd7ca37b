"""Columnar SQLite backend for the sweep result cache.

The one-JSON-file-per-point layout of :class:`~repro.sweep.cache.ResultCache`
is perfect for inspectability and terrible at paper scale: a million-point
sweep means a million tiny files, and every hit/miss/put pays a filesystem
round trip.  :class:`SQLiteResultStore` keeps the exact same interface and
key anatomy (``key_for`` delegates to :func:`~repro.sweep.cache.point_key`,
so JSON and SQLite entries for one point share one content hash) but stores
all entries as rows of a single ``results.db`` in the cache root:

* **WAL mode** — readers never block the writer, so a sweep can append
  results while ``repro cache stats`` scans the same store;
* **schema versioned** — ``PRAGMA user_version`` stamps the layout; opening
  a database written by a newer schema raises instead of guessing;
* **LRU-ready** — every row carries an access timestamp, touched on read,
  so :func:`repro.sweep.manage.gc_cache` evicts least-recently-*used* rows
  exactly as it evicts least-recently-used files.

The engine selects the backend with ``SweepEngine(result_store="sqlite")``
(CLI: ``--result-store sqlite``); ``repro cache stats|gc|clear`` operate on
both layouts transparently.

Tolerance rules match the JSON store: a missing database, an unreadable
row, or a corrupt payload is a plain miss (the point recomputes), never a
crashed sweep.  Only a *newer* schema version is an error — silently
misreading a future layout would be worse than stopping.

Two sweep clients may share one ``results.db``: every connection sets
``PRAGMA busy_timeout`` (so SQLite itself waits out a writer instead of
failing instantly) and :meth:`SQLiteResultStore.put` additionally retries
``database is locked`` errors a bounded number of times with a growing
sleep — concurrent writers degrade to waiting, not to a crashed sweep.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.sweep.cache import (point_key, sim_to_dict, stats_to_dict,
                               sim_from_dict, stats_from_dict)
from repro.sweep.spec import SweepPoint
from repro.timing.core import MODEL_VERSION
from repro.timing.results import SimResult
from repro.trace.stats import TraceStats

__all__ = ["BUSY_TIMEOUT_MS", "RESULTS_DB", "SCHEMA_VERSION",
           "SQLiteResultStore", "db_path", "delete_keys", "iter_rows",
           "remove_store"]

#: File name of the SQLite result store inside a cache root.
RESULTS_DB = "results.db"

#: Layout version stamped into ``PRAGMA user_version``.
SCHEMA_VERSION = 1

#: How long SQLite itself waits on a locked database before erroring
#: (``PRAGMA busy_timeout``, milliseconds), on every connection.
BUSY_TIMEOUT_MS = 5000

#: Application-level retries of a write that still came back "database is
#: locked" (e.g. another client holding the lock past the busy timeout),
#: and the base sleep between attempts (grows linearly).
LOCK_RETRIES = 5
LOCK_RETRY_DELAY = 0.05


def _is_locked(exc: sqlite3.OperationalError) -> bool:
    """Whether an OperationalError means contention (retryable), not a bug."""
    message = str(exc).lower()
    return "locked" in message or "busy" in message


def db_path(cache_dir: str) -> str:
    """Path of the SQLite result store under ``cache_dir``."""
    return os.path.join(os.fspath(cache_dir), RESULTS_DB)


def _ensure_schema(conn: sqlite3.Connection) -> None:
    """Create the schema on a fresh database; reject a newer one."""
    (version,) = conn.execute("PRAGMA user_version").fetchone()
    if version == 0:
        conn.execute(
            "CREATE TABLE IF NOT EXISTS results ("
            " key TEXT PRIMARY KEY,"
            " model_version TEXT NOT NULL,"
            " kernel TEXT NOT NULL,"
            " isa TEXT NOT NULL,"
            " payload TEXT NOT NULL,"
            " size INTEGER NOT NULL,"
            " atime REAL NOT NULL)")
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION:d}")
        conn.commit()
    elif version != SCHEMA_VERSION:
        raise RuntimeError(
            f"result store {RESULTS_DB} uses schema v{version}, this code "
            f"understands v{SCHEMA_VERSION}; refusing to guess (clear the "
            f"cache or upgrade)")


class SQLiteResultStore:
    """Drop-in SQLite-backed replacement for the JSON result cache.

    Parameters
    ----------
    cache_dir:
        Cache root; the database lives at ``<cache_dir>/results.db`` so
        JSON results, the trace store and the SQLite store can share one
        root (``repro cache`` manages all of them together).
    version:
        Timing-model version folded into every key; defaults to
        :data:`repro.timing.core.MODEL_VERSION`.  Identical key anatomy to
        :class:`~repro.sweep.cache.ResultCache` — a version bump is a clean
        miss, and keys recorded by one store match the other.
    """

    def __init__(self, cache_dir: str, version: Optional[str] = None) -> None:
        self.cache_dir = os.fspath(cache_dir)
        self.version = version if version is not None else MODEL_VERSION
        self.hits = 0
        self.misses = 0
        self._conn: Optional[sqlite3.Connection] = None

    # -- key/path plumbing ------------------------------------------------

    @property
    def path(self) -> str:
        """Path of the backing database file."""
        return db_path(self.cache_dir)

    def key_for(self, point: SweepPoint) -> str:
        """Cache key of a (resolved) point under this store's version."""
        return point_key(point, version=self.version)

    def _connect(self, create: bool) -> Optional[sqlite3.Connection]:
        if self._conn is None:
            if not create and not os.path.exists(self.path):
                return None
            if create:
                os.makedirs(self.cache_dir, exist_ok=True)
            conn = sqlite3.connect(self.path)
            conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS:d}")
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            _ensure_schema(conn)
            self._conn = conn
        return self._conn

    # -- cache operations -------------------------------------------------

    def get(self, point: SweepPoint):
        """Return the cached ``(SimResult, TraceStats)`` pair, or None.

        A missing database, missing row or corrupt payload is a plain miss
        (a bad row is also deleted, so it cannot keep costing a parse).  A
        hit touches the row's access time, keeping GC eviction true LRU.
        """
        try:
            conn = self._connect(create=False)
        except (sqlite3.Error, RuntimeError):
            self.misses += 1
            return None
        if conn is None:
            self.misses += 1
            return None
        key = self.key_for(point)
        try:
            row = conn.execute(
                "SELECT payload FROM results WHERE key = ?",
                (key,)).fetchone()
        except sqlite3.Error:
            self.misses += 1
            return None
        if row is None:
            self.misses += 1
            return None
        try:
            entry = json.loads(row[0])
            result = self.load_result(entry)
        except (ValueError, KeyError, TypeError):
            try:
                conn.execute("DELETE FROM results WHERE key = ?", (key,))
                conn.commit()
            except sqlite3.Error:
                pass
            self.misses += 1
            return None
        try:
            conn.execute("UPDATE results SET atime = ? WHERE key = ?",
                         (time.time(), key))
            conn.commit()
        except sqlite3.Error:
            pass
        self.hits += 1
        return result

    def put(self, point: SweepPoint, sim: SimResult, stats: TraceStats) -> str:
        """Store one result; returns the cache key.

        ``INSERT OR REPLACE`` in WAL mode gives the same guarantee as the
        JSON store's tempfile + rename: concurrent readers see either the
        old row or the new one, never a torn payload.
        """
        point = point.resolved()
        key = self.key_for(point)
        entry = {
            "key": key,
            "model_version": self.version,
            "kernel": point.kernel,
            "isa": point.isa,
            "workload": {"scale": point.spec.scale, "seed": point.spec.seed},
            "sim": sim_to_dict(sim),
            "stats": stats_to_dict(stats),
        }
        payload = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        conn = self._connect(create=True)
        for attempt in range(LOCK_RETRIES + 1):
            try:
                conn.execute(
                    "INSERT OR REPLACE INTO results "
                    "(key, model_version, kernel, isa, payload, size, atime) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (key, self.version, point.kernel, point.isa, payload,
                     len(payload), time.time()))
                conn.commit()
                return key
            except sqlite3.OperationalError as exc:
                if not _is_locked(exc) or attempt == LOCK_RETRIES:
                    raise
                try:
                    conn.rollback()
                except sqlite3.Error:
                    pass
                time.sleep(LOCK_RETRY_DELAY * (attempt + 1))
        return key  # not reached; the loop returns or raises

    def load_result(self, entry: Dict[str, Any]):
        """Deserialise one entry into ``(SimResult, TraceStats)``."""
        return sim_from_dict(entry["sim"]), stats_from_dict(entry["stats"])

    def close(self) -> None:
        """Close the database connection (reopened lazily on next use)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None


# ----------------------------------------------------------------------
# Management plumbing (used by repro.sweep.manage, not the sweep hot path).

def iter_rows(cache_dir: str) -> Iterator[Tuple[str, int, float]]:
    """Yield ``(key, size, atime)`` for every row of a root's result store.

    A missing or unreadable database yields nothing — management commands
    degrade to the file-based view instead of failing.
    """
    path = db_path(cache_dir)
    if not os.path.exists(path):
        return
    try:
        conn = sqlite3.connect(path)
        try:
            conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS:d}")
            _ensure_schema(conn)
            yield from conn.execute(
                "SELECT key, size, atime FROM results ORDER BY key")
        finally:
            conn.close()
    except (sqlite3.Error, RuntimeError):
        return


def delete_keys(cache_dir: str, keys: Sequence[str],
                vacuum: bool = True) -> int:
    """Delete rows by key (one batch); returns how many went away.

    ``vacuum`` reclaims the file space afterwards — eviction exists to
    bound disk usage, so shrinking the file is the point; pass False to
    skip it when many calls batch up.
    """
    if not keys:
        return 0
    path = db_path(cache_dir)
    if not os.path.exists(path):
        return 0
    try:
        conn = sqlite3.connect(path)
        try:
            conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS:d}")
            _ensure_schema(conn)
            before = conn.total_changes
            conn.executemany("DELETE FROM results WHERE key = ?",
                             [(k,) for k in keys])
            conn.commit()
            removed = conn.total_changes - before
            if vacuum and removed:
                conn.execute("VACUUM")
            return removed
        finally:
            conn.close()
    except (sqlite3.Error, RuntimeError):
        return 0


def remove_store(cache_dir: str) -> None:
    """Delete the database files entirely (``repro cache clear``)."""
    for suffix in ("", "-wal", "-shm"):
        try:
            os.unlink(db_path(cache_dir) + suffix)
        except OSError:
            pass
