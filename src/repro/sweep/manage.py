"""Management of the on-disk result cache: stats, eviction (GC), clearing.

One cache root holds the engine's result stores —

* JSON result entries at ``<cache_dir>/<key[:2]>/<key>.json``
  (:class:`~repro.sweep.cache.ResultCache`), and
* SQLite result rows in ``<cache_dir>/results.db``
  (:class:`~repro.sweep.sqlite_store.SQLiteResultStore`; present when the
  sweep ran with ``--result-store sqlite``)

— and this module treats them uniformly: every entry is one
:class:`CacheEntry` whose last-use timestamp (file mtime, or the SQLite
row's access time) doubles as its age.  Both stores are content-addressed,
so eviction is always safe — a removed entry is a future cache miss, never
a correctness problem.  A ``traces/`` directory left under the root by an
older version is no longer read or managed; it can be deleted by hand.

Eviction policy (:func:`gc_cache`):

1. Drop every entry older than ``max_age_seconds`` (when given).
2. If the survivors still exceed ``max_bytes`` (when given), drop
   oldest-first until the total fits.

Both stores touch entries on read, so "oldest" means least recently *used*
(true LRU).

Stale temporary files
---------------------

Every file-based write goes through an atomic tempfile + rename
(:mod:`repro.common.atomicio`); a process killed between the two orphans
one ``*.tmp`` file.  :func:`cache_stats` reports them and :func:`gc_cache`
sweeps any older than a grace period (:data:`TMP_GRACE_SECONDS` — young
ones may belong to a live writer), so crashes leave bounded garbage.

Quarantined corrupt entries
---------------------------

Entries embed a content checksum
(:func:`repro.common.atomicio.stamp_checksum`); a store that reads an
unparseable or checksum-mismatched entry quarantines it as ``*.corrupt``
and treats the key as a miss.  :func:`cache_stats` counts the quarantined
files, and :func:`gc_cache` / :func:`clear_cache` sweep them regardless of
age or bounds — a quarantined file is never live, it exists only for
post-mortem inspection between the miss and the next GC.

The CLI exposes all of this as ``repro cache stats|gc|clear``.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.atomicio import CORRUPT_SUFFIX, TMP_SUFFIX

__all__ = ["CacheEntry", "CacheStats", "GCReport", "TMP_GRACE_SECONDS",
           "iter_cache_entries", "iter_corrupt_files", "iter_tmp_files",
           "cache_stats", "gc_cache", "clear_cache"]

#: Grace period before an orphaned ``*.tmp`` file counts as stale: a file
#: this young may be a live writer's in-flight entry, so GC leaves it.
TMP_GRACE_SECONDS = 3600.0


@dataclass(frozen=True)
class CacheEntry:
    """One cache entry: a JSON result file or a SQLite result row.

    ``key`` is set only for SQLite rows (whose ``path`` is the shared
    database file) — it is what eviction deletes by.
    """

    path: str
    size: int     # bytes (payload size for SQLite rows)
    mtime: float  # POSIX timestamp of the last use
    key: Optional[str] = None  # SQLite row key; None for plain files


@dataclass
class CacheStats:
    """Aggregate usage of one cache root."""

    cache_dir: str
    total_entries: int = 0
    total_bytes: int = 0
    #: Of the entries, how many are rows of ``results.db``.
    sqlite_entries: int = 0
    #: Orphaned ``*.tmp`` files from interrupted atomic writes (all ages).
    tmp_files: int = 0
    tmp_bytes: int = 0
    #: Of those, how many exceed the GC grace period (``repro cache gc``
    #: will sweep exactly these).
    stale_tmp_files: int = 0
    #: Quarantined ``*.corrupt`` entries (failed parse or checksum
    #: mismatch on read); ``gc``/``clear`` sweep them regardless of age.
    corrupt_files: int = 0
    corrupt_bytes: int = 0
    oldest_mtime: Optional[float] = None
    newest_mtime: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-able form of the stats (``repro cache stats --json``).

        Every field, plus nothing else — scripts can rely on these keys
        staying stable.
        """
        return asdict(self)


@dataclass
class GCReport:
    """Outcome of one :func:`gc_cache` pass."""

    removed: int = 0
    kept: int = 0
    bytes_freed: int = 0
    bytes_kept: int = 0
    #: Stale temporary files swept (reported separately from entries — a
    #: tmp file was never a cache entry).
    tmp_removed: int = 0
    tmp_bytes_freed: int = 0
    #: Quarantined corrupt entries swept (also not cache entries — their
    #: keys already read as misses).
    corrupt_removed: int = 0
    corrupt_bytes_freed: int = 0


def _iter_json_results(root: str) -> Iterator[CacheEntry]:
    """Entries of the two-level ``<fan-out>/<key>.json`` store under
    ``root``."""
    try:
        fanouts = sorted(os.listdir(root))
    except OSError:
        return
    for fanout in fanouts:
        # Fan-out directories are the first two hex chars of the key; a
        # leftover traces/ subdir (and anything else) is not one of them.
        if len(fanout) != 2:
            continue
        subdir = os.path.join(root, fanout)
        try:
            names = sorted(os.listdir(subdir))
        except OSError:
            continue
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(subdir, name)
            try:
                st = os.stat(path)
            except OSError:
                continue
            yield CacheEntry(path=path, size=st.st_size, mtime=st.st_mtime)


def _iter_sqlite_results(cache_dir: str) -> Iterator[CacheEntry]:
    """Rows of the root's ``results.db`` as uniform cache entries."""
    from repro.sweep import sqlite_store

    path = sqlite_store.db_path(cache_dir)
    for key, size, atime in sqlite_store.iter_rows(cache_dir):
        yield CacheEntry(path=path, size=size, mtime=atime, key=key)


def iter_cache_entries(cache_dir: str) -> Iterator[CacheEntry]:
    """Yield every result entry under a cache root: JSON files, then
    SQLite rows."""
    yield from _iter_json_results(cache_dir)
    yield from _iter_sqlite_results(cache_dir)


def _iter_suffixed(cache_dir: str, suffix: str,
                   ) -> Iterator[Tuple[str, int, float]]:
    """Yield ``(path, size, mtime)`` of every ``*<suffix>`` file under the
    root."""
    for root, _dirs, files in os.walk(cache_dir):
        for name in files:
            if not name.endswith(suffix):
                continue
            path = os.path.join(root, name)
            try:
                st = os.stat(path)
            except OSError:
                continue
            yield path, st.st_size, st.st_mtime


def iter_tmp_files(cache_dir: str) -> Iterator[Tuple[str, int, float]]:
    """Yield ``(path, size, mtime)`` of every ``*.tmp`` file under the root.

    These are orphans of interrupted atomic writes (every live write
    unlinks its tempfile on failure; only a kill between ``mkstemp`` and
    ``os.replace`` leaves one behind).
    """
    yield from _iter_suffixed(cache_dir, TMP_SUFFIX)


def iter_corrupt_files(cache_dir: str) -> Iterator[Tuple[str, int, float]]:
    """Yield ``(path, size, mtime)`` of every quarantined ``*.corrupt``
    entry under the root (any fan-out)."""
    yield from _iter_suffixed(cache_dir, CORRUPT_SUFFIX)


def cache_stats(cache_dir: str, now: Optional[float] = None) -> CacheStats:
    """Scan a cache root and return its entry/byte counts.

    Orphaned temporary files are counted too (stale = older than
    :data:`TMP_GRACE_SECONDS` relative to ``now``, defaulting to the
    current time) — this is an admin-path scan, not something the sweep
    hot path ever runs.
    """
    import time

    reference = time.time() if now is None else now
    stats = CacheStats(cache_dir=os.fspath(cache_dir))
    for entry in iter_cache_entries(cache_dir):
        stats.total_entries += 1
        stats.total_bytes += entry.size
        if entry.key is not None:
            stats.sqlite_entries += 1
        if stats.oldest_mtime is None or entry.mtime < stats.oldest_mtime:
            stats.oldest_mtime = entry.mtime
        if stats.newest_mtime is None or entry.mtime > stats.newest_mtime:
            stats.newest_mtime = entry.mtime
    for _path, size, mtime in iter_tmp_files(cache_dir):
        stats.tmp_files += 1
        stats.tmp_bytes += size
        if reference - mtime > TMP_GRACE_SECONDS:
            stats.stale_tmp_files += 1
    for _path, size, _mtime in iter_corrupt_files(cache_dir):
        stats.corrupt_files += 1
        stats.corrupt_bytes += size
    return stats


def _remove(entry: CacheEntry, report: GCReport,
            sqlite_doomed: List[str]) -> None:
    if entry.key is not None:
        # SQLite rows are deleted in one batch after the scan; account now
        # so the size arithmetic matches the file path.
        sqlite_doomed.append(entry.key)
        report.removed += 1
        report.bytes_freed += entry.size
        return
    try:
        os.unlink(entry.path)
    except OSError:
        return
    report.removed += 1
    report.bytes_freed += entry.size
    # Prune the fan-out directory when it just emptied (best effort).
    try:
        os.rmdir(os.path.dirname(entry.path))
    except OSError:
        pass


def _sweep_tmp_files(cache_dir: str, report: GCReport, reference: float,
                     grace_seconds: float) -> None:
    """Unlink orphaned tempfiles older than the grace period."""
    for path, size, mtime in list(iter_tmp_files(cache_dir)):
        if reference - mtime <= grace_seconds:
            continue
        try:
            os.unlink(path)
        except OSError:
            continue
        report.tmp_removed += 1
        report.tmp_bytes_freed += size


def _sweep_corrupt_files(cache_dir: str, report: GCReport) -> None:
    """Unlink every quarantined entry (no grace: they are never live)."""
    for path, size, _mtime in list(iter_corrupt_files(cache_dir)):
        try:
            os.unlink(path)
        except OSError:
            continue
        report.corrupt_removed += 1
        report.corrupt_bytes_freed += size


def gc_cache(cache_dir: str, max_bytes: Optional[int] = None,
             max_age_seconds: Optional[float] = None,
             now: Optional[float] = None,
             tmp_grace_seconds: float = TMP_GRACE_SECONDS) -> GCReport:
    """Evict cache entries by age and/or total size; returns a report.

    Both stores touch entries on read, so mtime-ordered eviction is true
    least-recently-used.  Independently of the bounds, every orphaned
    ``*.tmp`` file older than ``tmp_grace_seconds`` is swept (reported via
    :attr:`GCReport.tmp_removed`, not as an evicted entry).

    Parameters
    ----------
    cache_dir:
        Cache root (JSON and SQLite results).
    max_bytes:
        Keep total on-disk size at or under this many bytes, evicting
        least-recently-used entries first.  ``None`` puts no size bound.
    max_age_seconds:
        Evict every entry unused for longer than this.  ``None`` puts no
        age bound.
    now:
        Reference timestamp for age computation (defaults to the current
        time; tests pin it).
    tmp_grace_seconds:
        Minimum age before an orphaned tempfile is swept (younger ones may
        belong to a live writer).

    With neither bound given this sweeps stale tempfiles and quarantined
    ``*.corrupt`` entries, and nothing else.
    """
    import time

    from repro.sweep import sqlite_store

    reference = time.time() if now is None else now
    entries: List[CacheEntry] = sorted(iter_cache_entries(cache_dir),
                                       key=lambda e: e.mtime)
    report = GCReport()
    sqlite_doomed: List[str] = []

    survivors: List[CacheEntry] = []
    for entry in entries:
        if (max_age_seconds is not None
                and reference - entry.mtime > max_age_seconds):
            _remove(entry, report, sqlite_doomed)
        else:
            survivors.append(entry)

    if max_bytes is not None:
        total = sum(e.size for e in survivors)
        evicted = 0
        # survivors are least-recently-used-first: evict from the front
        # until the total fits.
        for entry in survivors:
            if total <= max_bytes:
                break
            _remove(entry, report, sqlite_doomed)
            evicted += 1
            total -= entry.size
        survivors = survivors[evicted:]

    if sqlite_doomed:
        sqlite_store.delete_keys(cache_dir, sqlite_doomed)
    _sweep_tmp_files(cache_dir, report, reference, tmp_grace_seconds)
    _sweep_corrupt_files(cache_dir, report)

    report.kept = len(survivors)
    report.bytes_kept = sum(e.size for e in survivors)
    return report


def clear_cache(cache_dir: str) -> GCReport:
    """Remove every entry under a cache root; returns what was freed.

    Clears both result stores (JSON and SQLite) and every orphaned
    tempfile regardless of age.
    """
    from repro.sweep import sqlite_store

    report = GCReport()
    sqlite_doomed: List[str] = []
    for entry in list(iter_cache_entries(cache_dir)):
        _remove(entry, report, sqlite_doomed)
    if sqlite_doomed:
        sqlite_store.delete_keys(cache_dir, sqlite_doomed, vacuum=False)
    # An emptied database file is pure overhead — drop it (and its WAL
    # sidecars) so "clear" really returns the root to pristine.
    if sqlite_doomed or os.path.exists(sqlite_store.db_path(cache_dir)):
        sqlite_store.remove_store(cache_dir)
    _sweep_tmp_files(cache_dir, report, reference=float("inf"),
                     grace_seconds=0.0)
    _sweep_corrupt_files(cache_dir, report)
    return report
