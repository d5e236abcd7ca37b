"""Tests of the SQLite result store and its parity with the JSON store.

The acceptance bar: both ``--result-store`` backends must pass the same
hit/miss/version-bump behaviour, and the management layer (stats / GC /
clear) must see SQLite rows exactly as it sees result files.
"""

from __future__ import annotations

import os
import sqlite3

import pytest

from repro.cli import main
from repro.sweep import (
    SQLiteResultStore,
    SweepEngine,
    SweepSpec,
    cache_stats,
    clear_cache,
    gc_cache,
    make_result_store,
)
from repro.sweep.cache import RESULT_STORES, ResultCache
from repro.sweep.manage import iter_cache_entries
from repro.sweep.sqlite_store import (
    RESULTS_DB,
    db_path,
    delete_keys,
    iter_rows,
    remove_store,
)
from repro.timing.config import MachineConfig
from repro.workloads.generators import WorkloadSpec

_SPEC = WorkloadSpec(scale=1, seed=7)


def _sweep(kernels=("comp",), ways=(1, 2)) -> SweepSpec:
    return SweepSpec.make(kernels=list(kernels),
                          configs=[MachineConfig.for_way(w) for w in ways],
                          spec=_SPEC)


def _populate(cache_dir: str, **engine_kwargs):
    sweep = _sweep()
    engine = SweepEngine(cache_dir=cache_dir, result_store="sqlite",
                         **engine_kwargs)
    return engine.run(sweep), sweep


class TestFactory:
    def test_kinds(self, tmp_path):
        assert isinstance(make_result_store("json", str(tmp_path)),
                          ResultCache)
        assert isinstance(make_result_store("sqlite", str(tmp_path)),
                          SQLiteResultStore)

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown result store"):
            make_result_store("mongodb", str(tmp_path))

    def test_registry_matches_engine_validation(self, tmp_path):
        assert set(RESULT_STORES) == {"json", "sqlite"}
        with pytest.raises(ValueError):
            SweepEngine(cache_dir=str(tmp_path), result_store="mongodb")


class TestStoreBehaviour:
    def test_put_get_roundtrip(self, tmp_path):
        results, sweep = _populate(str(tmp_path))
        store = SQLiteResultStore(str(tmp_path))
        for r in results:
            sim, stats = store.get(r.point)
            assert sim == r.sim and stats == r.stats
        assert store.hits == len(results)

    def test_missing_db_is_a_miss_and_creates_nothing(self, tmp_path):
        store = SQLiteResultStore(str(tmp_path))
        point = next(iter(_sweep().points()))
        assert store.get(point) is None
        assert store.misses == 1
        assert not os.path.exists(store.path)

    def test_version_bump_is_a_clean_miss(self, tmp_path):
        _populate(str(tmp_path))
        store = SQLiteResultStore(str(tmp_path), version="other-model")
        assert store.get(next(iter(_sweep().points())).resolved()) is None

    def test_keys_match_the_json_store(self, tmp_path):
        """One point, one content hash, regardless of backend."""
        point = next(iter(_sweep().points()))
        assert (SQLiteResultStore(str(tmp_path)).key_for(point)
                == ResultCache(str(tmp_path)).key_for(point))

    def test_corrupt_payload_is_a_miss_and_the_row_is_culled(self, tmp_path):
        results, _ = _populate(str(tmp_path))
        store = SQLiteResultStore(str(tmp_path))
        key = store.key_for(results[0].point)
        with sqlite3.connect(db_path(str(tmp_path))) as conn:
            conn.execute("UPDATE results SET payload = 'not json' "
                         "WHERE key = ?", (key,))
        assert store.get(results[0].point) is None
        assert store.misses == 1
        assert key not in {k for k, _, _ in iter_rows(str(tmp_path))}

    def test_newer_schema_is_refused_not_guessed(self, tmp_path):
        results, sweep = _populate(str(tmp_path))
        with sqlite3.connect(db_path(str(tmp_path))) as conn:
            conn.execute("PRAGMA user_version = 999")
        store = SQLiteResultStore(str(tmp_path))
        # Reads degrade to misses; writes refuse loudly.
        assert store.get(results[0].point) is None
        with pytest.raises(RuntimeError, match="schema"):
            store.put(results[0].point, results[0].sim, results[0].stats)
        assert list(iter_rows(str(tmp_path))) == []

    def test_reads_touch_access_time(self, tmp_path):
        results, _ = _populate(str(tmp_path))
        store = SQLiteResultStore(str(tmp_path))
        key = store.key_for(results[0].point)
        with sqlite3.connect(db_path(str(tmp_path))) as conn:
            conn.execute("UPDATE results SET atime = 1.0")
        assert store.get(results[0].point) is not None
        atimes = {k: atime for k, _, atime in iter_rows(str(tmp_path))}
        assert atimes[key] > 1.0
        assert all(atime == 1.0 for k, atime in atimes.items() if k != key)

    def test_delete_keys_and_remove_store(self, tmp_path):
        results, _ = _populate(str(tmp_path))
        keys = [k for k, _, _ in iter_rows(str(tmp_path))]
        assert delete_keys(str(tmp_path), keys[:2]) == 2
        assert len(list(iter_rows(str(tmp_path)))) == len(keys) - 2
        remove_store(str(tmp_path))
        assert not os.path.exists(db_path(str(tmp_path)))


class TestEngineParity:
    """The same engine-visible caching semantics on either backend."""

    @pytest.mark.parametrize("store", RESULT_STORES)
    def test_warm_rerun_simulates_nothing(self, tmp_path, store):
        sweep = _sweep()
        SweepEngine(cache_dir=str(tmp_path), result_store=store).run(sweep)
        engine = SweepEngine(cache_dir=str(tmp_path), result_store=store)
        engine.run(sweep)
        assert engine.last_cached == len(sweep)
        assert engine.last_simulated == 0

    @pytest.mark.parametrize("store", RESULT_STORES)
    def test_version_bump_resimulates(self, tmp_path, store):
        sweep = _sweep(ways=(1,))
        SweepEngine(cache_dir=str(tmp_path), result_store=store).run(sweep)
        engine = SweepEngine(cache_dir=str(tmp_path), result_store=store,
                             version="bumped")
        engine.run(sweep)
        assert engine.last_simulated == len(sweep)

    @pytest.mark.parametrize("store", RESULT_STORES)
    def test_identical_results_across_backends(self, tmp_path, store):
        sweep = _sweep(ways=(1,))
        cold = SweepEngine().run(sweep)
        SweepEngine(cache_dir=str(tmp_path), result_store=store).run(sweep)
        warm = SweepEngine(cache_dir=str(tmp_path), result_store=store).run(sweep)
        assert [r.sim for r in warm] == [r.sim for r in cold]

    def test_stores_interoperate_on_one_root(self, tmp_path):
        """JSON and SQLite entries coexist; each backend reads its own and
        the management layer sees both."""
        sweep = _sweep()
        SweepEngine(cache_dir=str(tmp_path), result_store="json").run(sweep)
        SweepEngine(cache_dir=str(tmp_path), result_store="sqlite").run(sweep)
        stats = cache_stats(str(tmp_path))
        assert stats.total_entries == 2 * len(sweep)
        assert stats.sqlite_entries == len(sweep)


class TestManagement:
    def test_stats_counts_sqlite_rows(self, tmp_path):
        results, sweep = _populate(str(tmp_path))
        stats = cache_stats(str(tmp_path))
        assert stats.total_entries == len(sweep)
        assert stats.sqlite_entries == len(sweep)
        assert stats.total_bytes > 0

    def test_gc_size_bound_evicts_rows(self, tmp_path):
        _populate(str(tmp_path))
        report = gc_cache(str(tmp_path), max_bytes=0)
        assert report.removed > 0
        assert list(iter_rows(str(tmp_path))) == []
        assert cache_stats(str(tmp_path)).total_entries == 0

    def test_gc_age_bound_evicts_stale_rows(self, tmp_path):
        import time

        _populate(str(tmp_path))
        now = time.time()
        rows = list(iter_rows(str(tmp_path)))
        # Age half the rows far into the past.
        old = [k for k, _, _ in rows[: len(rows) // 2]]
        with sqlite3.connect(db_path(str(tmp_path))) as conn:
            conn.executemany("UPDATE results SET atime = ? WHERE key = ?",
                             [(now - 10 * 86400, k) for k in old])
        report = gc_cache(str(tmp_path), max_age_seconds=86400, now=now)
        assert report.removed == len(old)
        assert {k for k, _, _ in iter_rows(str(tmp_path))} == (
            {k for k, _, _ in rows} - set(old))

    def test_gc_lru_protects_recently_read_rows(self, tmp_path):
        results, _ = _populate(str(tmp_path))
        store = SQLiteResultStore(str(tmp_path))
        with sqlite3.connect(db_path(str(tmp_path))) as conn:
            conn.execute("UPDATE results SET atime = 1.0")
        assert store.get(results[0].point) is not None  # touch one row
        store.close()
        hot = store.key_for(results[0].point)
        sizes = {k: size for k, size, _ in iter_rows(str(tmp_path))}
        gc_cache(str(tmp_path), max_bytes=sizes[hot] + 1)
        assert {k for k, _, _ in iter_rows(str(tmp_path))} == {hot}

    def test_clear_drops_the_database_file(self, tmp_path):
        _, sweep = _populate(str(tmp_path))
        total = cache_stats(str(tmp_path)).total_entries
        report = clear_cache(str(tmp_path))
        assert report.removed == total  # every row
        assert not os.path.exists(db_path(str(tmp_path)))
        assert cache_stats(str(tmp_path)).total_entries == 0

    def test_engine_recovers_after_gc(self, tmp_path):
        before, sweep = _populate(str(tmp_path))
        gc_cache(str(tmp_path), max_bytes=0)
        engine = SweepEngine(cache_dir=str(tmp_path), result_store="sqlite")
        after = engine.run(sweep)
        assert engine.last_simulated == len(after)
        assert [r.sim for r in after] == [r.sim for r in before]

    def test_sqlite_entries_report_the_db_as_their_path(self, tmp_path):
        _populate(str(tmp_path))
        rows = [e for e in iter_cache_entries(str(tmp_path))
                if e.key is not None]
        assert rows
        assert all(e.path == db_path(str(tmp_path)) for e in rows)


class TestCLI:
    def test_sweep_result_store_flag(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = ["sweep", "--kernels", "comp", "--ways", "1", "--scale", "1",
                "--cache-dir", cache_dir, "--result-store", "sqlite"]
        assert main(argv) == 0
        capsys.readouterr()
        assert os.path.exists(os.path.join(cache_dir, RESULTS_DB))
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 point(s) simulated, 4 from cache" in out

    def test_stats_command_reports_sqlite_rows(self, tmp_path, capsys):
        _populate(str(tmp_path))
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "row(s) in results.db" in out

    def test_stats_json_includes_sqlite_count(self, tmp_path, capsys):
        import json

        _populate(str(tmp_path))
        assert main(["cache", "stats", "--cache-dir", str(tmp_path),
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["sqlite_entries"] == data["total_entries"]
