"""Sweep-engine benchmarks: serial / parallel / warm-cache / warm-miss.

The Figure 4 sweep (9 kernels x 4 ISAs x 4 widths = 144 points) is the
reproduction's dominant cost; the engine attacks it twice over — process
fan-out for cold runs, and the content-addressed result cache for exact
repeats.  The warm-cache benchmark asserts the headline property of the
result cache (zero simulations); the warm-miss benchmark asserts that a
configuration the cache has not seen costs one build per distinct trace and
no more than an uncached run.
"""

from __future__ import annotations

import time

import pytest

from repro.experiments.figure4 import figure4_sweep
from repro.sweep import SweepEngine
from repro.timing.config import MachineConfig
from repro.workloads.generators import WorkloadSpec

_KERNELS = ("comp", "h2v2", "addblock")
_WAYS = (1, 4)
_SPEC = WorkloadSpec()


def _sweep():
    return figure4_sweep(kernels=_KERNELS, ways=_WAYS, spec=_SPEC)


def test_sweep_serial(benchmark):
    def run():
        return SweepEngine(jobs=1).run(_sweep())

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(results) == len(_KERNELS) * len(_WAYS) * 4


def test_sweep_parallel_jobs2(benchmark):
    """Cold parallel run; must produce results identical to the serial path
    (equality is asserted exhaustively in tests/sweep/test_engine.py — here
    we just spot-check while measuring)."""
    def run():
        engine = SweepEngine(jobs=2)
        return engine.run(_sweep()), engine

    (results, engine) = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(results) == len(_KERNELS) * len(_WAYS) * 4
    benchmark.extra_info["fallback"] = engine.last_fallback_reason or "none"
    serial = SweepEngine(jobs=1).run(_sweep())
    assert [r.sim.cycles for r in results] == [r.sim.cycles for r in serial]


def test_sweep_warm_cache(benchmark, tmp_path):
    """Warm-cache re-run: zero simulations, every point served from disk."""
    cold = SweepEngine(jobs=1, cache_dir=str(tmp_path))
    cold_results = cold.run(_sweep())
    assert cold.last_simulated == len(cold_results)

    def rerun():
        engine = SweepEngine(jobs=1, cache_dir=str(tmp_path))
        return engine.run(_sweep()), engine

    (warm_results, engine) = benchmark.pedantic(rerun, rounds=1, iterations=1)
    assert engine.last_simulated == 0, "warm cache must do zero simulations"
    assert engine.last_cached == len(warm_results)
    assert [r.sim for r in warm_results] == [r.sim for r in cold_results]


def test_sweep_lowering_amortized(benchmark):
    """Trace batching amortises lowering: one lowering (and one build) per
    *distinct trace* per sweep, however many machine configurations share
    it — the per-point lowering cost is ~zero."""
    from repro.kernels.base import add_build_hook, remove_build_hook
    from repro.timing.lowered import add_lowering_hook, remove_lowering_hook

    sweep = figure4_sweep(kernels=_KERNELS, ways=(1, 2, 4, 8), spec=_SPEC)
    distinct_traces = len(_KERNELS) * 4          # kernels x ISAs
    points = distinct_traces * 4                 # x ways

    lowerings, builds = [], []
    lower_hook = add_lowering_hook(lambda name, isa, n: lowerings.append(name))
    build_hook = add_build_hook(lambda kernel, isa: builds.append(kernel))
    try:
        def run():
            lowerings.clear()
            builds.clear()
            return SweepEngine(jobs=1).run(sweep)

        results = benchmark.pedantic(run, rounds=1, iterations=1)
    finally:
        remove_lowering_hook(lower_hook)
        remove_build_hook(build_hook)

    assert len(results) == points
    assert len(builds) == distinct_traces, "one front-end build per trace"
    assert len(lowerings) == distinct_traces, "one lowering per trace"
    benchmark.extra_info["points"] = points
    benchmark.extra_info["distinct_traces"] = distinct_traces
    benchmark.extra_info["lowerings"] = len(lowerings)
    benchmark.extra_info["configs_per_lowering"] = points // distinct_traces


def test_sweep_result_store_comparison(benchmark, tmp_path):
    """SQLite vs JSON result store on the warm re-run both must ace.

    Measures the warm (all-hits) re-run against each ``--result-store``
    backend over the same populated root and records both wall times — the
    store choice moves per-hit I/O cost, never the numbers.  Functional
    equality and zero-simulation are asserted for both.
    """
    sweep = _sweep()
    stores = {}
    for kind in ("json", "sqlite"):
        root = str(tmp_path / kind)
        cold = SweepEngine(jobs=1, cache_dir=root, result_store=kind)
        stores[kind] = cold.run(sweep)
        assert cold.last_simulated == len(stores[kind])
    assert [r.sim for r in stores["json"]] == [r.sim for r in stores["sqlite"]]

    def warm(kind):
        engine = SweepEngine(jobs=1, cache_dir=str(tmp_path / kind),
                             result_store=kind)
        return engine.run(sweep), engine

    start = time.perf_counter()
    json_results, json_engine = warm("json")
    json_elapsed = time.perf_counter() - start
    assert json_engine.last_simulated == 0
    assert [r.sim for r in json_results] == [r.sim for r in stores["json"]]

    (sqlite_results, sqlite_engine) = benchmark.pedantic(
        warm, args=("sqlite",), rounds=1, iterations=1)
    assert sqlite_engine.last_simulated == 0
    assert sqlite_engine.last_cached == len(sqlite_results)
    assert [r.sim for r in sqlite_results] == [r.sim for r in stores["json"]]

    sqlite_elapsed = benchmark.stats.stats.mean
    benchmark.extra_info["points"] = len(sqlite_results)
    benchmark.extra_info["json_warm_s"] = round(json_elapsed, 4)
    benchmark.extra_info["sqlite_warm_s"] = round(sqlite_elapsed, 4)
    benchmark.extra_info["sqlite_vs_json"] = round(
        json_elapsed / sqlite_elapsed, 2)


def test_sweep_journal_replay(benchmark, tmp_path):
    """Journal replay: resuming a completed sweep re-simulates nothing and
    costs one linear read of the journal file."""
    journal = str(tmp_path / "sweep.jsonl")
    first = SweepEngine(jobs=1, journal=journal).run(_sweep())

    def resume():
        engine = SweepEngine(jobs=1, journal=journal)
        return engine.run(_sweep()), engine

    (results, engine) = benchmark.pedantic(resume, rounds=1, iterations=1)
    assert engine.last_simulated == 0, "replay must do zero simulations"
    assert engine.last_journaled == len(results)
    assert [r.sim for r in results] == [r.sim for r in first]
    benchmark.extra_info["points_replayed"] = len(results)


def test_sweep_supervision_overhead(benchmark):
    """Supervised execution must be ~free when nothing goes wrong.

    The deadline bookkeeping (per-task deadlines, the timed wait loop) is
    active whenever ``task_timeout`` is set; on a healthy sweep it must
    neither fire nor cost real time relative to the unsupervised pool run.
    """
    sweep = _sweep()

    start = time.perf_counter()
    plain = SweepEngine(jobs=2).run(sweep)
    plain_elapsed = time.perf_counter() - start

    def supervised():
        engine = SweepEngine(jobs=2, task_timeout=300.0)
        return engine.run(sweep), engine

    (results, engine) = benchmark.pedantic(supervised, rounds=1, iterations=1)
    assert engine.last_timeouts == 0
    assert engine.last_pool_restarts == 0
    assert not engine.last_failures
    assert [r.sim.cycles for r in results] == [r.sim.cycles for r in plain]

    supervised_elapsed = benchmark.stats.stats.mean
    benchmark.extra_info["plain_pool_s"] = round(plain_elapsed, 4)
    benchmark.extra_info["supervised_s"] = round(supervised_elapsed, 4)
    assert supervised_elapsed < plain_elapsed * 3.0 + 1.0, (
        "deadline bookkeeping should be noise on a healthy sweep "
        f"({supervised_elapsed:.3f}s vs {plain_elapsed:.3f}s)")


def test_sweep_warm_miss(benchmark, tmp_path):
    """Warm-*miss* re-run: a new machine configuration over a warm cache dir.

    Every point misses the result cache (the configuration is new), so each
    distinct trace is built once and simulated, and the rows equal an
    uncached run's.  The cache dir must not make the miss drastically
    slower than no cache at all.
    """
    populate = figure4_sweep(kernels=_KERNELS, ways=_WAYS, spec=_SPEC)
    SweepEngine(jobs=1, cache_dir=str(tmp_path)).run(populate)

    miss_sweep = figure4_sweep(kernels=_KERNELS, ways=(2,), spec=_SPEC)

    start = time.perf_counter()
    uncached_results = SweepEngine(jobs=1).run(miss_sweep)
    uncached_elapsed = time.perf_counter() - start

    def warm_miss():
        engine = SweepEngine(jobs=1, cache_dir=str(tmp_path))
        return engine.run(miss_sweep), engine

    (results, engine) = benchmark.pedantic(warm_miss, rounds=1, iterations=1)
    assert engine.last_cached == 0, "a new config must miss the result cache"
    assert engine.last_simulated == len(results)
    assert engine.last_trace_builds == len(_KERNELS) * 4, \
        "a warm miss builds each distinct trace exactly once"
    assert [r.sim for r in results] == [r.sim for r in uncached_results]

    warm_elapsed = benchmark.stats.stats.mean
    benchmark.extra_info["uncached_s"] = round(uncached_elapsed, 4)
    benchmark.extra_info["ratio_vs_uncached"] = round(
        warm_elapsed / uncached_elapsed, 2)
    assert warm_elapsed < uncached_elapsed * 4.0, (
        "a warm miss should not be drastically slower than an uncached run "
        f"({warm_elapsed:.3f}s vs {uncached_elapsed:.3f}s)")
