"""Tests of streaming results and worker-pool fallback behaviour.

``iter_results`` / ``on_result`` must deliver exactly the points of the
sweep — whatever the completion order — and reassembling by ``index`` must
reproduce the barrier ``run()`` output.  Pool-infrastructure failures at any
stage (pool creation, submit time, mid-run) degrade to the serial path with
``last_fallback_reason`` recorded, never to a failed sweep.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.sweep import SweepEngine, SweepPoint, SweepSpec
from repro.timing.config import MachineConfig
from repro.workloads.generators import WorkloadSpec

_SPEC = WorkloadSpec(scale=1, seed=7)


def small_sweep() -> SweepSpec:
    return SweepSpec.make(
        kernels=("comp", "addblock"),
        configs=[MachineConfig.for_way(1), MachineConfig.for_way(4)],
        spec=_SPEC,
    )


class TestIterResults:
    def test_yields_every_point_with_indices(self):
        sweep = small_sweep()
        results = list(SweepEngine().iter_results(sweep))
        assert sorted(r.index for r in results) == list(range(len(sweep)))

    def test_sorted_stream_equals_barrier_run(self):
        sweep = small_sweep()
        streamed = sorted(SweepEngine().iter_results(sweep),
                          key=lambda r: r.index)
        barrier = SweepEngine().run(sweep)
        assert [r.sim for r in streamed] == [r.sim for r in barrier]
        assert [r.point for r in streamed] == [r.point for r in barrier]

    def test_ordering_independence_under_pool(self):
        """However the pool schedules points, the streamed set (keyed by
        index) is identical to the serial barrier result."""
        sweep = small_sweep()
        engine = SweepEngine(jobs=2)
        by_index = {r.index: r for r in engine.iter_results(sweep)}
        baseline = SweepEngine().run(sweep)
        assert len(by_index) == len(baseline)
        for i, expected in enumerate(baseline):
            assert by_index[i].sim == expected.sim
            assert by_index[i].stats == expected.stats

    def test_results_stream_incrementally(self):
        """Each result is available before the next simulation starts (the
        generator is lazy, not a barrier in disguise)."""
        engine = SweepEngine()
        iterator = engine.iter_results(small_sweep())
        first = next(iterator)
        assert engine.last_simulated == 1
        assert first.sim.cycles > 0
        rest = list(iterator)
        assert engine.last_simulated == 1 + len(rest)

    def test_early_close_is_clean(self):
        """Abandoning the stream mid-sweep (serial or pooled) must not
        raise, and queued pool work is cancelled rather than completed
        behind the caller's back."""
        for jobs in (1, 2):
            engine = SweepEngine(jobs=jobs)
            iterator = engine.iter_results(small_sweep())
            first = next(iterator)
            assert first.sim.cycles > 0
            iterator.close()  # GeneratorExit inside the engine
            # The engine remains usable for a fresh, complete run.
            results = engine.run(small_sweep())
            assert len(results) == len(small_sweep())

    def test_cache_hits_stream_first(self, tmp_path):
        cfg = MachineConfig.for_way(4)
        a = SweepPoint("comp", "mom", cfg, _SPEC)
        b = SweepPoint("comp", "mmx", cfg, _SPEC)
        SweepEngine(cache_dir=str(tmp_path)).run([a])
        engine = SweepEngine(cache_dir=str(tmp_path))
        results = list(engine.iter_results([b, a]))
        # a (index 1) is cached and must arrive before b (index 0) simulates.
        assert [r.index for r in results] == [1, 0]
        assert results[0].cached and not results[1].cached


class TestOnResult:
    def test_callback_sees_every_result_once(self):
        seen = []
        results = SweepEngine().run(small_sweep(), on_result=seen.append)
        assert len(seen) == len(results)
        assert sorted(r.index for r in seen) == list(range(len(results)))

    def test_callback_includes_cached_results(self, tmp_path):
        sweep = small_sweep()
        SweepEngine(cache_dir=str(tmp_path)).run(sweep)
        seen = []
        SweepEngine(cache_dir=str(tmp_path)).run(sweep, on_result=seen.append)
        assert len(seen) == len(sweep)
        assert all(r.cached for r in seen)

    def test_callback_under_pool(self):
        seen = []
        results = SweepEngine(jobs=2).run(small_sweep(),
                                          on_result=seen.append)
        assert sorted(r.index for r in seen) == [r.index for r in results]


class _SubmitExplodes:
    """Fake ProcessPoolExecutor whose submit raises a chosen exception."""

    exception: Exception = pickle.PicklingError("cannot pickle this point")

    def __init__(self, *args, **kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, *args, **kwargs):
        raise type(self).exception

    def shutdown(self, *args, **kwargs):
        pass


class TestPoolFallback:
    """The satellite bugfix: PicklingError/OSError at submit time must fall
    back to the serial path (recording why), exactly like BrokenProcessPool
    mid-run always did."""

    @pytest.mark.parametrize("exc,name", [
        (pickle.PicklingError("unpicklable"), "PicklingError"),
        (OSError("out of file descriptors"), "OSError"),
    ])
    def test_submit_time_failure_falls_back(self, monkeypatch, exc, name):
        import repro.sweep.engine as engine_mod

        class Explodes(_SubmitExplodes):
            exception = exc

        monkeypatch.setattr(engine_mod, "ProcessPoolExecutor", Explodes)
        engine = SweepEngine(jobs=4)
        results = engine.run(small_sweep())
        assert engine.last_fallback_reason is not None
        assert name in engine.last_fallback_reason
        assert "submit" in engine.last_fallback_reason
        baseline = SweepEngine().run(small_sweep())
        assert [r.sim for r in results] == [r.sim for r in baseline]

    def test_pool_creation_failure_falls_back(self, monkeypatch):
        import repro.sweep.engine as engine_mod

        def broken_pool(*args, **kwargs):
            raise OSError("no fork for you")

        monkeypatch.setattr(engine_mod, "ProcessPoolExecutor", broken_pool)
        engine = SweepEngine(jobs=4)
        results = engine.run(small_sweep())
        assert engine.last_fallback_reason is not None
        baseline = SweepEngine().run(small_sweep())
        assert [r.sim for r in results] == [r.sim for r in baseline]

    def test_fallback_still_streams_every_point(self, monkeypatch):
        import repro.sweep.engine as engine_mod

        monkeypatch.setattr(engine_mod, "ProcessPoolExecutor",
                            _SubmitExplodes)
        engine = SweepEngine(jobs=4)
        seen = []
        results = list(engine.iter_results(small_sweep(),
                                           on_result=seen.append))
        assert len(seen) == len(results) == len(small_sweep())


class TestStreamJsonlCLI:
    def test_stream_jsonl_written_incrementally(self, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "points.jsonl"
        argv = ["sweep", "--kernels", "comp", "--isas", "scalar", "mom",
                "--scale", "1", "--stream-jsonl", str(out_path)]
        assert main(argv) == 0
        capsys.readouterr()
        lines = [json.loads(line)
                 for line in out_path.read_text().splitlines()]
        assert len(lines) == 2
        assert {line["isa"] for line in lines} == {"scalar", "mom"}
        for line in lines:
            assert line["cycles"] > 0
            assert line["kernel"] == "comp"
            assert set(line) >= {"index", "config", "mem_latency",
                                 "instructions", "operations", "ipc",
                                 "cached", "journaled"}
            assert "trace_cached" not in line

    def test_stream_jsonl_appends_across_runs(self, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "points.jsonl"
        argv = ["sweep", "--kernels", "comp", "--isas", "mom",
                "--scale", "1", "--stream-jsonl", str(out_path)]
        assert main(argv) == 0
        assert main(argv) == 0
        capsys.readouterr()
        assert len(out_path.read_text().splitlines()) == 2

    def test_figure4_stream_jsonl(self, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "fig4.jsonl"
        assert main(["figure4", "--kernels", "comp", "--ways", "1", "4",
                     "--scale", "1", "--stream-jsonl", str(out_path)]) == 0
        capsys.readouterr()
        assert len(out_path.read_text().splitlines()) == 2 * 4
