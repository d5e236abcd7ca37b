"""Single-trace simulation wall time: the lowered timing backend.

The interval core's simulation loop is the simulator's hot path — every
sweep point pays it once per dynamic instruction.  These benchmarks time
:func:`~repro.timing.core.simulate_trace` alone (trace pre-built and
pre-lowered, fresh core per round) on the longest traces in the suite, plus
the headline comparison: the lowered backend vs the object-level loop.

Reference points on the development machine (Python 3.11, 1-2 vCPUs),
measured on the ``motion1/scalar`` trace (~4050 instructions, 4-way config):

* seed commit (object loop, no fast path):  ~29 ms / trace (~138 k instr/s)
* PR 1 object-loop fast path:               ~17 ms / trace (~240 k instr/s)
* lowered backend (PR 3):                    ~5 ms / trace (~800 k instr/s)
* vector batch backend (PR 4), 384 configs: ~1.2 ms / trace / config
  (~3.5 M batched instr/s — ~4.5x the lowered loop per config)
* lowered backend with per-cycle list scoreboards, top-capacity issue
  queues and FIFO rename pools: ~4.2 ms / trace (~950 k instr/s, ~4x the
  object loop in the same process)
* vector batch backend against that loop, 768-config ablation group:
  ~1.1 s vs ~5.0 s (~4.5x per config on a 2-vCPU box; the ratio falls as
  the interpreter gets faster, and the gate stays >= 3x)

The lowering pass (:mod:`repro.timing.lowered`) compiles the trace once into
flat arrays — int shape ids, dense register ids, pre-resolved rename-pool
indices — and ``run_lowered()`` executes the interval model over them with
per-cycle list scoreboards, issue queues held as heaps of their latest
issue times and rename pools as append-only release lists.  The vector backend
(:mod:`repro.timing.vector`) goes one step further for sweep groups: one
NumPy pass over the rows advances every configuration of a batch at once.
The golden regression tests (tests/test_golden_regression.py) and the
equivalence suites (tests/timing/test_lowered.py, tests/timing/
test_vector.py) pin all backends' cycle counts to the object loop's
exactly.
"""

from __future__ import annotations

import time

import pytest

from repro.experiments.runner import run_kernel
from repro.timing.config import MachineConfig
from repro.timing.core import OutOfOrderCore, simulate_trace

#: (kernel, isa) pairs with the heaviest traces per ISA style.
_CASES = [
    ("motion1", "scalar"),
    ("motion1", "mmx"),
    ("idct", "mdmx"),
    ("motion1", "mom"),
]


@pytest.mark.parametrize("kernel_name,isa", _CASES,
                         ids=[f"{k}-{i}" for k, i in _CASES])
def test_simulate_trace_wall_time(benchmark, kernel_name, isa):
    config = MachineConfig.for_way(4)
    trace = run_kernel(kernel_name, isa, config=config).build.trace
    trace.lower()  # pre-lower: the sweep engine amortises this per trace

    result = benchmark(simulate_trace, trace, config)

    assert result.instructions == len(trace)
    benchmark.extra_info["instructions"] = len(trace)
    benchmark.extra_info["instr_per_sec"] = round(
        len(trace) / benchmark.stats.stats.mean)


def test_lowered_speedup_vs_object_loop(benchmark):
    """The acceptance benchmark: ``run_lowered()`` must be >= 2x the PR 1
    object-loop fast path on the reference trace, with an identical result.

    Both paths are timed in the same process on the same trace, so the
    ratio is robust to absolute machine speed (locally it is ~4x).
    """
    config = MachineConfig.for_way(4)
    trace = run_kernel("motion1", "scalar", config=config).build.trace
    lowered = trace.lower()

    expected = None
    object_best = float("inf")
    for _ in range(5):
        core = OutOfOrderCore(config)
        start = time.perf_counter()
        expected = core.run(trace)
        object_best = min(object_best, time.perf_counter() - start)

    result = benchmark(lambda: OutOfOrderCore(config).run_lowered(lowered))

    assert result == expected, "lowered backend drifted from the object loop"
    lowered_best = benchmark.stats.stats.min
    speedup = object_best / lowered_best
    benchmark.extra_info["instructions"] = len(trace)
    benchmark.extra_info["object_loop_ms"] = round(object_best * 1e3, 3)
    benchmark.extra_info["lowered_ms"] = round(lowered_best * 1e3, 3)
    benchmark.extra_info["speedup_vs_object_loop"] = round(speedup, 2)
    benchmark.extra_info["instr_per_sec"] = round(len(trace) / lowered_best)
    assert speedup >= 2.0, (
        f"lowered backend is only {speedup:.2f}x the object loop "
        f"({object_best * 1e3:.2f} ms vs {lowered_best * 1e3:.2f} ms)")


def test_simulate_trace_throughput_floor(benchmark):
    """A deliberately loose regression floor: the lowered backend must stay
    well above the PR 1 fast path's ~240 k instr/s on the reference trace
    (locally it runs ~500-950 k instr/s; the slack absorbs loaded CI
    runners)."""
    config = MachineConfig.for_way(4)
    trace = run_kernel("motion1", "scalar", config=config).build.trace
    trace.lower()
    benchmark(simulate_trace, trace, config)
    rate = len(trace) / benchmark.stats.stats.mean
    benchmark.extra_info["instr_per_sec"] = round(rate)
    assert rate > 200_000, f"timing core regressed to {rate:.0f} instr/s"


def _vector_benchmark_grid(count):
    """A figure-4-style structural ablation grid: issue widths x short
    memory latencies x per-resource variants, ``count`` configs total."""
    variants = [{}, {"rob_size": 32}, {"rob_size": 128},
                {"phys_int_regs": 48}, {"num_int_alu": 2},
                {"phys_media_regs": 40}, {"num_int_mul": 2},
                {"mem_port_width": 1}]
    grid = []
    while len(grid) < count:
        for updates in variants:
            for way in (2, 4, 8):
                for latency in (1, 2, 4):
                    grid.append(MachineConfig.for_way(
                        way, mem_latency=latency, **updates))
                    if len(grid) == count:
                        return grid
    return grid


def test_vector_batch_speedup_vs_looped_lowered(benchmark):
    """The PR 4 acceptance benchmark: the vector batch backend over a
    large config group must be >= 3x faster *per configuration* than
    looping ``run_lowered()``, with bit-identical results.

    Both paths run interleaved in the same process on the same lowered
    trace (min of two rounds each), so the ratio is robust to absolute
    machine speed and to load drift during the test.  The group is a
    768-config structural ablation — the sweep shape the batch backend
    exists for; locally the ratio is ~4-4.5x, and it *shrinks* with the
    group (the vector path loses outright below ``VECTOR_MIN_BATCH``
    configs, which is why ``auto`` keeps small groups on the lowered
    interpreter).
    """
    from repro.timing.vector import run_lowered_batch

    trace = run_kernel("motion1", "scalar").build.trace
    lowered = trace.lower()
    configs = _vector_benchmark_grid(768)

    loop_best = vector_best = float("inf")
    expected = results = None
    for _ in range(2):
        start = time.perf_counter()
        expected = [OutOfOrderCore(c).run_lowered(lowered) for c in configs]
        loop_best = min(loop_best, time.perf_counter() - start)
        start = time.perf_counter()
        results = run_lowered_batch(lowered, configs, force_vector=True)
        vector_best = min(vector_best, time.perf_counter() - start)

    assert results == expected, "vector backend drifted from run_lowered"
    stats = benchmark.pedantic(
        lambda: run_lowered_batch(lowered, configs, force_vector=True),
        rounds=1)
    del stats
    vector_best = min(vector_best, benchmark.stats.stats.min)
    speedup = loop_best / vector_best
    batched_instr = len(trace) * len(configs)
    benchmark.extra_info["batch_configs"] = len(configs)
    benchmark.extra_info["instructions"] = len(trace)
    benchmark.extra_info["looped_lowered_ms"] = round(loop_best * 1e3, 1)
    benchmark.extra_info["vector_ms"] = round(vector_best * 1e3, 1)
    benchmark.extra_info["batch_speedup_per_config"] = round(speedup, 2)
    benchmark.extra_info["batched_instr_per_sec"] = round(
        batched_instr / vector_best)
    assert speedup >= 3.0, (
        f"vector batch backend is only {speedup:.2f}x the per-config "
        f"lowered loop over {len(configs)} configs "
        f"({loop_best * 1e3:.0f} ms vs {vector_best * 1e3:.0f} ms)")
