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
* lowered backend with per-cycle list scoreboards, top-capacity issue
  queues and FIFO rename pools: ~4.2 ms / trace (~950 k instr/s, ~4x the
  object loop in the same process)

The lowering pass (:mod:`repro.timing.lowered`) compiles the trace once into
flat arrays — int shape ids, dense register ids, pre-resolved rename-pool
indices — and ``run_lowered()`` executes the interval model over them with
per-cycle list scoreboards, issue queues held as heaps of their latest
issue times and rename pools as append-only release lists.  The golden
regression tests (tests/test_golden_regression.py) and the equivalence
suite (tests/timing/test_lowered.py) pin the lowered backend's cycle
counts to the object loop's exactly.
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

