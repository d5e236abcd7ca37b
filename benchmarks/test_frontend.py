"""Cold-build wall time: the column-emitting functional front end.

With the timing side ~10x faster (PRs 1/3/4), a *cold* sweep —  first run,
CI, any new workload spec — is dominated by the functional front end.  This
file pins the PR 5 rewrite:

* ``test_trace_construction_speedup_vs_object_path`` is the acceptance
  benchmark: replaying the real kernel x ISA grid's emission streams
  through the trace-construction machinery (emit -> lowered arrays), the
  column path must be **>= 3x** the object path.  Both paths run in the
  same process on the same streams, so the ratio is robust to absolute
  machine speed (locally ~5-6x).  The replay isolates exactly what the
  column recorder changed — the object path pays one DynInstr plus the
  ``lower_trace`` pass per instruction, the column path interns once at
  emission.
* ``test_cold_build_pipeline_speedup`` measures the end-to-end number a
  cold sweep actually feels (functional execution included):
  ``run_variant`` + lower over the grid, column vs object mode.
  With PR 7's lane-plane semantics + block emission the kernels' Python
  semantics no longer dominate — the in-process ratio is ~6x locally and
  asserted at >= 3.0x.
* ``test_cold_build_per_kernel_breakdown`` records, per kernel, where the
  cold column build spends its time (functional build / lower), so a
  regression names its phase.
* ``test_memory_array_helpers_vectorized`` pins the NumPy ``Memory``
  rewrite: bulk array reads must run >= 10 M lanes/s (the per-element
  loop managed ~1 M).

Reference points on the development machine (Python 3.11, 1 vCPU), whole
kernel x ISA grid (~48 k dynamic instructions):

* seed object path (build + lower + serialize): ~590 ms
* PR 5 column path (same work):                 ~230 ms end-to-end,
  construction machinery alone ~38 ms vs ~210 ms (~5.5x)
* PR 7 lane planes + block emission:            ~58 ms end-to-end (~3.9x
  over PR 5, ~820 k instr/s)

These reference figures also timed a trace-payload serialization step
that the pipeline no longer runs.
"""

from __future__ import annotations

import time

import numpy as np

from repro.common.datatypes import S16
from repro.frontend.machine import Memory
from repro.kernels.base import ISA_VARIANTS
from repro.kernels.registry import KERNELS
from repro.trace.container import Trace

#: Every LoweredTrace field the timing backends read.
_LOWERED_FIELDS = ("name", "isa", "num_instructions", "total_ops",
                   "num_regs", "shapes", "shape_ids", "srcs", "dsts",
                   "opcodes", "opcode_ids")

#: One emission stream per kernel x ISA point of the reference grid.
_GRID = [(kernel, isa) for kernel in KERNELS for isa in ISA_VARIANTS]

#: PR 5 cold-build numbers on the development machine (the ladder this
#: PR's block emission is measured against; also recorded in extra_info
#: so BENCH_frontend.json carries its own baseline).
_PR5_COLD_MS = 227.9
_PR5_INSTR_PER_SEC = 209_484


def _capture_streams():
    """The grid's real emission streams, as replayable call tuples."""
    streams = []
    for kernel_name, isa in _GRID:
        trace = KERNELS[kernel_name].run_variant(isa).trace
        calls = [(i.opcode, i.opclass, i.srcs, i.dsts, i.ops, i.vlx, i.vly,
                  i.is_vector, i.non_pipelined, i.isa) for i in trace]
        streams.append((trace.name, trace.isa, calls))
    return streams


def _construct(streams, columns: bool):
    """Replay every stream through one emission mode, to lowered traces.

    This is the cold front-end pipeline minus the kernels' functional
    semantics: emit every instruction, then lower (what a cold sweep hands
    to the timing backends).
    """
    traces = []
    for name, isa, calls in streams:
        trace = Trace(name=name, isa=isa, columns=columns)
        emit = trace.emit
        for call in calls:
            emit(*call)
        trace.lower()
        traces.append(trace)
    return traces


def _signature(trace):
    """Everything observable about a built trace: instructions in order
    and every lowered column."""
    lowered = trace.lower()
    return (trace.name, trace.isa, list(trace),
            [getattr(lowered, field) for field in _LOWERED_FIELDS])


def _best_of(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_trace_construction_speedup_vs_object_path(benchmark):
    """The acceptance benchmark: column-built trace construction must be
    >= 3x the object path on the reference grid's real streams, with
    identical instructions and lowerings."""
    streams = _capture_streams()
    instructions = sum(len(calls) for _, _, calls in streams)

    column = [_signature(t) for t in _construct(streams, columns=True)]
    objectp = [_signature(t) for t in _construct(streams, columns=False)]
    assert column == objectp, "column path drifted from the object path"

    object_best = _best_of(lambda: _construct(streams, columns=False), 5)
    column_best = _best_of(lambda: _construct(streams, columns=True), 5)
    benchmark.pedantic(_construct, args=(streams, True),
                       rounds=3, iterations=1)

    speedup = object_best / column_best
    benchmark.extra_info["grid_points"] = len(streams)
    benchmark.extra_info["instructions"] = instructions
    benchmark.extra_info["object_path_ms"] = round(object_best * 1e3, 1)
    benchmark.extra_info["column_path_ms"] = round(column_best * 1e3, 1)
    benchmark.extra_info["construction_speedup"] = round(speedup, 2)
    benchmark.extra_info["column_instr_per_sec"] = round(
        instructions / column_best)
    assert speedup >= 3.0, (
        f"column trace construction only {speedup:.2f}x the object path "
        f"({object_best * 1e3:.1f} ms -> {column_best * 1e3:.1f} ms)")


def test_cold_build_pipeline_speedup(benchmark):
    """End-to-end cold build of the grid (functional execution included):
    run_variant + lower, column mode vs object mode."""

    def pipeline(columns: bool) -> int:
        n = 0
        for kernel_name, isa in _GRID:
            result = KERNELS[kernel_name].run_variant(isa, columns=columns)
            result.trace.lower()
            n += len(result.trace)
        return n

    object_best = _best_of(lambda: pipeline(False), 3)
    column_best = _best_of(lambda: pipeline(True), 3)
    instructions = benchmark.pedantic(pipeline, args=(True,),
                                      rounds=1, iterations=1)

    speedup = object_best / column_best
    benchmark.extra_info["instructions"] = instructions
    benchmark.extra_info["object_cold_ms"] = round(object_best * 1e3, 1)
    benchmark.extra_info["column_cold_ms"] = round(column_best * 1e3, 1)
    benchmark.extra_info["cold_build_speedup"] = round(speedup, 2)
    benchmark.extra_info["cold_build_instr_per_sec"] = round(
        instructions / column_best)
    benchmark.extra_info["pr5_cold_ms"] = _PR5_COLD_MS
    benchmark.extra_info["pr5_instr_per_sec"] = _PR5_INSTR_PER_SEC
    benchmark.extra_info["speedup_vs_pr5_baseline"] = round(
        _PR5_COLD_MS / (column_best * 1e3), 2)
    # Before block emission the two modes shared the kernels' per-lane
    # Python semantics and the ratio was capped near 1.7x; with lane-plane
    # semantics plus block emission the column path skips the middle loop
    # iterations entirely and the in-process ratio is ~6x locally.  The
    # 3.0x floor is the acceptance gate for the block-emission rewrite
    # (machine-independent: both modes run in this same process).
    assert speedup >= 3.0, (
        f"cold build pipeline regressed: column mode only {speedup:.2f}x "
        f"the object emission mode")


def test_cold_build_per_kernel_breakdown(benchmark):
    """Per-kernel phase breakdown of the cold column build: functional
    build (kernel semantics + emission), lower.  Recorded into the
    benchmark JSON so a cold-build regression names its phase."""

    def phase_split():
        breakdown = {}
        for kernel_name, isa in _GRID:
            t0 = time.perf_counter()
            result = KERNELS[kernel_name].run_variant(isa, columns=True)
            t1 = time.perf_counter()
            result.trace.lower()
            t2 = time.perf_counter()
            entry = breakdown.setdefault(
                kernel_name,
                {"build_ms": 0.0, "lower_ms": 0.0, "instructions": 0})
            entry["build_ms"] += (t1 - t0) * 1e3
            entry["lower_ms"] += (t2 - t1) * 1e3
            entry["instructions"] += len(result.trace)
        return breakdown

    breakdown = benchmark.pedantic(phase_split, rounds=1, iterations=1)
    total_ms = 0.0
    for kernel_name, entry in breakdown.items():
        for phase in ("build_ms", "lower_ms"):
            entry[phase] = round(entry[phase], 2)
            total_ms += entry[phase]
        benchmark.extra_info[kernel_name] = entry
    benchmark.extra_info["total_ms"] = round(total_ms, 1)
    assert set(breakdown) == set(KERNELS), "every kernel must be measured"
    assert all(e["instructions"] > 0 for e in breakdown.values())


def test_memory_array_helpers_vectorized(benchmark):
    """Bulk memory traffic (workload setup / result extraction) must be a
    vectorised pass, not a per-element Python loop."""
    lanes = 1 << 16
    rng = np.random.default_rng(99)
    data = rng.integers(-(1 << 15), 1 << 15, size=lanes, dtype=np.int64)
    mem = Memory(size=1 << 20)
    addr = mem.alloc_array(data, S16)

    def roundtrip():
        mem.write_array(addr, data, S16)
        return mem.read_array(addr, lanes, S16)

    out = benchmark(roundtrip)
    assert np.array_equal(out, data)
    rate = lanes * 2 / benchmark.stats.stats.mean  # one write + one read
    benchmark.extra_info["lanes"] = lanes
    benchmark.extra_info["lanes_per_sec"] = round(rate)
    assert rate > 10_000_000, (
        f"memory array helpers regressed to {rate:.0f} lanes/s")
