"""Lowered-backend equivalence: ``run_lowered()`` == the object loop.

The lowered backend (repro.timing.lowered + ``OutOfOrderCore.run_lowered``)
must be *bit-identical* to the object-level ``run()`` — same cycles, same
stall breakdown, same per-instruction timeline — for every trace and every
machine configuration.  These tests pin that across all kernels x ISAs x a
configuration grid, on adversarial hand-written traces, and on randomly
generated ones; plus the lowering memo, the single-use core guard, and
the batch dispatch (``simulate_batch``) over both backends.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.opclasses import OpClass, RegFile
from repro.kernels.base import ISA_VARIANTS
from repro.kernels.registry import kernel_names
from repro.timing.config import MachineConfig
from repro.timing.core import OutOfOrderCore, simulate_trace
from repro.timing.dispatch import BACKENDS, simulate_batch
from repro.timing.lowered import lower_trace
from repro.trace.container import Trace
from repro.trace.instruction import DynInstr, RegRef
from repro.workloads.generators import WorkloadSpec

#: The configuration grid every equivalence check runs under: issue widths,
#: memory latencies, and deliberately tight structural resources (small ROB,
#: single media FU, scarce rename registers) to exercise every stall path.
#: The later entries target the invariants the lowered interpreter's state
#: relies on: a ROB smaller than the fetch width, commit and fetch widths
#: that differ, zero-capacity (unconstrained) queues and rename pools,
#: one-slot queues and pools, and a 64-cycle memory whose long tails make
#: the per-cycle scoreboards grow.
CONFIG_GRID = (
    MachineConfig.for_way(1),
    MachineConfig.for_way(4),
    MachineConfig.for_way(4, mem_latency=50),
    MachineConfig.for_way(8, mem_latency=12),
    MachineConfig.for_way(4).with_updates(
        rob_size=8, num_media_fu=1, phys_media_regs=34, media_lanes=4),
    MachineConfig.for_way(4, mem_latency=12).with_updates(
        rob_size=2, commit_width=1),
    MachineConfig.for_way(2).with_updates(commit_width=8, rob_size=5),
    MachineConfig.for_way(4).with_updates(
        int_queue_size=0, mem_queue_size=0, media_queue_size=0,
        phys_int_regs=32, phys_media_regs=32, phys_matrix_regs=16,
        phys_acc_regs=4),
    MachineConfig.for_way(2, mem_latency=12).with_updates(
        int_queue_size=1, mem_queue_size=1, media_queue_size=1,
        phys_int_regs=33, phys_media_regs=33, phys_matrix_regs=17,
        phys_acc_regs=5),
    MachineConfig.for_way(1, mem_latency=64),
)


@lru_cache(maxsize=None)
def _kernel_trace(kernel: str, isa: str) -> Trace:
    from repro.experiments.runner import build_kernel_variant

    return build_kernel_variant(kernel, isa, spec=WorkloadSpec(scale=1)).trace


def _run_both(trace: Trace, config: MachineConfig):
    obj_core = OutOfOrderCore(config)
    obj = obj_core.run(trace, record_timeline=True)
    low_core = OutOfOrderCore(config)
    low = low_core.run_lowered(lower_trace(trace), record_timeline=True)
    return (obj, obj_core.timeline), (low, low_core.timeline)


def _assert_equivalent(trace: Trace, config: MachineConfig, label=""):
    (obj, obj_timeline), (low, low_timeline) = _run_both(trace, config)
    assert low == obj, f"{label}: SimResult drifted on {config.name}"
    assert low.stall_breakdown == obj.stall_breakdown, label
    assert low_timeline == obj_timeline, (
        f"{label}: per-instruction timeline drifted on {config.name}")


# ----------------------------------------------------------------------
# Real kernel traces: all kernels x ISAs x the configuration grid.

@pytest.mark.parametrize("kernel", kernel_names())
@pytest.mark.parametrize("isa", ISA_VARIANTS)
def test_lowered_equals_object_loop_on_kernels(kernel, isa):
    trace = _kernel_trace(kernel, isa)
    for config in CONFIG_GRID:
        _assert_equivalent(trace, config, label=f"{kernel}/{isa}")


# ----------------------------------------------------------------------
# Hand-written adversarial traces: the special paths the kernels may not
# cover in every combination.

def instr(opcode, opclass, srcs=(), dsts=(), ops=1, vlx=1, vly=1,
          is_vector=False, non_pipelined=False):
    return DynInstr(opcode=opcode, opclass=opclass, isa="test",
                    srcs=tuple(srcs), dsts=tuple(dsts), ops=ops, vlx=vlx,
                    vly=vly, is_vector=is_vector, non_pipelined=non_pipelined)


def _adversarial_traces():
    acc = RegRef(RegFile.ACC, 0)
    med = [RegRef(RegFile.MEDIA, i) for i in range(4)]
    mat = [RegRef(RegFile.MATRIX, i) for i in range(4)]
    vl = RegRef(RegFile.VL, 0)
    ints = [RegRef(RegFile.INT, i) for i in range(4)]

    mdmx_chain = Trace("mdmx_chain", "test")
    for _ in range(24):
        mdmx_chain.append(instr("acc", OpClass.MEDIA_ACC,
                                srcs=(med[0], med[1], acc), dsts=(acc,),
                                ops=4, vlx=4, vly=1, is_vector=True))

    mom_reduce = Trace("mom_reduce", "test")
    mom_reduce.append(instr("setvl", OpClass.IALU, dsts=(vl,)))
    for i in range(6):
        mom_reduce.append(instr("macc", OpClass.MEDIA_ACC,
                                srcs=(mat[i % 2], mat[(i + 1) % 2], acc, vl),
                                dsts=(acc,), ops=64, vlx=4, vly=16,
                                is_vector=True))

    transpose = Trace("transpose", "test")
    for i in range(4):
        transpose.append(instr("mtrans", OpClass.MATRIX_MISC,
                               srcs=(mat[i % 2],), dsts=(mat[2 + i % 2],),
                               ops=64, vlx=8, vly=8, is_vector=True,
                               non_pipelined=True))

    mem_mix = Trace("mem_mix", "test")
    for i in range(16):
        mem_mix.append(instr("ldm", OpClass.MEDIA_LOAD, srcs=(ints[0],),
                             dsts=(mat[i % 4],), ops=128, vlx=8, vly=16,
                             is_vector=True))
        mem_mix.append(instr("st", OpClass.STORE, srcs=(ints[1], ints[2])))
        mem_mix.append(instr("mul", OpClass.IMUL, srcs=(ints[2],),
                             dsts=(ints[3],)))
        mem_mix.append(instr("br", OpClass.BRANCH, srcs=(ints[3],)))

    multi_dst = Trace("multi_dst", "test")
    for i in range(8):
        # Two destinations in different register files on one instruction:
        # both rename pools constrain, both scoreboard entries update.
        multi_dst.append(instr("wide", OpClass.MEDIA_MISC,
                               srcs=(med[0],), dsts=(med[1], acc),
                               ops=8, vlx=8, is_vector=True))

    same_pool = Trace("same_pool_pair", "test")
    for i in range(12):
        # Two destinations in one rename pool (idct/mom's transpose pair
        # does this): under a one-slot pool the first frees the only slot,
        # the second finds the pool non-full, and both push — the
        # reference pool runs one over capacity, and so must the lowered.
        same_pool.append(instr("tpair", OpClass.MATRIX_MISC,
                               srcs=(mat[i % 2],), dsts=(mat[2], mat[3]),
                               ops=64, vlx=8, vly=8, is_vector=True,
                               non_pipelined=True))
        same_pool.append(instr("ldm", OpClass.MEDIA_LOAD, srcs=(ints[0],),
                               dsts=(mat[i % 2],), ops=64, vlx=8, vly=8,
                               is_vector=True))
        same_pool.append(instr("pair", OpClass.IALU, srcs=(ints[i % 4],),
                               dsts=(ints[(i + 1) % 4], ints[(i + 2) % 4])))

    return [mdmx_chain, mom_reduce, transpose, mem_mix, multi_dst,
            same_pool, Trace("empty", "test")]


@pytest.mark.parametrize("trace", _adversarial_traces(),
                         ids=lambda t: t.name)
def test_lowered_equals_object_loop_on_adversarial_traces(trace):
    for config in CONFIG_GRID:
        _assert_equivalent(trace, config, label=trace.name)


# ----------------------------------------------------------------------
# Property test: random well-formed traces, every config in the grid.

_OPCLASSES = [OpClass.IALU, OpClass.IMUL, OpClass.LOAD, OpClass.STORE,
              OpClass.BRANCH, OpClass.MEDIA_ALU, OpClass.MEDIA_MUL,
              OpClass.MEDIA_MISC, OpClass.MEDIA_ACC, OpClass.MEDIA_LOAD,
              OpClass.MEDIA_STORE, OpClass.MATRIX_MISC]


@st.composite
def random_trace(draw, max_len=50):
    """Random traces covering every opclass, register file and shape the
    lowering distinguishes (vly, non_pipelined, accumulator destinations,
    a second destination in the same register file)."""
    length = draw(st.integers(min_value=0, max_value=max_len))
    trace = Trace(name="random", isa="test")
    for _ in range(length):
        opclass = draw(st.sampled_from(_OPCLASSES))
        if opclass.is_media:
            vlx = draw(st.sampled_from([2, 4, 8]))
            vly = draw(st.sampled_from([1, 1, 4, 16]))
            file = (RegFile.MATRIX if vly > 1 else RegFile.MEDIA)
            is_vector = True
        else:
            file = RegFile.INT
            vlx = vly = 1
            is_vector = False
        srcs = [RegRef(file, draw(st.integers(0, 7)))
                for _ in range(draw(st.integers(0, 2)))]
        if opclass is OpClass.MEDIA_ACC:
            srcs.append(RegRef(RegFile.ACC, draw(st.integers(0, 1))))
        dsts = ()
        if opclass is OpClass.MEDIA_ACC:
            dsts = (RegRef(RegFile.ACC, draw(st.integers(0, 1))),)
        elif opclass is not OpClass.STORE and opclass is not OpClass.BRANCH \
                and opclass is not OpClass.MEDIA_STORE:
            dsts = (RegRef(file, draw(st.integers(0, 7))),)
            if draw(st.integers(0, 7)) == 0:
                dsts += (RegRef(file, draw(st.integers(0, 7))),)
        non_pipelined = opclass is OpClass.MATRIX_MISC
        trace.append(DynInstr(opcode=opclass.value, opclass=opclass,
                              isa="test", srcs=tuple(srcs), dsts=dsts,
                              ops=vlx * vly, vlx=vlx, vly=vly,
                              is_vector=is_vector,
                              non_pipelined=non_pipelined))
    return trace


@st.composite
def random_config(draw) -> MachineConfig:
    """A random machine configuration at the edges of the lowered
    interpreter's invariants: ROB smaller than the fetch width, commit
    width unrelated to fetch width, queues and rename pools of zero
    (unconstrained) or a single slot, and memory latencies up to 64."""
    small = st.integers(0, 3)
    config = MachineConfig.for_way(
        draw(st.sampled_from([1, 2, 4, 8])),
        mem_latency=draw(st.integers(1, 64)))
    return config.with_updates(
        fetch_width=draw(st.integers(1, 8)),
        commit_width=draw(st.integers(1, 8)),
        rob_size=draw(st.integers(1, 24)),
        int_queue_size=draw(small),
        mem_queue_size=draw(small),
        media_queue_size=draw(small),
        num_media_fu=draw(st.integers(1, 3)),
        num_mem_ports=draw(st.integers(1, 2)),
        media_lanes=draw(st.sampled_from([1, 2, 4])),
        mem_port_width=draw(st.sampled_from([1, 2, 4])),
        phys_int_regs=32 + draw(small),
        phys_media_regs=32 + draw(small),
        phys_matrix_regs=16 + draw(small),
        phys_acc_regs=4 + draw(small),
    )


@settings(max_examples=40, deadline=None)
@given(trace=random_trace(), config=random_config())
def test_lowered_equals_object_loop_on_random_traces(trace, config):
    for grid_config in CONFIG_GRID + (config,):
        _assert_equivalent(trace, grid_config, label="random")


# ----------------------------------------------------------------------
# Trace.lower() memoisation and the single-use core guard.

class TestLowerMemoisation:
    def test_lower_is_memoised(self):
        trace = _kernel_trace("comp", "scalar")
        assert trace.lower() is trace.lower()

    def test_mutation_invalidates_the_memo(self):
        trace = Trace("t", "test")
        trace.append(instr("a", OpClass.IALU, dsts=(RegRef(RegFile.INT, 0),)))
        first = trace.lower()
        trace.append(instr("b", OpClass.IALU, dsts=(RegRef(RegFile.INT, 1),)))
        second = trace.lower()
        assert second is not first
        assert second.num_instructions == 2


class TestSingleUseCore:
    def test_run_twice_raises(self):
        trace = _kernel_trace("comp", "scalar")
        core = OutOfOrderCore(MachineConfig.for_way(4))
        core.run(trace)
        with pytest.raises(RuntimeError, match="single-use"):
            core.run(trace)

    def test_mixed_reuse_raises(self):
        trace = _kernel_trace("comp", "scalar")
        core = OutOfOrderCore(MachineConfig.for_way(4))
        core.run_lowered(trace.lower())
        with pytest.raises(RuntimeError, match="single-use"):
            core.run(trace)

    def test_simulate_trace_uses_fresh_cores(self):
        trace = _kernel_trace("comp", "scalar")
        cfg = MachineConfig.for_way(4)
        assert simulate_trace(trace, cfg) == simulate_trace(trace, cfg)


# ----------------------------------------------------------------------
# simulate_batch: one call per trace-sharing group, either backend, the
# same results as looping the object reference core per configuration.

#: Batches the dispatch must handle: none, one, duplicates, the grid.
_BATCHES = {
    "empty": (),
    "one": (MachineConfig.for_way(4),),
    "duplicates": (MachineConfig.for_way(2, mem_latency=12),) * 5,
    "grid": CONFIG_GRID,
}


def _object_runs(trace: Trace, configs):
    """Per-config object-loop runs: (results, timelines)."""
    results, timelines = [], []
    for config in configs:
        core = OutOfOrderCore(config)
        results.append(core.run(trace, record_timeline=True))
        timelines.append(core.timeline)
    return results, timelines


def _assert_batch_matches_object_runs(trace: Trace, configs, backend: str):
    got = simulate_batch(trace, configs, backend=backend,
                         record_timeline=True)
    want, timelines = _object_runs(trace, configs)
    assert len(got) == len(configs)
    for result, expected, timeline, config in zip(got, want, timelines,
                                                  configs):
        assert result == expected, f"{backend}: drifted on {config.name}"
        assert result.stall_breakdown == expected.stall_breakdown
        assert result.timeline == timeline, (
            f"{backend}: timeline drifted on {config.name}")


class TestSimulateBatch:
    def test_backends_tuple_is_the_contract(self):
        assert BACKENDS == ("lowered", "object")

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("batch", sorted(_BATCHES))
    @pytest.mark.parametrize("kernel_isa", [("comp", "mmx"), None],
                             ids=["comp-mmx", "empty-trace"])
    def test_equals_per_config_object_runs(self, kernel_isa, batch,
                                           backend):
        trace = (_kernel_trace(*kernel_isa) if kernel_isa
                 else Trace("empty", "test"))
        _assert_batch_matches_object_runs(trace, _BATCHES[batch], backend)

    @pytest.mark.parametrize("kernel", kernel_names())
    @pytest.mark.parametrize("isa", ISA_VARIANTS)
    def test_backends_agree_on_kernels(self, kernel, isa):
        """The paper's axes: issue width and memory latency."""
        configs = (MachineConfig.for_way(1), MachineConfig.for_way(4),
                   MachineConfig.for_way(4, mem_latency=50))
        trace = _kernel_trace(kernel, isa)
        lowered = simulate_batch(trace, configs, backend="lowered",
                                 record_timeline=True)
        reference = simulate_batch(trace, configs, backend="object",
                                   record_timeline=True)
        assert lowered == reference
        assert ([r.timeline for r in lowered]
                == [r.timeline for r in reference])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_invalid_resources_raise(self, backend):
        trace = _kernel_trace("comp", "scalar")
        bad = MachineConfig.for_way(4).with_updates(num_int_alu=0)
        with pytest.raises(ValueError):
            simulate_batch(trace, [MachineConfig.for_way(4), bad],
                           backend=backend)

    @pytest.mark.parametrize("backend", ["auto", "vector", "jit"])
    def test_unknown_backend_raises(self, backend):
        with pytest.raises(ValueError, match="unknown timing backend"):
            simulate_batch(_kernel_trace("comp", "scalar"),
                           [MachineConfig.for_way(4)], backend=backend)

    def test_object_backend_requires_a_trace(self):
        lowered = lower_trace(_kernel_trace("comp", "scalar"))
        with pytest.raises(TypeError, match="object backend"):
            simulate_batch(lowered, [MachineConfig.for_way(4)],
                           backend="object")

    def test_lowered_trace_accepted_by_lowered(self):
        trace = _kernel_trace("comp", "scalar")
        configs = [MachineConfig.for_way(2)] * 2
        assert (simulate_batch(lower_trace(trace), configs)
                == simulate_batch(trace, configs, backend="object"))
