"""Lowered-backend equivalence: ``run_lowered()`` == the object loop.

The lowered backend (repro.timing.lowered + ``OutOfOrderCore.run_lowered``)
must be *bit-identical* to the object-level ``run()`` — same cycles, same
stall breakdown, same per-instruction timeline — for every trace and every
machine configuration.  These tests pin that across all kernels x ISAs x a
configuration grid, on adversarial hand-written traces, and on randomly
generated ones; plus the lowering memo and the single-use core guard.
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
from repro.timing.lowered import lower_trace
from repro.trace.container import Trace
from repro.trace.instruction import DynInstr, RegRef
from repro.workloads.generators import WorkloadSpec

#: The configuration grid every equivalence check runs under: issue widths,
#: memory latencies, and deliberately tight structural resources (small ROB,
#: single media FU, scarce rename registers) to exercise every stall path.
CONFIG_GRID = (
    MachineConfig.for_way(1),
    MachineConfig.for_way(4),
    MachineConfig.for_way(4, mem_latency=50),
    MachineConfig.for_way(8, mem_latency=12),
    MachineConfig.for_way(4).with_updates(
        rob_size=8, num_media_fu=1, phys_media_regs=34, media_lanes=4),
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

    return [mdmx_chain, mom_reduce, transpose, mem_mix, multi_dst,
            Trace("empty", "test")]


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
    lowering distinguishes (vly, non_pipelined, accumulator destinations)."""
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
        non_pipelined = opclass is OpClass.MATRIX_MISC
        trace.append(DynInstr(opcode=opclass.value, opclass=opclass,
                              isa="test", srcs=tuple(srcs), dsts=dsts,
                              ops=vlx * vly, vlx=vlx, vly=vly,
                              is_vector=is_vector,
                              non_pipelined=non_pipelined))
    return trace


@settings(max_examples=40, deadline=None)
@given(trace=random_trace())
def test_lowered_equals_object_loop_on_random_traces(trace):
    for config in CONFIG_GRID:
        _assert_equivalent(trace, config, label="random")


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


class TestNdarrayColumns:
    """The lowered form's NumPy columns (flat CSR srcs/dsts, shape/opcode
    id columns) must mirror the canonical list rows exactly — the vector
    batch backend consumes the columns, the lowered interpreter the
    lists."""

    def test_columns_mirror_list_rows(self):
        lowered = lower_trace(_kernel_trace("motion1", "mom"))
        n = lowered.num_instructions
        assert lowered.shape_id_col.tolist() == lowered.shape_ids
        assert lowered.opcode_id_col.tolist() == lowered.opcode_ids
        assert len(lowered.src_indptr) == len(lowered.dst_indptr) == n + 1
        for i in range(n):
            lo, hi = lowered.src_indptr[i], lowered.src_indptr[i + 1]
            assert tuple(lowered.src_flat[lo:hi]) == lowered.srcs[i]
            lo, hi = lowered.dst_indptr[i], lowered.dst_indptr[i + 1]
            assert [(int(r), int(p), bool(a)) for r, p, a in
                    zip(lowered.dst_reg_flat[lo:hi],
                        lowered.dst_pool_flat[lo:hi],
                        lowered.dst_acc_flat[lo:hi])] \
                == [tuple(d) for d in lowered.dsts[i]]

    def test_empty_trace_columns(self):
        lowered = lower_trace(Trace("empty", "test"))
        assert lowered.src_indptr.tolist() == [0]
        assert lowered.dst_indptr.tolist() == [0]
        assert lowered.src_flat.size == 0
        assert lowered.dst_reg_flat.size == 0
