"""Micro-level tests of the out-of-order core model.

Each test builds a tiny hand-written trace whose timing behaviour can be
reasoned about exactly (dependence chains, functional-unit contention,
memory latency, vector occupancy, the MDMX accumulator recurrence and the
MOM pipelined reduction) and checks the simulated cycle counts.
"""

from __future__ import annotations

import pytest

from repro.isa.opclasses import OpClass, RegFile
from repro.timing.config import MachineConfig
from repro.timing.core import OutOfOrderCore, simulate_trace
from repro.trace.container import Trace
from repro.trace.instruction import DynInstr, RegRef


def instr(opcode, opclass, srcs=(), dsts=(), ops=1, vlx=1, vly=1,
          is_vector=False, non_pipelined=False):
    return DynInstr(opcode=opcode, opclass=opclass, isa="test", srcs=tuple(srcs),
                    dsts=tuple(dsts), ops=ops, vlx=vlx, vly=vly,
                    is_vector=is_vector, non_pipelined=non_pipelined)


def int_ref(i):
    return RegRef(RegFile.INT, i)


def media_ref(i):
    return RegRef(RegFile.MEDIA, i)


def acc_ref(i):
    return RegRef(RegFile.ACC, i)


def matrix_ref(i):
    return RegRef(RegFile.MATRIX, i)


def chain_trace(length, opclass=OpClass.IALU):
    """A serial dependence chain of ``length`` instructions."""
    trace = Trace(name="chain", isa="test")
    for i in range(length):
        srcs = (int_ref(1),) if i else ()
        trace.append(instr(f"op{i}", opclass, srcs=srcs, dsts=(int_ref(1),)))
    return trace


def independent_trace(length, opclass=OpClass.IALU):
    trace = Trace(name="indep", isa="test")
    for i in range(length):
        trace.append(instr(f"op{i}", opclass, dsts=(int_ref(i % 16),)))
    return trace


class TestBasicBehaviour:
    def test_empty_trace(self):
        result = simulate_trace(Trace(), MachineConfig.for_way(4))
        assert result.cycles == 0
        assert result.instructions == 0

    def test_serial_chain_is_latency_bound(self):
        trace = chain_trace(32)
        result = simulate_trace(trace, MachineConfig.for_way(8))
        # one-cycle ALU ops in a serial chain: about one per cycle
        assert 32 <= result.cycles <= 40

    def test_independent_ops_are_width_bound(self):
        trace = independent_trace(64)
        narrow = simulate_trace(trace, MachineConfig.for_way(1))
        wide = simulate_trace(trace, MachineConfig.for_way(8))
        assert narrow.cycles >= 64
        assert wide.cycles < narrow.cycles
        assert wide.cycles <= narrow.cycles / 4

    def test_ipc_never_exceeds_width(self):
        trace = independent_trace(200)
        for way in (1, 2, 4):
            result = simulate_trace(trace, MachineConfig.for_way(way))
            assert result.ipc <= way + 1e-9

    def test_operations_counted(self):
        trace = Trace()
        trace.append(instr("v", OpClass.MEDIA_ALU, dsts=(media_ref(0),), ops=32,
                           vlx=8, vly=4, is_vector=True))
        result = simulate_trace(trace, MachineConfig.for_way(4))
        assert result.operations == 32
        assert result.instructions == 1


class TestFunctionalUnitContention:
    def test_single_multiplier_serialises(self):
        trace = Trace()
        for i in range(8):
            trace.append(instr(f"mul{i}", OpClass.IMUL, dsts=(int_ref(i),)))
        cfg = MachineConfig.for_way(4).with_updates(num_int_mul=1)
        one = simulate_trace(trace, cfg)
        cfg2 = MachineConfig.for_way(4).with_updates(num_int_mul=4)
        four = simulate_trace(trace, cfg2)
        assert one.cycles > four.cycles

    def test_media_fu_count_matters(self):
        trace = Trace()
        for i in range(32):
            trace.append(instr(f"p{i}", OpClass.MEDIA_ALU, dsts=(media_ref(i % 8),),
                               ops=8, vlx=8, is_vector=True))
        few = simulate_trace(trace, MachineConfig.for_way(8).with_updates(num_media_fu=1))
        many = simulate_trace(trace, MachineConfig.for_way(8).with_updates(num_media_fu=8))
        assert few.cycles > many.cycles


class TestMemoryLatency:
    def _load_use_trace(self, n):
        trace = Trace()
        for i in range(n):
            trace.append(instr("ld", OpClass.LOAD, srcs=(int_ref(0),),
                               dsts=(int_ref(1),)))
            trace.append(instr("use", OpClass.IALU, srcs=(int_ref(1),),
                               dsts=(int_ref(2),)))
        return trace

    def test_latency_increases_cycles(self):
        trace = self._load_use_trace(16)
        lat1 = simulate_trace(trace, MachineConfig.for_way(4, mem_latency=1))
        lat50 = simulate_trace(trace, MachineConfig.for_way(4, mem_latency=50))
        assert lat50.cycles > lat1.cycles

    def test_independent_loads_overlap_latency(self):
        """With plenty of independent loads the latency is largely hidden."""
        trace = Trace()
        for i in range(32):
            trace.append(instr("ld", OpClass.LOAD, srcs=(int_ref(0),),
                               dsts=(int_ref(1 + i % 8),)))
        lat1 = simulate_trace(trace, MachineConfig.for_way(4, mem_latency=1))
        lat50 = simulate_trace(trace, MachineConfig.for_way(4, mem_latency=50))
        # far from 50x slower: the window overlaps the misses
        assert lat50.cycles < lat1.cycles + 80

    def test_store_does_not_block_on_latency(self):
        trace = Trace()
        for _ in range(8):
            trace.append(instr("st", OpClass.STORE, srcs=(int_ref(0),)))
        lat1 = simulate_trace(trace, MachineConfig.for_way(4, mem_latency=1))
        lat50 = simulate_trace(trace, MachineConfig.for_way(4, mem_latency=50))
        assert lat50.cycles == lat1.cycles


class TestVectorOccupancy:
    def test_matrix_op_occupies_fu_for_vl_cycles(self):
        cfg = MachineConfig.for_way(4).with_updates(num_media_fu=1, media_lanes=1)
        trace = Trace()
        for i in range(4):
            trace.append(instr("mom", OpClass.MEDIA_ALU, dsts=(matrix_ref(i),),
                               ops=128, vlx=8, vly=16, is_vector=True))
        result = simulate_trace(trace, cfg)
        # four 16-row matrix ops on one single-lane FU: at least 64 busy cycles
        assert result.cycles >= 64

    def test_more_lanes_reduce_occupancy(self):
        trace = Trace()
        for i in range(8):
            trace.append(instr("mom", OpClass.MEDIA_ALU, dsts=(matrix_ref(i % 4),),
                               ops=128, vlx=8, vly=16, is_vector=True))
        one_lane = simulate_trace(
            trace, MachineConfig.for_way(4).with_updates(num_media_fu=2, media_lanes=1))
        four_lanes = simulate_trace(
            trace, MachineConfig.for_way(4).with_updates(num_media_fu=2, media_lanes=4))
        assert four_lanes.cycles < one_lane.cycles

    def test_vector_load_amortises_latency(self):
        """One matrix load pays the memory latency once for all its rows.

        The scalar equivalent needs sixteen load/use pairs to occupy the
        instruction window, so with a realistic (small) reorder buffer it
        cannot keep enough misses in flight — the paper's latency-tolerance
        argument for vector memory instructions.
        """
        cfg = MachineConfig.for_way(4, mem_latency=50).with_updates(rob_size=8)
        vector = Trace()
        vector.append(instr("mom_ld", OpClass.MEDIA_LOAD, srcs=(int_ref(0),),
                            dsts=(matrix_ref(0),), ops=128, vlx=8, vly=16,
                            is_vector=True))
        vector.append(instr("use", OpClass.MEDIA_ALU, srcs=(matrix_ref(0),),
                            dsts=(matrix_ref(1),), ops=128, vlx=8, vly=16,
                            is_vector=True))
        scalar = Trace()
        for i in range(16):
            scalar.append(instr("ld", OpClass.LOAD, srcs=(int_ref(0),),
                                dsts=(int_ref(1),)))
            scalar.append(instr("use", OpClass.IALU, srcs=(int_ref(1),),
                                dsts=(int_ref(2),)))
        v = simulate_trace(vector, cfg)
        s = simulate_trace(scalar, cfg)
        assert v.cycles < s.cycles

    def test_non_pipelined_op_blocks_unit(self):
        cfg = MachineConfig.for_way(4).with_updates(num_media_fu=1)
        trace = Trace()
        for i in range(4):
            trace.append(instr("transpose", OpClass.MATRIX_MISC,
                               dsts=(matrix_ref(i),), ops=64, vlx=8, vly=8,
                               is_vector=True, non_pipelined=True))
        result = simulate_trace(trace, cfg)
        latency = cfg.latency_of(OpClass.MATRIX_MISC)
        assert result.cycles >= 4 * latency


class TestAccumulatorSemantics:
    def _acc_chain(self, n, vly):
        trace = Trace()
        for i in range(n):
            trace.append(instr("acc", OpClass.MEDIA_ACC,
                               srcs=(media_ref(0), media_ref(1), acc_ref(0)),
                               dsts=(acc_ref(0),), ops=4 * vly, vlx=4, vly=vly,
                               is_vector=True))
        return trace

    def test_mdmx_recurrence_costs_one_cycle_per_accumulate(self):
        trace = self._acc_chain(32, vly=1)
        result = simulate_trace(trace, MachineConfig.for_way(4))
        # about one accumulate per cycle despite the chain
        assert result.cycles <= 32 + 15

    def test_mom_reduction_has_pipeline_latency_but_no_per_row_recurrence(self):
        cfg = MachineConfig.for_way(4)
        # A single 16-row reduction vs 16 chained single-row accumulates.
        mom = self._acc_chain(1, vly=16)
        mdmx = self._acc_chain(16, vly=1)
        mom_result = simulate_trace(mom, cfg)
        mdmx_result = simulate_trace(mdmx, cfg)
        assert mom_result.instructions == 1
        # the matrix reduction takes occupancy + fixed extra latency
        assert mom_result.cycles >= 16
        # and it is competitive with the chained version while using one
        # instruction slot instead of sixteen
        assert mom_result.cycles <= mdmx_result.cycles + cfg.mom_reduction_latency + 8


class TestStructuralLimits:
    def test_rob_limits_inflight_instructions(self):
        trace = Trace()
        # long-latency producer followed by many independent ops
        trace.append(instr("mul", OpClass.IMUL, dsts=(int_ref(0),)))
        for i in range(200):
            trace.append(instr("alu", OpClass.IALU, dsts=(int_ref(1 + i % 8),)))
        small = simulate_trace(trace, MachineConfig.for_way(4).with_updates(rob_size=8))
        large = simulate_trace(trace, MachineConfig.for_way(4).with_updates(rob_size=256))
        assert small.cycles >= large.cycles

    def test_rename_registers_limit_throughput(self):
        trace = Trace()
        for i in range(64):
            trace.append(instr("p", OpClass.MEDIA_ALU, dsts=(media_ref(i % 16),),
                               ops=8, vlx=8, is_vector=True))
        tight = simulate_trace(
            trace,
            MachineConfig.for_way(4).with_updates(phys_media_regs=34),
        )
        roomy = simulate_trace(
            trace,
            MachineConfig.for_way(4).with_updates(phys_media_regs=128),
        )
        assert tight.cycles >= roomy.cycles
        assert tight.stall_breakdown["rename_regs"] >= roomy.stall_breakdown["rename_regs"]

    def test_commit_is_in_order(self):
        cfg = MachineConfig.for_way(4)
        core = OutOfOrderCore(cfg)
        trace = Trace()
        trace.append(instr("mul", OpClass.IMUL, dsts=(int_ref(0),)))
        trace.append(instr("alu", OpClass.IALU, dsts=(int_ref(1),)))
        core.run(trace, record_timeline=True)
        commits = [row[5] for row in core.timeline]
        assert commits == sorted(commits)
        # the fast ALU op cannot commit before the long multiply ahead of it
        assert commits[1] >= commits[0]

    def test_result_metadata(self):
        trace = independent_trace(10)
        result = simulate_trace(trace, MachineConfig.for_way(2, mem_latency=12))
        assert result.issue_width == 2
        assert result.mem_latency == 12
        assert result.instructions == 10
        assert set(result.stall_breakdown) == {"rob", "issue_queue", "rename_regs",
                                               "fetch_bw"}

    def test_speedup_helper(self):
        trace = independent_trace(64)
        slow = simulate_trace(trace, MachineConfig.for_way(1))
        fast = simulate_trace(trace, MachineConfig.for_way(8))
        assert fast.speedup_over(slow) > 1.0
        assert slow.speedup_over(fast) < 1.0


class TestConstruction:
    @pytest.mark.parametrize("field", ["num_int_alu", "num_int_mul",
                                       "num_mem_ports", "num_media_fu",
                                       "issue_width"])
    def test_zero_units_or_issue_width_rejected_at_construction(self, field):
        """With no unit of a kind, or no issue slot, an instruction could
        never issue and the lowered interpreter's issue search would never
        end; the core refuses such a configuration up front, before any
        run."""
        cfg = MachineConfig.for_way(4).with_updates(**{field: 0})
        with pytest.raises(ValueError, match=r">= 1"):
            OutOfOrderCore(cfg)
