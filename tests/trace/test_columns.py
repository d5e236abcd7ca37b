"""Column-emission equivalence: the zero-object fast path vs the object path.

The contract of this PR's front-end rewrite: a trace built through the
column recorder is indistinguishable from one built through DynInstr
objects — equal instruction sequences, structurally identical lowerings
and equal statistics — across the full kernel x
ISA grid and across Hypothesis-drawn workload shapes.  Plus the mutation
rules: adopting a lowering is zero-copy, but mutating the trace afterwards
must invalidate the memo and never disturb the already-returned lowering.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.isa.opclasses import OpClass, RegFile
from repro.kernels.base import ISA_VARIANTS
from repro.kernels.registry import KERNELS, get_kernel, kernel_names
from repro.trace.container import Trace
from repro.trace.instruction import DynInstr, RegRef
from repro.trace.stats import summarize_trace
from repro.workloads.generators import WorkloadSpec

_GRID = [(kernel, isa) for kernel in kernel_names() for isa in ISA_VARIANTS]


def _build_pair(kernel_name: str, isa: str, spec: WorkloadSpec):
    """One (column-built, object-built) pair on identical workload data."""
    kernel = get_kernel(kernel_name)
    workload = kernel.make_workload(spec)
    column = kernel.run_variant(isa, workload=workload, columns=True)
    objectp = kernel.run_variant(isa, workload=workload, columns=False)
    return column, objectp


class TestGridEquivalence:
    """Column-built == object-built on every kernel x ISA point."""

    @pytest.mark.parametrize("kernel_name,isa", _GRID,
                             ids=[f"{k}-{i}" for k, i in _GRID])
    def test_payload_lowering_stats_equal(self, kernel_name, isa, tiny_spec,
                                          assert_same_trace):
        """Instruction sequence, lowered columns and statistics agree."""
        column, objectp = _build_pair(kernel_name, isa, tiny_spec)
        assert column.correct and objectp.correct
        # the column trace really is column-mode, the object one is not
        assert column.trace.columns is not None
        assert objectp.trace.columns is None
        # statistics (column-native pass vs per-instruction pass), taken
        # before anything materialises the column trace
        assert summarize_trace(column.trace) == summarize_trace(objectp.trace)
        assert_same_trace(column.trace, objectp.trace)

    @pytest.mark.parametrize("kernel_name,isa", _GRID[::7],
                             ids=[f"{k}-{i}" for k, i in _GRID[::7]])
    def test_materialised_instructions_equal(self, kernel_name, isa,
                                             tiny_spec, assert_same_trace):
        column, objectp = _build_pair(kernel_name, isa, tiny_spec)
        assert len(column.trace) == len(objectp.trace)
        assert list(column.trace) == list(objectp.trace)
        # materialisation does not change the authoritative storage
        assert column.trace.columns is not None
        assert_same_trace(column.trace, objectp.trace)


class TestHypothesisWorkloadShapes:
    """Equivalence holds for arbitrary (kernel, ISA, scale, seed) shapes."""

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(kernel_name=st.sampled_from(kernel_names()),
           isa=st.sampled_from(list(ISA_VARIANTS)),
           scale=st.integers(min_value=1, max_value=3),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_column_equals_object(self, kernel_name, isa, scale, seed,
                                  assert_same_trace):
        spec = WorkloadSpec(scale=scale, seed=seed)
        column, objectp = _build_pair(kernel_name, isa, spec)
        assert summarize_trace(column.trace) == summarize_trace(objectp.trace)
        assert_same_trace(column.trace, objectp.trace)


def _emit_some(trace: Trace, n: int = 3) -> None:
    r0 = RegRef(RegFile.INT, 0)
    r1 = RegRef(RegFile.INT, 1)
    for _ in range(n):
        trace.emit("add", OpClass.IALU, (r0, r1), (r1,))


class TestMutationAfterAdoption:
    """Zero-copy adoption must never leak later mutations into a lowering."""

    def test_append_invalidates_memo(self):
        trace = Trace(name="t", isa="scalar")
        _emit_some(trace, 4)
        lowered = trace.lower()
        assert lowered.num_instructions == 4
        assert trace.lower() is lowered, "memoised while unmutated"
        trace.append(DynInstr(opcode="mul", opclass=OpClass.IMUL,
                              isa="scalar"))
        relowered = trace.lower()
        assert relowered is not lowered
        assert relowered.num_instructions == 5
        # the adopted lowering kept its pre-mutation content
        assert lowered.num_instructions == 4
        assert len(lowered.shape_ids) == 4

    def test_emit_after_adoption_is_copy_on_write(self):
        trace = Trace(name="t", isa="scalar")
        _emit_some(trace, 4)
        lowered = trace.lower()
        # builder keeps emitting into the columns after someone lowered
        _emit_some(trace, 2)
        assert lowered.num_instructions == 4
        assert len(lowered.shape_ids) == 4, \
            "adopted lowering mutated by continued emission"
        relowered = trace.lower()
        assert relowered.num_instructions == 6
        assert relowered.shape_ids[:4] == lowered.shape_ids

    def test_adopted_lowering_matches_lower_trace(self, assert_same_lowering):
        from repro.timing.lowered import lower_trace

        trace = Trace(name="t", isa="scalar")
        _emit_some(trace, 5)
        adopted = trace.lower()
        # reference lowering over the materialised objects
        reference = lower_trace(trace)
        assert_same_lowering(adopted, reference)


class TestEmissionModes:
    def test_object_mode_trace_builds_instances(self):
        trace = Trace(name="t", isa="scalar", columns=False)
        _emit_some(trace, 2)
        assert trace.columns is None
        assert all(isinstance(i, DynInstr) for i in trace)
        assert trace[0].isa == "scalar"

    def test_append_degrades_column_trace_to_objects(self):
        trace = Trace(name="t", isa="scalar")
        _emit_some(trace, 2)
        assert trace.columns is not None
        trace.append(DynInstr(opcode="br", opclass=OpClass.BRANCH,
                              isa="scalar"))
        assert trace.columns is None
        assert len(trace) == 3
        assert trace[2].opcode == "br"

    def test_emit_with_foreign_isa_degrades_to_objects(self):
        # no builder does this, but the object path stamped the builder's
        # own ISA, so the column path must preserve the behaviour
        trace = Trace(name="t", isa="scalar")
        _emit_some(trace, 2)
        trace.emit("weird", OpClass.IALU, (), (), isa="other")
        assert trace.columns is None
        assert trace[2].isa == "other"
        assert trace[0].isa == "scalar"

    def test_adoption_fires_lowering_hooks_once(self):
        from repro.timing.lowered import (add_lowering_hook,
                                          remove_lowering_hook)

        events = []
        hook = add_lowering_hook(
            lambda name, isa, n: events.append((name, isa, n)))
        try:
            trace = Trace(name="t", isa="scalar")
            _emit_some(trace, 3)
            trace.lower()
            trace.lower()  # memoised: no second event
        finally:
            remove_lowering_hook(hook)
        assert events == [("t", "scalar", 3)]

    def test_empty_trace(self):
        trace = Trace(name="t", isa="scalar")
        assert len(trace) == 0
        assert list(trace) == []
        assert summarize_trace(trace).num_instructions == 0
        lowered = trace.lower()
        assert lowered.num_instructions == 0


class TestColdSweepBuildsNoObjects:
    """A cold sweep point goes builders -> columns -> lowered arrays ->
    statistics without materialising a single DynInstr."""

    def test_build_lower_summarize_without_materialisation(self, tiny_spec):
        kernel = KERNELS["comp"]
        result = kernel.run_variant("mmx", spec=tiny_spec)
        trace = result.trace
        assert trace.columns is not None
        trace.lower()
        summarize_trace(trace)
        # _instrs stays unmaterialised through the whole cold pipeline
        assert trace._instrs is None
