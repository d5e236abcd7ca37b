"""``replicate_tail``: block append of already-recorded rows.

Block emission relies on one container primitive: copy the record tail
``[start:]`` onto the end of the trace ``times`` more times.  For column
traces this must be indistinguishable from re-emitting the same calls
(instructions, lowering, statistics, ``total_ops``), honour copy-on-write after
a lowering adopted the columns, and fall back to materialised-instruction
duplication in object mode.
"""

from __future__ import annotations

from repro.isa.opclasses import OpClass, RegFile
from repro.trace.container import Trace
from repro.trace.instruction import RegRef
from repro.trace.stats import summarize_trace

_R = [RegRef(RegFile.INT, i) for i in range(4)]


def _emit_prefix(trace: Trace) -> None:
    trace.emit("li", OpClass.IALU, (), (_R[0],))
    trace.emit("li", OpClass.IALU, (), (_R[1],))


def _emit_loop_iter(trace: Trace) -> None:
    trace.emit("ldw", OpClass.LOAD, (_R[0],), (_R[2],))
    trace.emit("add", OpClass.IALU, (_R[2], _R[1]), (_R[1],))
    trace.emit("stw", OpClass.STORE, (_R[1], _R[0]), ())
    trace.emit("bgt", OpClass.BRANCH, (_R[1],), (), ops=2)


def _reference(times: int, columns: bool) -> Trace:
    """The same stream produced by honest re-emission."""
    trace = Trace(name="ref", isa="scalar", columns=columns)
    _emit_prefix(trace)
    for _ in range(times):
        _emit_loop_iter(trace)
    return trace


def _replicated(times: int, columns: bool) -> Trace:
    trace = Trace(name="ref", isa="scalar", columns=columns)
    _emit_prefix(trace)
    start = len(trace)
    _emit_loop_iter(trace)
    trace.replicate_tail(start, times - 1)
    return trace


class TestColumnMode:
    def test_matches_reemission(self, assert_same_trace):
        rep = _replicated(7, columns=True)
        ref = _reference(7, columns=True)
        assert rep.columns is not None
        assert len(rep) == len(ref)
        assert summarize_trace(rep) == summarize_trace(ref)
        assert_same_trace(rep, ref)

    def test_total_ops_accumulates(self):
        rep = _replicated(5, columns=True)
        # prefix: 2 x 1 op; each iteration: 3 x 1 + 1 x 2 ops
        assert rep.columns.total_ops == 2 + 5 * 5

    def test_zero_times_and_empty_tail_are_noops(self, assert_same_trace):
        trace = Trace(name="t", isa="scalar")
        _emit_prefix(trace)
        trace.replicate_tail(0, 0)
        trace.replicate_tail(len(trace), 3)
        untouched = Trace(name="t", isa="scalar")
        _emit_prefix(untouched)
        assert_same_trace(trace, untouched)

    def test_copy_on_write_after_adoption(self, assert_same_lowering):
        """A lowering that adopted the column arrays must not grow when the
        trace keeps replicating afterwards."""
        trace = _replicated(2, columns=True)
        lowered = trace.lower()
        n = len(trace)
        assert lowered.num_instructions == n
        trace.replicate_tail(len(trace) - 4, 3)  # three more loop iterations
        assert lowered.num_instructions == n, "adopted lowering mutated"
        assert len(lowered.shape_ids) == n
        relowered = trace.lower()
        assert relowered.num_instructions == n + 12
        assert_same_lowering(relowered, _reference(5, True).lower())

    def test_interleaved_emit_and_replicate(self, assert_same_trace):
        """Emission may continue after a block append (next loop nest)."""
        trace = Trace(name="t", isa="scalar", columns=True)
        _emit_prefix(trace)
        start = len(trace)
        _emit_loop_iter(trace)
        trace.replicate_tail(start, 2)
        _emit_prefix(trace)
        start = len(trace)
        _emit_loop_iter(trace)
        trace.replicate_tail(start, 1)

        ref = Trace(name="t", isa="scalar", columns=False)
        _emit_prefix(ref)
        for _ in range(3):
            _emit_loop_iter(ref)
        _emit_prefix(ref)
        for _ in range(2):
            _emit_loop_iter(ref)
        assert_same_trace(trace, ref)


class TestObjectMode:
    def test_matches_reemission(self, assert_same_trace):
        rep = _replicated(6, columns=False)
        ref = _reference(6, columns=False)
        assert rep.columns is None
        assert_same_trace(rep, ref)

    def test_object_equals_column(self, assert_same_trace):
        assert_same_trace(_replicated(4, columns=False),
                          _replicated(4, columns=True))
