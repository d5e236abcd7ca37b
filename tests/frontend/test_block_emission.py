"""Block emission: ``unroll`` / ``replay`` / ``_suppress_emission``.

The builders' block-emission contract: an unrolled loop must leave the
trace *and* the complete architectural state byte-identical to the plain
per-iteration loop — in column mode (where iterations 1..n-2 come from
``replicate_tail`` plus a vectorised ``bulk``) and in object mode (where
``unroll`` degrades to the reference loop).  The grid test at the bottom
closes the loop over every kernel x ISA point: not just the outputs but
the full machine end-state (memory image, every register file, the
accumulators, the vector length) must agree between modes.
"""

from __future__ import annotations

import pytest

from repro.frontend.builders import make_builder
from repro.frontend.machine import FunctionalMachine
from repro.kernels.base import ISA_VARIANTS
from repro.kernels.registry import get_kernel, kernel_names
from repro.workloads.generators import WorkloadSpec

_GRID = [(kernel, isa) for kernel in kernel_names() for isa in ISA_VARIANTS]


def _machine_state(m: FunctionalMachine):
    """The complete architectural state, as comparable Python values."""
    return (
        bytes(m.memory._data),
        m.int_regs.snapshot(),
        m.media_regs.snapshot(),
        [list(m.mdmx_accs.read(i)) for i in range(m.mdmx_accs.num_accs)],
        [m.matrix_regs.read(i) for i in range(m.matrix_regs.num_regs)],
        [list(m.mom_accs.read(i)) for i in range(m.mom_accs.num_accs)],
        m.vector_control.vl,
    )


def _scalar_builder(columns: bool):
    machine = FunctionalMachine(mem_size=1 << 16)
    return make_builder("scalar", machine, name="toy", columns=columns)


def _toy_loop(b, unrolled: bool, count: int = 9) -> None:
    """A loop with a loop-carried accumulator and per-iteration stores."""
    base = b.machine.memory.alloc(count * 8)
    R_ACC, R_X, R_OUT = 1, 2, 3
    b.li(R_OUT, base)
    b.li(R_ACC, 0)

    def body(i: int) -> None:
        b.li(R_X, 5)
        b.add(R_ACC, R_ACC, R_X)
        b.stq(R_ACC, R_OUT, i * 8)

    def bulk(lo: int, hi: int) -> None:
        last = hi - 1
        for i in range(lo, last):
            b.machine.memory.write_uint(base + i * 8, 5 * (i + 1), 8)
        b.regs.write(R_ACC, 5 * last)
        b.replay(body, last)

    if unrolled:
        b.unroll(count, body, bulk)
    else:
        for i in range(count):
            body(i)


class TestUnrollEquivalence:
    @pytest.mark.parametrize("columns", [True, False], ids=["col", "obj"])
    def test_unrolled_equals_plain(self, columns, assert_same_trace):
        plain = _scalar_builder(columns)
        _toy_loop(plain, unrolled=False)
        rolled = _scalar_builder(columns)
        _toy_loop(rolled, unrolled=True)
        assert_same_trace(rolled.trace, plain.trace)
        assert _machine_state(rolled.machine) == _machine_state(plain.machine)

    def test_column_equals_object(self, assert_same_trace):
        col = _scalar_builder(True)
        _toy_loop(col, unrolled=True)
        obj = _scalar_builder(False)
        _toy_loop(obj, unrolled=True)
        assert col.trace.columns is not None
        assert obj.trace.columns is None
        assert_same_trace(col.trace, obj.trace)
        assert _machine_state(col.machine) == _machine_state(obj.machine)

    def test_count_one_and_no_bulk_take_reference_path(self):
        b = _scalar_builder(True)
        calls = []
        b.unroll(3, lambda i: calls.append(i))         # no bulk
        b.unroll(1, lambda i: calls.append(10 + i),
                 lambda lo, hi: calls.append("bulk"))  # count == 1
        b.unroll(0, lambda i: calls.append(99))        # empty
        assert calls == [0, 1, 2, 10]


class TestSuppression:
    def test_replay_emits_nothing_but_executes(self):
        b = _scalar_builder(True)
        b.li(1, 7)
        n = len(b.trace)

        def body(i: int) -> None:
            b.addi(1, 1, 1)

        b.replay(body, 0)
        assert len(b.trace) == n, "replay leaked records into the trace"
        assert b.regs.read(1) == 8, "replay skipped the semantics"
        # emission is restored afterwards
        b.addi(1, 1, 1)
        assert len(b.trace) == n + 1

    def test_nested_unroll_inside_replay_stays_silent(self):
        """A bulk that replays a body containing its own unroll must not
        append rows through the inner replicate_tail."""
        b = _scalar_builder(True)

        def inner_body(i: int) -> None:
            b.addi(1, 1, 1)

        def inner_bulk(lo: int, hi: int) -> None:
            b.regs.write(1, b.regs.read(1) + (hi - 1 - lo))
            b.replay(inner_body, hi - 1)

        def outer(i: int) -> None:
            b.li(1, 0)
            b.unroll(4, inner_body, inner_bulk)

        n = len(b.trace)
        b.replay(outer, 2)
        assert len(b.trace) == n, "nested unroll emitted while suppressed"
        assert b.regs.read(1) == 4

    def test_suppression_exception_safe(self):
        b = _scalar_builder(True)

        def boom(i: int) -> None:
            raise RuntimeError("body failed")

        with pytest.raises(RuntimeError):
            b.replay(boom, 0)
        n = len(b.trace)
        b.li(1, 1)
        assert len(b.trace) == n + 1, "emission not restored after error"


class TestGridMachineState:
    """Column-mode block emission leaves the same machine end-state as the
    object-mode per-iteration loops, on every kernel x ISA point."""

    @pytest.mark.parametrize("kernel_name,isa", _GRID,
                             ids=[f"{k}-{i}" for k, i in _GRID])
    def test_full_state_equal(self, kernel_name, isa):
        kernel = get_kernel(kernel_name)
        spec = WorkloadSpec(scale=2, seed=29)
        workload = kernel.make_workload(spec)
        states = {}
        for columns in (True, False):
            machine = FunctionalMachine()
            builder = make_builder(isa, machine, name=kernel_name,
                                   columns=columns)
            kernel.build(isa, builder, workload)
            states[columns] = _machine_state(machine)
        col, obj = states[True], states[False]
        assert col[0] == obj[0], "memory images differ"
        assert col[1:] == obj[1:], "register/accumulator state differs"
