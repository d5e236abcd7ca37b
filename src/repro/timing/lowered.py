"""Trace lowering: compile a ``Trace`` into flat arrays for fast simulation.

The object-level simulation loop (:meth:`~repro.timing.core.OutOfOrderCore.run`)
pays, for every dynamic instruction, a series of costs that are *invariant
across the many machine configurations each trace is simulated under*:
attribute lookups on :class:`~repro.trace.instruction.DynInstr`, enum hashing
to find the functional-unit pool and issue queue, and — worst of all —
hashing frozen-dataclass :class:`~repro.trace.instruction.RegRef` keys into
the register scoreboard dict.

This module performs that work **once per trace**.  :func:`lower_trace`
compiles a trace into a :class:`LoweredTrace` of parallel flat arrays:

* a *shape table* of the distinct ``(opclass, vly, non_pipelined)`` triples
  (per configuration these resolve to occupancy, completion latency,
  functional-unit pool and issue queue — the resolution happens once per
  shape inside :meth:`~repro.timing.core.OutOfOrderCore.run_lowered`, not
  once per instruction);
* one small-integer shape id per instruction;
* source operands renumbered to dense integer register ids, so the register
  scoreboard becomes a plain list indexed by ``int`` instead of a dict keyed
  by ``RegRef``;
* destination operands as ``(reg_id, rename_pool_index, is_accumulator)``
  triples — everything the rename and writeback stages need, pre-resolved;
* the per-trace operation total (configuration-independent, so the run loop
  no longer sums it).

:meth:`~repro.trace.container.Trace.lower` memoises the lowered form on the
trace instance, and the sweep engine's batching simulates every
configuration sharing a trace off one ``LoweredTrace`` — lowering cost is
amortised to ~zero per sweep point.

Cycle counts are **bit-identical** to the object loop — the golden snapshot
suite and the equivalence tests in ``tests/timing/test_lowered.py`` pin that.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from repro.isa.opclasses import OpClass, RegFile

__all__ = ["REG_POOL_ORDER", "LoweredTrace", "add_lowering_hook",
           "remove_lowering_hook", "lower_trace"]

#: Fixed order in which :meth:`OutOfOrderCore.run_lowered` materialises the
#: rename slot pools; a lowered destination's ``pool`` field is an index into
#: this tuple.
REG_POOL_ORDER: Tuple[RegFile, ...] = (RegFile.INT, RegFile.MEDIA,
                                       RegFile.MATRIX, RegFile.ACC,
                                       RegFile.VL)

_POOL_INDEX = {file: i for i, file in enumerate(REG_POOL_ORDER)}

#: Observers called as ``hook(trace_name, isa, num_instructions)`` every time
#: a trace is actually *lowered* (not served from a memo).  The sweep benchmarks register a counter here to assert that
#: lowering is amortised: one lowering per distinct trace per sweep.
_LOWERING_HOOKS: List[Callable[[str, str, int], None]] = []


def add_lowering_hook(hook: Callable[[str, str, int], None]
                      ) -> Callable[[str, str, int], None]:
    """Register an observer for lowering passes; returns ``hook``."""
    _LOWERING_HOOKS.append(hook)
    return hook


def remove_lowering_hook(hook: Callable[[str, str, int], None]) -> None:
    """Unregister a previously added lowering hook (no-op if absent)."""
    try:
        _LOWERING_HOOKS.remove(hook)
    except ValueError:
        pass


def _notify_lowered(lowered: "LoweredTrace") -> None:
    """Fire the lowering hooks for one fresh compilation.

    Called by :func:`lower_trace` and by the column recorder's zero-copy
    adoption (:meth:`repro.trace.columns.TraceColumns.adopt_lowered`) —
    both are the one compile event of their trace, so the sweep tests'
    "one lowering per distinct trace" accounting holds on either path.
    """
    for hook in _LOWERING_HOOKS:
        hook(lowered.name, lowered.isa, lowered.num_instructions)


class LoweredTrace:
    """The flat-array compilation of one :class:`~repro.trace.container.Trace`.

    All per-instruction sequences are parallel (index ``i`` describes dynamic
    instruction ``i``); everything configuration-dependent is deferred to the
    shape table, which :meth:`~repro.timing.core.OutOfOrderCore.run_lowered`
    resolves once per simulation.
    """

    __slots__ = ("name", "isa", "num_instructions", "total_ops", "num_regs",
                 "shapes", "shape_ids", "srcs", "dsts", "opcodes",
                 "opcode_ids")

    def __init__(self, name: str, isa: str, num_instructions: int,
                 total_ops: int, num_regs: int,
                 shapes: List[Tuple[OpClass, int, bool]],
                 shape_ids: List[int],
                 srcs: List[Tuple[int, ...]],
                 dsts: List[Tuple[Tuple[int, int, bool], ...]],
                 opcodes: List[str],
                 opcode_ids: List[int]) -> None:
        self.name = name
        self.isa = isa
        self.num_instructions = num_instructions
        self.total_ops = total_ops
        self.num_regs = num_regs
        #: Distinct ``(opclass, vly, non_pipelined)`` triples.
        self.shapes = shapes
        #: Per instruction: index into :attr:`shapes`.
        self.shape_ids = shape_ids
        #: Per instruction: dense source register ids.
        self.srcs = srcs
        #: Per instruction: ``(reg_id, pool_index, is_accumulator)`` per dst.
        self.dsts = dsts
        #: Interned opcode mnemonics (timeline recording only).
        self.opcodes = opcodes
        #: Per instruction: index into :attr:`opcodes`.
        self.opcode_ids = opcode_ids

    def __len__(self) -> int:
        return self.num_instructions

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LoweredTrace(name={self.name!r}, isa={self.isa!r}, "
                f"n={self.num_instructions}, shapes={len(self.shapes)}, "
                f"regs={self.num_regs})")


def lower_trace(trace) -> LoweredTrace:
    """Compile ``trace`` into a :class:`LoweredTrace`.

    Pure function of the trace: register ids are assigned densely in first-
    use order, shapes and opcodes are interned in first-use order, so
    lowering the same trace twice yields structurally identical results.
    Prefer :meth:`Trace.lower`, which memoises the result on the trace.
    """
    reg_ids: Dict[Any, int] = {}
    shape_table: Dict[Tuple[OpClass, int, bool], int] = {}
    opcode_table: Dict[str, int] = {}
    shapes: List[Tuple[OpClass, int, bool]] = []
    opcodes: List[str] = []
    shape_ids: List[int] = []
    srcs_rows: List[Tuple[int, ...]] = []
    dsts_rows: List[Tuple[Tuple[int, int, bool], ...]] = []
    opcode_ids: List[int] = []
    total_ops = 0
    acc_file = RegFile.ACC

    for instr in trace:
        total_ops += instr.ops
        shape = (instr.opclass, instr.vly, instr.non_pipelined)
        sid = shape_table.get(shape)
        if sid is None:
            sid = shape_table[shape] = len(shapes)
            shapes.append(shape)
        shape_ids.append(sid)

        src_row = []
        for ref in instr.srcs:
            rid = reg_ids.get(ref)
            if rid is None:
                rid = reg_ids[ref] = len(reg_ids)
            src_row.append(rid)
        srcs_rows.append(tuple(src_row))

        dst_row = []
        for ref in instr.dsts:
            rid = reg_ids.get(ref)
            if rid is None:
                rid = reg_ids[ref] = len(reg_ids)
            dst_row.append((rid, _POOL_INDEX[ref.file], ref.file is acc_file))
        dsts_rows.append(tuple(dst_row))

        oid = opcode_table.get(instr.opcode)
        if oid is None:
            oid = opcode_table[instr.opcode] = len(opcodes)
            opcodes.append(instr.opcode)
        opcode_ids.append(oid)

    lowered = LoweredTrace(
        name=trace.name,
        isa=trace.isa,
        num_instructions=len(shape_ids),
        total_ops=total_ops,
        num_regs=len(reg_ids),
        shapes=shapes,
        shape_ids=shape_ids,
        srcs=srcs_rows,
        dsts=dsts_rows,
        opcodes=opcodes,
        opcode_ids=opcode_ids,
    )
    _notify_lowered(lowered)
    return lowered
