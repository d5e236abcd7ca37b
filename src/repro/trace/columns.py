"""Column-major trace recording: the builders' zero-object emission path.

The object emission path appends one frozen-dataclass
:class:`~repro.trace.instruction.DynInstr` per emitted instruction, and a
cold sweep then pays again to undo that choice: ``lower_trace``
re-interns every operand into the flat arrays the lowered timing backend
executes.  Both passes walk the same data.

:class:`TraceColumns` does the interning **once, at emission time**.  Every
``emit`` call is folded into a *record pool*: the full per-instruction
record — opcode, opclass, operand references, vector lengths, flags — is
interned into a dict (kernels are loops, so a trace of thousands of dynamic
instructions reuses a few hundred distinct records), and the recorder keeps

* the sequence of pool row ids,
* the per-row *lowered* encoding — shape id, dense source register ids and
  ``(reg, pool, is_acc)`` destination triples, interned opcode id — built
  once when a row is first seen,
* growing per-instruction id columns in **the exact layout**
  :class:`~repro.timing.lowered.LoweredTrace` defines, so
  :meth:`adopt_lowered` hands the very same lists to the timing backend —
  a zero-copy adoption instead of a lowering pass.

Interning order is the crux of equivalence: rows are interned in
first-occurrence order over the dynamic sequence, and registers / shapes /
opcodes are interned when their row is first created, sources before
destinations — exactly the order ``lower_trace`` assigns ids in.  The
equivalence suite in ``tests/trace/test_columns.py`` pins column-built
traces to the object path on the full kernel x ISA grid.

:class:`~repro.trace.instruction.DynInstr` objects are only materialised
when someone *iterates* the trace (debugging, the object timing backend);
:meth:`materialize` builds one instruction per distinct row and shares it
across the sequence.

Everything here is import-light on purpose: the timing package imports
``repro.trace.container`` at startup, so the :class:`LoweredTrace` bridge
is imported lazily inside the methods that need it.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.isa.opclasses import OpClass, RegFile

__all__ = ["TraceColumns"]

#: Lazily-resolved {RegFile: rename-pool index} map (the authoritative
#: order lives in repro.timing.lowered.REG_POOL_ORDER; importing it at
#: module level would cycle through the timing package).
_POOL_INDEX: Optional[Dict[RegFile, int]] = None


def _pool_index() -> Dict[RegFile, int]:
    global _POOL_INDEX
    if _POOL_INDEX is None:
        from repro.timing.lowered import REG_POOL_ORDER

        _POOL_INDEX = {file: i for i, file in enumerate(REG_POOL_ORDER)}
    return _POOL_INDEX


class TraceColumns:
    """Growable flat columns recording one builder's emitted instructions.

    One instance backs one column-mode :class:`~repro.trace.container.Trace`.
    The per-instruction id columns (:attr:`shape_ids`, :attr:`srcs`,
    :attr:`dsts`, :attr:`opcode_ids`) are exactly the lists a
    :class:`~repro.timing.lowered.LoweredTrace` holds; adoption shares them
    instead of copying, and the copy-on-write guard below keeps an adopted
    lowering immutable if the builder keeps emitting afterwards.
    """

    __slots__ = ("_row_index", "_rows", "_row_cols", "_sequence",
                 "_shape_table", "_shapes", "_opcode_table", "_opcodes",
                 "_reg_ids", "shape_ids", "srcs", "dsts", "opcode_ids",
                 "total_ops", "_adopted")

    def __init__(self) -> None:
        # Record pool: full emit record -> row id, in first-occurrence order.
        self._row_index: Dict[tuple, int] = {}
        self._rows: List[tuple] = []
        # Per row id: (shape_id, src_reg_ids, dst_triples, opcode_id).
        self._row_cols: List[Tuple[int, Tuple[int, ...],
                                   Tuple[Tuple[int, int, bool], ...], int]] = []
        # Per instruction: row id into the record pool.
        self._sequence: List[int] = []
        # Interning tables, all in first-use order.
        self._shape_table: Dict[Tuple[OpClass, int, bool], int] = {}
        self._shapes: List[Tuple[OpClass, int, bool]] = []
        self._opcode_table: Dict[str, int] = {}
        self._opcodes: List[str] = []
        self._reg_ids: Dict[Any, int] = {}
        # Per instruction, in LoweredTrace's exact layout.
        self.shape_ids: List[int] = []
        self.srcs: List[Tuple[int, ...]] = []
        self.dsts: List[Tuple[Tuple[int, int, bool], ...]] = []
        self.opcode_ids: List[int] = []
        self.total_ops = 0
        # Set once a LoweredTrace shares the lists above; the next emit
        # replaces them with copies first (copy-on-write).
        self._adopted = False

    def __len__(self) -> int:
        return len(self._sequence)

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------

    def emit(self, opcode: str, opclass: OpClass, srcs: tuple, dsts: tuple,
             ops: int, vlx: int, vly: int, is_vector: bool,
             non_pipelined: bool) -> None:
        """Record one emitted instruction (the builders' hot path)."""
        key = (opcode, opclass, srcs, dsts, ops, vlx, vly, is_vector,
               non_pipelined)
        rid = self._row_index.get(key)
        if rid is None:
            rid = self._intern_row(key)
        if self._adopted:
            self._unshare()
        sid, src_row, dst_row, oid = self._row_cols[rid]
        self._sequence.append(rid)
        self.shape_ids.append(sid)
        self.srcs.append(src_row)
        self.dsts.append(dst_row)
        self.opcode_ids.append(oid)
        self.total_ops += ops

    def _intern_row(self, key: tuple) -> int:
        """First sighting of a record: intern everything it references."""
        opcode, opclass, srcs, dsts, ops, vlx, vly, is_vector, \
            non_pipelined = key
        shape = (opclass, vly, non_pipelined)
        sid = self._shape_table.get(shape)
        if sid is None:
            sid = self._shape_table[shape] = len(self._shapes)
            self._shapes.append(shape)
        reg_ids = self._reg_ids
        src_row = []
        for ref in srcs:
            rid_ = reg_ids.get(ref)
            if rid_ is None:
                rid_ = reg_ids[ref] = len(reg_ids)
            src_row.append(rid_)
        pool_index = _pool_index()
        acc_file = RegFile.ACC
        dst_row = []
        for ref in dsts:
            rid_ = reg_ids.get(ref)
            if rid_ is None:
                rid_ = reg_ids[ref] = len(reg_ids)
            dst_row.append((rid_, pool_index[ref.file], ref.file is acc_file))
        oid = self._opcode_table.get(opcode)
        if oid is None:
            oid = self._opcode_table[opcode] = len(self._opcodes)
            self._opcodes.append(opcode)
        rid = len(self._rows)
        self._row_index[key] = rid
        self._rows.append(key)
        self._row_cols.append((sid, tuple(src_row), tuple(dst_row), oid))
        return rid

    def _unshare(self) -> None:
        """Replace the lists an adopted LoweredTrace shares with copies, so
        continued emission can never mutate an already-returned lowering."""
        self.shape_ids = list(self.shape_ids)
        self.srcs = list(self.srcs)
        self.dsts = list(self.dsts)
        self.opcode_ids = list(self.opcode_ids)
        self._adopted = False

    def replicate_tail(self, start: int, times: int) -> None:
        """Append ``times`` copies of the rows recorded from ``start`` on.

        The block-emission primitive: a builder records one loop iteration
        through :meth:`emit`, then replicates its record block for the
        remaining iterations with a handful of list extensions instead of
        re-running the interning path per instruction.
        """
        if times <= 0 or start >= len(self._sequence):
            return
        if self._adopted:
            self._unshare()
        tail = self._sequence[start:]
        block = tail * times
        self._sequence.extend(block)
        self.shape_ids.extend(self.shape_ids[start:] * times)
        self.srcs.extend(self.srcs[start:] * times)
        self.dsts.extend(self.dsts[start:] * times)
        self.opcode_ids.extend(self.opcode_ids[start:] * times)
        rows = self._rows
        self.total_ops += times * sum(rows[rid][4] for rid in tail)

    # ------------------------------------------------------------------
    # lowered adoption
    # ------------------------------------------------------------------

    def adopt_lowered(self, name: str, isa: str):
        """The columns *as* a :class:`~repro.timing.lowered.LoweredTrace`.

        The per-instruction id columns are handed over by reference — this
        is the zero-copy replacement for running ``lower_trace`` over
        materialised objects, and it is structurally identical to doing so
        (same first-use interning order; the equivalence suite pins it).
        Fires the lowering hooks: this is the trace's one compilation
        event, exactly what ``lower_trace`` would have been.
        """
        from repro.timing.lowered import LoweredTrace, _notify_lowered

        lowered = LoweredTrace(
            name=name,
            isa=isa,
            num_instructions=len(self._sequence),
            total_ops=self.total_ops,
            num_regs=len(self._reg_ids),
            shapes=list(self._shapes),
            shape_ids=self.shape_ids,
            srcs=self.srcs,
            dsts=self.dsts,
            opcodes=list(self._opcodes),
            opcode_ids=self.opcode_ids,
        )
        self._adopted = True
        _notify_lowered(lowered)
        return lowered

    # ------------------------------------------------------------------
    # lazy object materialisation
    # ------------------------------------------------------------------

    def materialize(self, isa: str) -> list:
        """Build the :class:`~repro.trace.instruction.DynInstr` sequence.

        One instruction object per distinct record, shared across the
        dynamic sequence (instructions are frozen values).  Called lazily —
        only when someone actually iterates the trace.
        """
        from repro.trace.instruction import DynInstr

        instr_pool = [
            DynInstr(opcode=opcode, opclass=opclass, isa=isa,
                     srcs=srcs, dsts=dsts, ops=ops, vlx=vlx, vly=vly,
                     is_vector=is_vector, non_pipelined=non_pipelined)
            for (opcode, opclass, srcs, dsts, ops, vlx, vly, is_vector,
                 non_pipelined) in self._rows
        ]
        return [instr_pool[rid] for rid in self._sequence]

    # ------------------------------------------------------------------
    # column-native statistics
    # ------------------------------------------------------------------

    def summarize(self):
        """Per-trace :class:`~repro.trace.stats.TraceStats` from the columns.

        Each distinct record's contribution is computed once and weighted
        by its multiplicity in the sequence — equal to (and much cheaper
        than) the per-instruction pass over materialised objects.
        """
        from repro.trace.stats import TraceStats

        stats = TraceStats()
        if not self._sequence:
            return stats
        multiplicity = Counter(self._sequence)
        stats.num_instructions = len(self._sequence)
        for rid, count in multiplicity.items():
            (opcode, opclass, _srcs, _dsts, ops, vlx, vly, is_vector,
             _non_pipelined) = self._rows[rid]
            stats.num_operations += ops * count
            stats.opcode_histogram[opcode] += count
            stats.opclass_histogram[opclass] += count
            if opclass.is_memory:
                stats.num_memory_instructions += count
                if opclass.is_load:
                    stats.num_loads += count
                else:
                    stats.num_stores += count
            if opclass is OpClass.BRANCH:
                stats.num_branches += count
            if is_vector:
                stats.num_vector_instructions += count
                stats.sum_vlx += vlx * count
                stats.sum_vly += vly * count
        return stats
