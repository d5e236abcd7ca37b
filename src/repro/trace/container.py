"""Trace container: the in-memory instruction sequence of one kernel run.

A trace has two interchangeable storages:

``column mode`` (the builders' default)
    Instructions live in a :class:`~repro.trace.columns.TraceColumns`
    recorder — flat id columns in the lowered-array layout, with whole
    records interned into a pool.  :meth:`lower` is a zero-copy adoption,
    and :class:`~repro.trace.instruction.DynInstr` objects are only
    materialised when someone iterates the trace.

``object mode``
    A plain list of :class:`DynInstr` — what :meth:`append` /
    :meth:`extend` build, and what any column trace degrades to on
    mutation.  The readable reference path.

Both modes yield equal instruction sequences and structurally identical
lowerings; ``tests/trace/test_columns.py`` pins the equivalence on the
full kernel x ISA grid.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional

from repro.isa.opclasses import OpClass
from repro.trace.columns import TraceColumns
from repro.trace.instruction import DynInstr

__all__ = ["Trace"]


class Trace:
    """An ordered sequence of dynamic instructions emitted by one kernel run.

    The container is append-only; the timing model iterates it in program
    order (the front end of the simulated core is a perfect trace fetcher).

    ``columns=True`` (the default) lets the builders' :meth:`emit` calls
    record into flat columns with no per-instruction objects; ``False``
    forces the object emission path (used by the front-end benchmarks to
    measure the column path's speedup).  Traces built via :meth:`append` /
    :meth:`extend` are object-mode either way.
    """

    def __init__(self, name: str = "", isa: str = "",
                 columns: bool = True) -> None:
        self.name = name
        self.isa = isa
        # Exactly one storage is authoritative: ``_columns`` when set and
        # ``_instrs`` is None or a consistent materialisation; the object
        # list otherwise.  ``_instrs is None`` marks "column mode, not
        # materialised yet".
        self._instrs: Optional[List[DynInstr]] = None if columns else []
        self._columns: Optional[TraceColumns] = None
        # Memoised flat-array compilation (see lower()); invalidated by any
        # mutation so a stale lowering can never be simulated.
        self._lowered = None

    # ------------------------------------------------------------------
    # storage plumbing
    # ------------------------------------------------------------------

    def _materialized(self) -> List[DynInstr]:
        """The instruction objects, building them from columns on demand."""
        if self._instrs is None:
            self._instrs = (self._columns.materialize(self.isa)
                            if self._columns is not None else [])
        return self._instrs

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def emit(self, opcode: str, opclass: OpClass, srcs: tuple, dsts: tuple,
             ops: int = 1, vlx: int = 1, vly: int = 1,
             is_vector: bool = False, non_pipelined: bool = False,
             isa: Optional[str] = None) -> None:
        """Record one instruction from its fields (the builders' hot path).

        A fresh default trace records into columns — no ``DynInstr`` is
        constructed.  A trace that already holds instruction objects
        (``columns=False``, or built via :meth:`append`) constructs and
        appends one, keeping the object path available for comparison and
        for hand-built traces.

        ``isa`` stamps the emitted instruction and defaults to the trace's
        own; columns store one ISA per trace, so an emission under a
        *different* ISA tag (not something any builder does) degrades the
        trace to object mode.
        """
        if isa is None:
            isa = self.isa
        cols = self._columns
        if cols is None and self._instrs is None:
            cols = self._columns = TraceColumns()
        if cols is not None and isa == self.isa:
            cols.emit(opcode, opclass, srcs, dsts, ops, vlx, vly,
                      is_vector, non_pipelined)
            # Any earlier materialisation no longer covers this emission.
            self._instrs = None
        else:
            instrs = self._materialized()
            self._columns = None
            instrs.append(DynInstr(
                opcode=opcode, opclass=opclass, isa=isa,
                srcs=tuple(srcs), dsts=tuple(dsts), ops=ops, vlx=vlx,
                vly=vly, is_vector=is_vector, non_pipelined=non_pipelined))
        self._lowered = None

    def append(self, instr: DynInstr) -> None:
        """Append one instruction object (degrades a column trace to
        object mode; an adopted lowering keeps its pre-mutation content)."""
        instrs = self._materialized()
        instrs.append(instr)
        self._columns = None
        self._lowered = None

    def extend(self, instrs: Iterable[DynInstr]) -> None:
        existing = self._materialized()
        existing.extend(instrs)
        self._columns = None
        self._lowered = None

    def replicate_tail(self, start: int, times: int) -> None:
        """Append ``times`` copies of everything recorded from ``start`` on.

        The block-emission primitive behind the builders'
        :meth:`~repro.frontend.scalar_builder.ScalarBuilder.unroll`: a
        column-mode trace replicates in a few list extensions; an
        object-mode trace re-appends the slice (``DynInstr`` records are
        immutable, so sharing the objects is safe).
        """
        if times <= 0 or start >= len(self):
            return
        if self._columns is not None:
            self._columns.replicate_tail(start, times)
            # Any earlier materialisation no longer covers the new rows.
            self._instrs = None
        else:
            instrs = self._materialized()
            tail = instrs[start:]
            for _ in range(times):
                instrs.extend(tail)
        self._lowered = None

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        if self._instrs is not None:
            return len(self._instrs)
        return len(self._columns) if self._columns is not None else 0

    def __iter__(self) -> Iterator[DynInstr]:
        return iter(self._materialized())

    def __getitem__(self, index):
        return self._materialized()[index]

    @property
    def instructions(self) -> List[DynInstr]:
        return self._materialized()

    @property
    def columns(self) -> Optional[TraceColumns]:
        """The live column recorder, or None for object-mode traces."""
        return self._columns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trace(name={self.name!r}, isa={self.isa!r}, n={len(self)})"

    # ------------------------------------------------------------------
    # lowering
    # ------------------------------------------------------------------

    def lower(self):
        """The trace compiled to flat arrays for the fast timing backend.

        Returns the :class:`~repro.timing.lowered.LoweredTrace` of this
        trace, computing it on first call and memoising it afterwards (the
        sweep engine simulates every machine configuration sharing a trace
        off one lowering).  A column-mode trace *adopts* its columns —
        they are already in the lowered layout, so no per-instruction pass
        runs at all.  Mutating the trace (:meth:`append` / :meth:`extend` /
        :meth:`emit`) invalidates the memo; a previously returned lowering
        is never mutated (column adoption is copy-on-write).
        """
        if self._lowered is None:
            if self._columns is not None:
                self._lowered = self._columns.adopt_lowered(self.name,
                                                            self.isa)
            else:
                # Imported here: the timing package imports this module.
                from repro.timing.lowered import lower_trace

                self._lowered = lower_trace(self)
        return self._lowered
