"""Backend selection for batch simulation: lowered / object.

The timing package has two executions of the same interval model:

``lowered``
    :meth:`~repro.timing.core.OutOfOrderCore.run_lowered` — the flat-array
    interpreter, the fast path and the default.
``object``
    :meth:`~repro.timing.core.OutOfOrderCore.run` — the readable reference
    loop over :class:`~repro.trace.instruction.DynInstr` objects.

Both are bit-identical (pinned by the golden snapshots and the equivalence
suites), so picking one is purely a performance decision.
:func:`simulate_batch` is that decision point: the sweep engine routes
every trace-sharing group of configurations through it, and the CLI's
``--backend`` flag plumbs down to the ``backend`` argument.
"""

from __future__ import annotations

from typing import List, Sequence, Union

from repro.timing.config import MachineConfig
from repro.timing.core import OutOfOrderCore
from repro.timing.lowered import LoweredTrace
from repro.timing.results import SimResult

__all__ = ["BACKENDS", "simulate_batch"]

#: Selectable timing backends; the first is the default.
BACKENDS = ("lowered", "object")


def simulate_batch(trace: Union["Trace", LoweredTrace],
                   configs: Sequence[MachineConfig],
                   backend: str = "lowered",
                   record_timeline: bool = False) -> List[SimResult]:
    """Simulate ``trace`` under every configuration with one backend.

    Parameters
    ----------
    trace:
        A :class:`~repro.trace.container.Trace` (lowered on demand via its
        memoised :meth:`~repro.trace.container.Trace.lower`) or an
        already-compiled :class:`~repro.timing.lowered.LoweredTrace`.
        The ``object`` backend needs the original trace and raises
        ``TypeError`` when given only a lowering.
    configs:
        Machine configurations; one :class:`SimResult` per entry is
        returned, in order.  Duplicates are legal.
    backend:
        One of :data:`BACKENDS`; ``ValueError`` otherwise.  Results are
        identical across backends; only the wall time differs.
    record_timeline:
        Attach each result's per-instruction pipeline timeline as a
        ``timeline`` attribute (as the scalar cores expose on themselves).
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown timing backend {backend!r}; choose from {BACKENDS}")
    if backend == "object":
        if isinstance(trace, LoweredTrace):
            raise TypeError(
                "the object backend replays DynInstr objects and cannot "
                "run from a LoweredTrace; pass the original Trace")
        run, source = OutOfOrderCore.run, trace
    else:
        run = OutOfOrderCore.run_lowered
        source = trace if isinstance(trace, LoweredTrace) else trace.lower()
    results = []
    for config in configs:
        core = OutOfOrderCore(config)
        result = run(core, source, record_timeline=record_timeline)
        if record_timeline:
            result.timeline = core.timeline
        results.append(result)
    return results
