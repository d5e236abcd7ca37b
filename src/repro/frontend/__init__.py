"""Functional front end: machine state plus per-ISA instruction builders.

Kernels are written against the builder APIs (:class:`ScalarBuilder`,
:class:`MMXBuilder`, :class:`MDMXBuilder`, :class:`MOMBuilder`).  Every
builder call executes the instruction's semantics immediately against the
shared :class:`FunctionalMachine` (so kernel outputs can be checked against
NumPy golden references) *and* records the dynamic instruction for the
timing model — by default into the zero-object column recorder
(:mod:`repro.trace.columns`), whose flat arrays the lowered timing backend
adopts directly.  This mirrors the paper's methodology of emulation
libraries whose calls are later collapsed into single simulated
instructions.
"""

from repro.frontend.machine import FunctionalMachine, Memory
from repro.frontend.scalar_builder import ScalarBuilder
from repro.frontend.simd_builder import MMXBuilder, MDMXBuilder
from repro.frontend.mom_builder import MOMBuilder
from repro.frontend import builders

__all__ = [
    "FunctionalMachine",
    "Memory",
    "ScalarBuilder",
    "MMXBuilder",
    "MDMXBuilder",
    "MOMBuilder",
    "builders",
]
