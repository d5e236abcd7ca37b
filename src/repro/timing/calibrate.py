"""Startup micro-calibration of the vector backend's batch cut-over.

:data:`~repro.timing.vector.VECTOR_MIN_BATCH` is a constant measured on one
development machine: the batch size at which the NumPy array program
(:func:`~repro.timing.vector.run_lowered_batch`) starts beating a loop of
the per-config lowered interpreter.  The real cut-over moves with NumPy
dispatch overhead, CPU speed and allocator behaviour, so ``repro
calibrate`` measures it *on the machine at hand*: it times loop-vs-vector
on a synthetic trace across a ladder of batch sizes, picks the smallest
size from which the array program stays ahead, and persists the result as
a small JSON file.  :func:`~repro.timing.vector.effective_min_batch` (and
through it :func:`~repro.timing.dispatch.resolve_execution`'s ``auto``
rule) reads the persisted value lazily on first use; the constant remains
the fallback whenever no calibration exists.

The calibration file lives at ``~/.cache/repro/calibration.json`` by
default; the ``REPRO_CALIBRATION`` environment variable overrides the
path, and setting it to the empty string or ``off`` disables reading (the
test suite does this so routing assertions stay hermetic).  Stale or
malformed files are ignored, never an error — exactly the result cache's
tolerance rules.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.common.atomicio import atomic_write_json

__all__ = ["CALIBRATION_ENV", "CALIBRATION_FORMAT", "DEFAULT_BATCH_LADDER",
           "calibration_path", "load_calibration", "measure_vector_cutover",
           "save_calibration", "synthetic_trace"]

#: Version of the calibration file layout; readers ignore other formats.
CALIBRATION_FORMAT = 1

#: Environment variable overriding the calibration file path ("" / "off"
#: disables reading altogether).
CALIBRATION_ENV = "REPRO_CALIBRATION"

#: Batch sizes the measurement ladder climbs (bracketing the constant's
#: 64 from well below to well above).
DEFAULT_BATCH_LADDER = (8, 16, 24, 32, 48, 64, 96, 128, 192)

#: Sanity clamp for persisted cut-overs: anything outside is ignored.
_MIN_SANE, _MAX_SANE = 2, 1 << 20


def calibration_path(path: Optional[str] = None) -> Optional[str]:
    """Resolve the calibration file path (None = reading disabled)."""
    if path is not None:
        return os.fspath(path)
    env = os.environ.get(CALIBRATION_ENV)
    if env is not None:
        if env.strip().lower() in ("", "off", "none", "0"):
            return None
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro",
                        "calibration.json")


def synthetic_trace(num_instructions: int = 1536):
    """A deterministic mixed-opclass trace for the timing measurement.

    Built through the real MMX builder so the instruction mix (scalar
    address arithmetic, packed ALU/multiply, multimedia loads/stores,
    branches) resembles the kernels the sweep engine actually routes —
    while depending on no kernel or workload data.
    """
    from repro.common.datatypes import S16, U8
    from repro.frontend.builders import make_builder

    b = make_builder("mmx", name="calibration")
    base = b.machine.memory.alloc(4096)
    b.li(1, base)
    b.li(2, 64)
    while len(b.trace) < num_instructions:
        b.addi(3, 1, 8)
        b.movq_ld(0, 3, 0, U8)
        b.movq_ld(1, 1, 8, U8)
        b.padd(2, 0, 1, U8, "sat")
        b.psub(3, 0, 1, U8, "wrap")
        b.pmull(4, 2, 3, S16)
        b.pmax(5, 2, 3, U8)
        b.movq_st(4, 1, 16, U8)
        b.ldbu(4, 1, 24)
        b.addi(4, 4, 1)
        b.stb(4, 1, 24)
        b.subi(2, 2, 1)
        b.branch(2, "bgt")
    return b.trace


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_vector_cutover(lowered=None,
                           batch_sizes: Sequence[int] = DEFAULT_BATCH_LADDER,
                           repeats: int = 3) -> Dict[str, Any]:
    """Time loop-vs-vector across ``batch_sizes`` and pick the cut-over.

    Returns a JSON-able report: per-size loop/vector wall times and the
    chosen ``vector_min_batch`` — the smallest ladder size from which the
    array program stays ahead for every larger measured size (so one noisy
    win cannot pull the cut-over down).  If the array program never wins
    within the ladder, the cut-over is pinned just above it.
    """
    from repro.timing.config import MachineConfig
    from repro.timing.vector import run_lowered_batch

    if lowered is None:
        lowered = synthetic_trace().lower()
    sizes = sorted(set(int(n) for n in batch_sizes))
    if not sizes or sizes[0] < 1:
        raise ValueError(f"batch sizes must be positive, got {batch_sizes}")
    configs = [MachineConfig.for_way(4, mem_latency=1 + (i % 4))
               for i in range(sizes[-1])]
    rows: List[Dict[str, Any]] = []
    for n in sizes:
        batch = configs[:n]
        loop_s = _best_of(
            lambda: run_lowered_batch(lowered, batch, force_vector=False),
            repeats)
        vector_s = _best_of(
            lambda: run_lowered_batch(lowered, batch, force_vector=True),
            repeats)
        rows.append({"batch": n, "loop_s": loop_s, "vector_s": vector_s,
                     "vector_wins": vector_s <= loop_s})
    cutover = 2 * sizes[-1]
    for i, row in enumerate(rows):
        if all(r["vector_wins"] for r in rows[i:]):
            cutover = row["batch"]
            break
    return {
        "vector_min_batch": cutover,
        "trace_instructions": lowered.num_instructions,
        "repeats": repeats,
        "measurements": rows,
    }


def save_calibration(result: Dict[str, Any],
                     path: Optional[str] = None) -> str:
    """Persist a :func:`measure_vector_cutover` report; returns the path.

    The write is atomic (tempfile + rename) and stamps the file format —
    readers on another format fall back to the constant.
    """
    target = calibration_path(path)
    if target is None:
        raise ValueError(
            f"calibration persistence is disabled ({CALIBRATION_ENV} is "
            f"off); pass an explicit path")
    entry = {
        "format": CALIBRATION_FORMAT,
        "created": time.time(),
        **result,
    }
    os.makedirs(os.path.dirname(target) or ".", exist_ok=True)
    atomic_write_json(target, entry, indent=2, sort_keys=True)
    return target


def load_calibration(path: Optional[str] = None) -> Optional[int]:
    """The persisted ``vector_min_batch``, or None.

    None for: reading disabled, file absent/unreadable, unknown format, or
    a value outside the sanity clamp — all of which leave the caller on
    the measured constant.
    """
    target = calibration_path(path)
    if target is None:
        return None
    try:
        with open(target, "r", encoding="utf-8") as f:
            entry = json.load(f)
        if entry.get("format") != CALIBRATION_FORMAT:
            return None
        value = int(entry["vector_min_batch"])
    except (OSError, ValueError, KeyError, TypeError):
        return None
    if not _MIN_SANE <= value <= _MAX_SANE:
        return None
    return value
