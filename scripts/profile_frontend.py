#!/usr/bin/env python
"""Profile one cold grid build of the functional front end.

Runs the full kernel x ISA grid exactly the way a cold sweep does —
``run_variant`` (functional execution + emission) followed by ``lower()``
— under :mod:`cProfile`, and prints the top-N
functions by cumulative time.  This is the ladder-work tool: after each
front-end optimisation, re-run it to see where the next bottleneck lands.

Usage::

    PYTHONPATH=src python scripts/profile_frontend.py [-n TOP] [--sort KEY]
        [--kernel NAME] [--isa NAME] [--callers PATTERN] [-o FILE]

``--callers PATTERN`` additionally prints who calls the functions matching
``PATTERN`` (a pstats regex), which is usually the question one actually
has.  ``-o FILE`` dumps raw stats for ``snakeviz``/``pstats`` post-mortems.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time


def build_grid(kernels, isas) -> tuple[int, int]:
    """One cold build of the grid: emit + lower per point."""
    from repro.kernels.registry import KERNELS

    points = 0
    instructions = 0
    for kernel_name in kernels:
        kernel = KERNELS[kernel_name]
        for isa in isas:
            result = kernel.run_variant(isa)
            result.trace.lower()
            points += 1
            instructions += len(result.trace)
    return points, instructions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-n", "--top", type=int, default=25,
                        help="number of functions to print (default 25)")
    parser.add_argument("--sort", default="cumulative",
                        choices=sorted(pstats.SortKey.__members__.values(),
                                       key=str),
                        help="pstats sort key (default cumulative)")
    parser.add_argument("--kernel", action="append", default=None,
                        help="restrict to one kernel (repeatable)")
    parser.add_argument("--isa", action="append", default=None,
                        help="restrict to one ISA (repeatable)")
    parser.add_argument("--callers", default=None, metavar="PATTERN",
                        help="also print callers of functions matching this "
                             "pstats regex")
    parser.add_argument("-o", "--output", default=None, metavar="FILE",
                        help="dump raw profile stats to FILE")
    args = parser.parse_args(argv)

    from repro.kernels.base import ISA_VARIANTS
    from repro.kernels.registry import KERNELS

    kernels = args.kernel or list(KERNELS)
    isas = args.isa or list(ISA_VARIANTS)
    for name in kernels:
        if name not in KERNELS:
            parser.error(f"unknown kernel {name!r} (have {sorted(KERNELS)})")
    for isa in isas:
        if isa not in ISA_VARIANTS:
            parser.error(f"unknown ISA {isa!r} (have {list(ISA_VARIANTS)})")

    # Warm-up outside the profile: imports, NumPy first-call setup.
    build_grid(kernels[:1], isas[:1])

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    points, instructions = build_grid(kernels, isas)
    profiler.disable()
    elapsed = time.perf_counter() - start

    print(f"cold grid build: {points} points, {instructions} instructions "
          f"in {elapsed * 1e3:.1f} ms "
          f"({instructions / elapsed:,.0f} instr/s)\n")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort)
    stats.print_stats(args.top)
    if args.callers:
        stats.print_callers(args.callers)
    if args.output:
        stats.dump_stats(args.output)
        print(f"raw stats written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
