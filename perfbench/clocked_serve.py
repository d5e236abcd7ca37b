#!/usr/bin/env python3
"""``repro serve`` with the benchmark's host clock sampled in its runner.

Usage: ``clocked_serve.py SAMPLES_FILE serve [repro serve flags...]``

Between two results of a sweep (``SweepEngine.iter_results``), about every
``worker.REF_INTERVAL_S``, the thread that runs the sweep runs the
reference loop of ``worker.py`` and records the loop's start and end and
its thread CPU time.  CPU time, because the server's request threads share
the interpreter lock: a loop timed by the wall clock would slow down with
the service's own request handling.  The samples are written to
SAMPLES_FILE as JSON when the server exits; ``run.py`` re-times the
callers' jobs on them (``worker.SampledClock``).  Without the hook no
samples are taken, and ``run.py`` keeps the wall clock.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    samples_path, argv = sys.argv[1], sys.argv[2:]
    import repro.cli

    import worker

    samples = []
    try:
        from repro.sweep.engine import SweepEngine
        inner_iter = SweepEngine.iter_results
    except (ImportError, AttributeError):
        inner_iter = None
    if inner_iter is not None:
        due = [0.0]

        def iter_results(engine, *args, **kwargs):
            inner = inner_iter(engine, *args, **kwargs)
            try:
                while True:
                    started = time.perf_counter()
                    if started >= due[0]:
                        cpu = worker.reference_loop(time.thread_time)
                        ended = time.perf_counter()
                        samples.append((started, ended, cpu))
                        due[0] = ended + worker.REF_INTERVAL_S
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    yield item
            finally:
                inner.close()

        SweepEngine.iter_results = iter_results
    try:
        return repro.cli.main(argv)
    finally:
        with open(samples_path, "w", encoding="utf-8") as f:
            json.dump(samples, f)


if __name__ == "__main__":
    raise SystemExit(main())
