#!/usr/bin/env python3
"""``repro serve`` with the benchmark's layer probes installed.

Usage: ``traced_serve.py SPANS_FILE serve [repro serve flags...]``

Installs the engine-side probes, runs ``repro.cli.main`` with the given
arguments, and writes the server's spans to ``SPANS_FILE`` when it exits
(SIGTERM drains and returns normally).  Absent probes are written to
``SPANS_FILE.absent.json``.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import repro.cli

    import probes as pr

    tracer = pr.Tracer(spill_dir=os.path.dirname(spans_path))
    probes = pr.Probes(tracer).install_engine_side()
    try:
        return repro.cli.main(argv)
    finally:
        tracer.dump(spans_path)
        with open(spans_path + ".absent.json", "w", encoding="utf-8") as f:
            json.dump(probes.absent, f)


if __name__ == "__main__":
    raise SystemExit(main())
