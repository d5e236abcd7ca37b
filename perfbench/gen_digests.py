#!/usr/bin/env python3
"""Regenerate ``digests.json``: the pinned result rows of every point the
benchmark can simulate, computed with the ``object`` reference backend.

Run from the repository root (a few minutes):

    PYTHONPATH=src REPRO_CALIBRATION=off python3 perfbench/gen_digests.py

Only regenerate when a change is supposed to move simulated numbers (a
``MODEL_VERSION`` or ``BUILDER_VERSION`` bump); otherwise a digest mismatch
is the benchmark catching a wrong result.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.sweep import SweepEngine  # noqa: E402
from repro.timing.core import MODEL_VERSION  # noqa: E402

import workloads as wl  # noqa: E402


def main() -> int:
    engine = SweepEngine(backend="object")
    tables = {}
    for table, configs in wl.TABLE_CONFIGS.items():
        tables[table] = {}
        for seed_value in wl.SPEC_SEEDS:
            points = wl.grid(table, seed_value, wl.TABLE_KERNELS[table],
                             configs)
            rows = {}
            for point, result in zip(points, engine.run(points)):
                if not result.correct:
                    raise SystemExit(f"{point.label()}: build is incorrect")
                rows.setdefault(f"{point.kernel}/{point.isa}", []).append(
                    wl.row_digest(wl.point_row(point, result.sim)))
            tables[table][str(seed_value)] = rows
            print(f"{table} seed {seed_value}: {len(points)} points",
                  flush=True)
    payload = {"backend": "object", "model_version": MODEL_VERSION,
               "digest": f"sha256[:{wl.DIGEST_HEX}] of workloads.canonical_row",
               "configs": {t: [list(c) for c in cs]
                           for t, cs in wl.TABLE_CONFIGS.items()},
               "tables": tables}
    with open(wl.DIGESTS_PATH, "w", encoding="utf-8") as f:
        json.dump(payload, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
