"""Benchmark-harness configuration.

The benchmarks double as the regeneration harness for the paper's figures
and tables: each benchmark runs the corresponding experiment sweep once
(wall-clock time measured by pytest-benchmark is the simulator's own cost)
and prints the regenerated table at the end of the session.
"""

from __future__ import annotations

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

