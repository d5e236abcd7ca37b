#!/usr/bin/env python3
"""Fast self-test of the sweep benchmark (about a minute).

    python3 perfbench/selftest.py

Runs every workload at tiny sizes, untraced and traced, and checks that
each run is correct and emits exactly the metrics ``BENCHMARK.json`` names,
with their units.  Then checks that the benchmark refuses to run, without
printing a result, from a directory holding only ``BENCHMARK.json`` and
``perfbench/``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(root: str, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           *argv], cwd=root, capture_output=True, text=True,
                          timeout=170)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as f:
        spec = json.load(f)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            done = run(ROOT, "--workload", workload, "--seed", "3",
                       "--seconds", "1", "--trace", str(trace), "--tiny")
            label = f"{workload} --trace {trace}"
            try:
                result = json.loads(done.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                problems.append(f"{label}: exit {done.returncode}, no "
                                f"result line\n{done.stderr[-1500:]}")
                continue
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                problems.append(f"{label}: keys {sorted(result)}")
            if got != want:
                problems.append(f"{label}: metrics {got} != {want}")
            if not (result["correct"] and done.returncode == 0
                    and result["attempted"] >= 1 and result["failed"] == 0):
                problems.append(f"{label}: incorrect run\n{done.stdout}")
            if not all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values()):
                problems.append(f"{label}: non-numeric metric value")
            print(f"ok  {label}: {result['attempted']} attempted",
                  flush=True)

    scratch = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, "--workload", "paper-cold", "--seed", "0",
                   "--seconds", "1", "--trace", "0")
        if done.returncode == 0 or done.stdout.strip():
            problems.append("without src/ the benchmark must fail "
                            "without a result")
        else:
            print("ok  refuses to run without the system under test")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
