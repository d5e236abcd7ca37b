#!/usr/bin/env python3
"""One measured process of the sweep benchmark (started by ``run.py``).

Batch workloads (``paper-cold``, ``paper-pool``, ``dse-wide``): import the
system, build the engine, print ``READY`` (the parent times spawn-to-ready
as set-up), then run whole sweeps for ``--seconds`` and check every point.

``service-mixed``: drive a freshly started ``repro serve`` at ``--url``
with a closed loop of two ``ServiceClient`` callers, through the jobs of
iteration ``--iteration`` of the seed's job stream.

``--setup-only`` stops after ``READY``; the line carries the import times.
Results go to ``--out`` as JSON; nothing but ``READY`` goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import threading
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
now = time.perf_counter

#: The reference loop: fixed pure-Python work that touches no ``repro``
#: code.  On an unloaded 2.0 GHz Xeon VM it takes about REF_NOMINAL_S.
REF_ITERS = 50_000
REF_NOMINAL_S = 0.006
#: Host speed is re-measured this often (seconds of wall time).
REF_INTERVAL_S = 0.25


def reference_loop(clock=now) -> float:
    """Run the reference loop once; its time in seconds on ``clock``."""
    started = clock()
    acc = 0
    table: Dict[int, int] = {}
    for i in range(REF_ITERS):
        table[i & 255] = acc
        acc = (acc * 31 + i) & 0xFFFF
    return clock() - started


class HostClock:
    """Elapsed time in reference-host seconds.

    Shared hosts drift in speed by tens of percent over minutes, and that
    drift swamps a commit-to-commit comparison.  This clock advances at
    ``REF_NOMINAL_S / t_ref`` per wall second, where ``t_ref`` is the
    median of the last three timings of :func:`reference_loop`, re-taken
    about every ``REF_INTERVAL_S`` by ``read(sample=True)``.  Callers
    sample only where no part of the system is running, and the clock
    stops while the loop runs, so neither the system's own load nor the
    loop's time enters the measurement.  ``wall`` keeps plain wall time.
    """

    def __init__(self) -> None:
        self.samples = [reference_loop() for _ in range(3)]
        self.factor = self._factor()
        self.elapsed = 0.0
        self.wall = 0.0
        self.last = now()
        self.due = self.last + REF_INTERVAL_S

    def _factor(self) -> float:
        return REF_NOMINAL_S / sorted(self.samples[-3:])[1]

    def read(self, sample: bool = False) -> float:
        """Reference-host seconds so far; ``sample`` may re-measure."""
        t = now()
        self.elapsed += (t - self.last) * self.factor
        self.wall += t - self.last
        self.last = t
        if sample and t >= self.due:
            self.samples.append(reference_loop())
            self.factor = self._factor()
            self.last = now()
            self.due = self.last + REF_INTERVAL_S
        return self.elapsed


class SampledClock:
    """Reference-host seconds of intervals timed in another process.

    ``samples`` are ``(start, end, t_ref)`` of reference loops that
    ``clocked_serve.py`` ran in the server's runner thread: the loop's
    start and end on ``time.perf_counter`` (one clock for every process of
    the host) and its thread CPU time.  After a loop ends, time runs at
    ``REF_NOMINAL_S / t_ref`` per wall second, ``t_ref`` being the median
    of that loop and the two before it; before the first loop, at the
    first loop's rate.  The loops' own time does not count, as in
    :class:`HostClock`.
    """

    def __init__(self, samples: List[List[float]]) -> None:
        s = sorted(samples)
        rates = [REF_NOMINAL_S / statistics.median(
            x[2] for x in s[max(0, i - 2):i + 1]) for i in range(len(s))]
        self.segments = [(-math.inf, s[0][0], rates[0])] + [
            (s[i][1], s[i + 1][0] if i + 1 < len(s) else math.inf, rates[i])
            for i in range(len(s))]

    def between(self, t0: float, t1: float) -> float:
        return sum(max(0.0, min(t1, hi) - max(t0, lo)) * rate
                   for lo, hi, rate in self.segments)


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--traced", action="store_true")
    p.add_argument("--spans", default=None,
                   help="span file (and spill directory) of a traced pass")
    p.add_argument("--url", default=None)
    p.add_argument("--iteration", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    t0 = now()
    import numpy
    t1 = now()
    if args.workload == "service-mixed":
        # What `python -m repro serve` imports before it can serve.
        import repro.cli  # noqa: F401
        import repro.sweep.service  # noqa: F401
        engine = None
    else:
        from repro.sweep import SweepEngine
        engine = SweepEngine(jobs=2 if args.workload == "paper-pool" else 1)
    t2 = now()
    print("READY " + json.dumps({"import.numpy_s": t1 - t0,
                                 "import.repro_s": t2 - t1}), flush=True)
    if args.setup_only:
        return 0

    sys.path.insert(0, HERE)
    import probes as pr
    import workloads as wl

    tracer = probes = None
    if args.traced:
        tracer = pr.Tracer(spill_dir=os.path.dirname(args.spans))
        probes = pr.Probes(tracer)
        if engine is None:
            probes.install_client_side()
        else:
            probes.install_engine_side()
            # A fresh engine, so construction-time wrapping (result store)
            # applies exactly as it would to a user's engine.
            engine = type(engine)(jobs=engine.jobs)
    checker = Checker(wl, args.workload)
    try:
        if engine is None:
            out = run_service(wl, args, checker)
        else:
            out = run_batch(wl, args, engine, checker)
    finally:
        if tracer is not None:
            tracer.dump(args.spans)
            probes.uninstall()
    out.update(checker.report(), numpy_version=numpy.__version__,
               absent_probes=probes.absent if probes else {})
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(out, f)
    return 0


class Checker:
    """Per-point correctness: flags, pinned digests, the golden snapshot."""

    MAX_ERRORS = 20

    def __init__(self, wl, workload: str) -> None:
        self.wl = wl
        self.table = "dse" if workload == "dse-wide" else "default"
        self.digests = wl.Digests()
        self.golden = self._golden() if workload.startswith("paper") else None
        self.rows: Dict[str, str] = {}
        self.errors: List[str] = []
        self.golden_checked = 0
        self._lock = threading.Lock()

    @staticmethod
    def _golden() -> Optional[Dict[str, Any]]:
        root = os.path.dirname(HERE)
        path = os.path.join(root, "tests", "golden", "way4_lat1.json")
        try:
            with open(path, "r", encoding="utf-8") as f:
                data = json.load(f)
        except FileNotFoundError:
            return None
        if data.get("config") != "way4" or data.get("mem_latency") != 1:
            return None
        data.setdefault("seed", 1999)
        return data

    def check(self, kernel: str, isa: str, way: int, mem_latency: int,
              seed_value: int, sim: Dict[str, Any]) -> bool:
        wl = self.wl
        row = wl.canonical_row(kernel, isa, way, mem_latency, sim)
        label = f"{kernel}/{isa}/way{way}/m{mem_latency}/r{seed_value}"
        expected = self.digests.expected(self.table, seed_value, kernel, isa,
                                         way, mem_latency)
        error = None
        if expected is None:
            error = "no pinned digest"
        elif wl.row_digest(row) != expected:
            error = "result row differs from the pinned digest"
        elif (self.golden is not None and way == 4 and mem_latency == 1
              and seed_value == self.golden["seed"]):
            ref = self.golden["results"].get(f"{kernel}/{isa}")
            with self._lock:
                self.golden_checked += 1
            if ref is None or any(ref[k] != sim[k] for k in
                                  ("cycles", "instructions", "operations")):
                error = "differs from tests/golden/way4_lat1.json"
        with self._lock:
            self.rows.setdefault(f"{self.table}/{label}", row.decode())
        if error is not None:
            self.fail(f"{label}: {error}")
            return False
        return True

    def fail(self, message: str) -> None:
        with self._lock:
            if len(self.errors) < self.MAX_ERRORS:
                self.errors.append(message)

    def report(self) -> Dict[str, Any]:
        return {"rows": self.rows, "errors": self.errors,
                "golden_checked": self.golden_checked}


# ----------------------------------------------------------------------
# Batch workloads: whole sweeps on one in-process engine.

def run_batch(wl, args, engine, checker: Checker) -> Dict[str, Any]:
    if args.workload == "dse-wide":
        sweeps = wl.dse_sweeps(args.seed, *(
            (("motion1",), ((1, 1), (4, 16))) if args.tiny else ()))
    else:
        sweeps = wl.paper_sweeps(args.seed,
                                 ("comp", "h2v2") if args.tiny else None)

    def on_point(result) -> bool:
        p = result.point
        if not result.ok:
            checker.fail(f"{p.label()}: {result.failure.error_type}: "
                         f"{result.failure.message}")
            return False
        if not result.correct:
            checker.fail(f"{p.label()}: build output is incorrect")
            return False
        return checker.check(p.kernel, p.isa, p.config.issue_width,
                             p.config.mem_latency, p.spec.seed,
                             wl.sim_fields(result.sim))

    pool = {"tasks": 0, "retries": 0, "restarts": 0, "fallbacks": 0}
    points = failed = 0
    job_times: List[float] = []
    raw_job_times: List[float] = []
    first_times: List[float] = []
    # Host speed is re-measured only while nothing runs: between two
    # results of a serial sweep, and between sweeps for the pool (whose
    # children work on while the parent handles a result).
    serial = engine.jobs == 1
    clock = HostClock()
    deadline = now() + args.seconds
    last = raw_last = 0.0
    # Sweeps always run whole (a cut sweep would skew per-point counts);
    # after the first whole iteration, none starts past the deadline.
    while not (job_times and now() >= deadline):
        iteration, raw_iteration = clock.read(), clock.wall
        for sweep in sweeps:
            if job_times and now() >= deadline:
                break
            begun = clock.read(sample=True)
            for result in engine.iter_results(sweep):
                t = clock.read(sample=serial)
                if last < begun:
                    first_times.append(t - begun)
                last, raw_last = t, clock.wall
                points += 1
                failed += not on_point(result)
            pool["tasks"] += engine.last_pool_tasks
            pool["retries"] += engine.last_retries
            pool["restarts"] += engine.last_pool_restarts
            pool["fallbacks"] += engine.last_fallback_reason is not None
        else:
            job_times.append(clock.read() - iteration)
            raw_job_times.append(clock.wall - raw_iteration)
    return {"attempted": points, "failed": failed, "points": points,
            "elapsed": last, "raw_elapsed": raw_last,
            "job_times": job_times, "raw_job_times": raw_job_times,
            "first_times": first_times, "pool": pool,
            "ref_loops": clock.samples}


# ----------------------------------------------------------------------
# service-mixed: a closed loop of two callers against `repro serve`.

CALLERS = 2
#: Jobs of one tiny (self-test) service iteration.
TINY_ITERATION_JOBS = 4


def run_service(wl, args, checker: Checker) -> Dict[str, Any]:
    from repro.sweep.client import ServiceClient

    client = ServiceClient(args.url, timeout=60.0)
    lock = threading.Lock()
    # One iteration is one fresh server and one full set of job shapes.
    # Every iteration starts from an empty store, so each does the same
    # kind of work however fast the host is, and the store's hit ratio does
    # not grow with the number of jobs a run gets through.
    size = TINY_ITERATION_JOBS if args.tiny else len(wl.SERVICE_SHAPES)
    state = {"next": args.iteration * size}
    stop = state["next"] + size
    jobs: List[Dict[str, Any]] = []
    # The service is timed by the wall clock.  Its time goes to HTTP
    # round trips, thread wake-ups and file operations, whose cost on a
    # shared host varies independently of the reference loop's, so
    # scaling by that loop made its timings noisier, not steadier.
    start = now()

    def one_job(index: int) -> Dict[str, Any]:
        submission = wl.service_job(args.seed, index, tiny=args.tiny)
        record: Dict[str, Any] = {"index": index, "ok": False}
        t0 = now()
        job, created = client.submit(submission)
        first = None
        final = None
        for event in client.watch(job["id"], poll_timeout=10.0):
            if "key" not in event:
                final = event["job"]
                break
            if first is None:
                first = now() - t0
        payload = client.fetch(job["id"])
        t1 = now()
        record.update(latency=t1 - t0,
                      first=first if first is not None else t1 - t0)
        # Absolute times, so run.py can re-time the job on the server's
        # host clock.
        record["marks"] = [t0, t0 + record["first"], t1]
        job = payload["job"]
        if final is None or final["status"] != "done" \
                or job["status"] != "done":
            checker.fail(f"job {index}: ended {job['status']}: "
                         f"{job.get('error')}")
            return record
        if created and job.get("started_at") and job.get("finished_at"):
            record["queue_wait"] = job["started_at"] - job["created_at"]
            record["run"] = job["finished_at"] - job["started_at"]
        telemetry = job.get("telemetry") or {}
        record["retries"] = telemetry.get("retries", 0)
        record["restarts"] = telemetry.get("pool_restarts", 0)
        results = payload["results"]
        ok = not payload["failures"] and len(results) == job["total"]
        if not ok:
            checker.fail(f"job {index}: {len(payload['failures'])} failed "
                         f"of {job['total']} point(s)")
        for r in results:
            sim = r.get("sim")
            if not r.get("checked") or sim is None:
                checker.fail(f"job {index}: {r.get('kernel')}/{r.get('isa')}"
                             f" unchecked or without numbers")
                ok = False
                continue
            ok &= checker.check(r["kernel"], r["isa"], sim["issue_width"],
                                r["mem_latency"], submission["seed"], sim)
        record.update(ok=ok, points=len(results), end=t1)
        return record

    def caller() -> None:
        while True:
            with lock:
                if state["next"] >= stop:
                    return
                index = state["next"]
                state["next"] += 1
            try:
                record = one_job(index)
            except Exception as exc:  # noqa: BLE001 - one job's failure
                # is a failed job, never a dead caller.
                checker.fail(f"job {index}: {type(exc).__name__}: {exc}")
                record = {"index": index, "ok": False}
            with lock:
                jobs.append(record)

    threads = [threading.Thread(target=caller, name=f"caller-{i}")
               for i in range(CALLERS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    done = [j for j in jobs if j["ok"]]
    ends = [j["end"] for j in done]
    return {
        "attempted": len(jobs),
        "failed": len(jobs) - len(done),
        "points": sum(j["points"] for j in done),
        "elapsed": (max(ends) if ends else now()) - start,
        "job_times": [j["latency"] for j in done],
        "first_times": [j["first"] for j in done],
        "queue_waits": [j["queue_wait"] for j in done if "queue_wait" in j],
        "run_times": [j["run"] for j in done if "run" in j],
        "pool": {"tasks": 0,
                 "retries": sum(j.get("retries", 0) for j in done),
                 "restarts": sum(j.get("restarts", 0) for j in done),
                 "fallbacks": 0},
        "jobs": len(jobs),
        "start": start,
        "job_marks": [j["marks"] for j in done],
    }


if __name__ == "__main__":
    raise SystemExit(main())
