#!/usr/bin/env python3
"""Sweep benchmark: end-to-end and per-layer metrics of the MOM reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload paper-cold --seed 0 --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload in four passes (plain, traced with the layer probes of
``probes.py``, traced, plain) and prints the per-layer split.  The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it are a readable table and a
``# record`` line (commit, versions, sample counts).  Workload and metric
names and units come from ``BENCHMARK.json``.  Spans and run records are
written under ``.perfbench_out/``.  See ``perfbench/README.md`` for the
workloads and metrics.

This script uses only the standard library: the system under test runs in
child processes (``worker.py``, ``repro serve``) started from ``src/``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import re
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import probes  # noqa: E402  (standard library only)
import worker  # noqa: E402  (only the standard library at import)

TRACE_PASSES = ("plain", "traced", "traced", "plain")
#: Set-up is measured this many times per run; the median is reported.
SETUP_SAMPLES = 8
#: Seconds a child may take beyond the measured window before the run
#: is abandoned (keeps every run inside the 180 s limit).
CHILD_SLACK_S = 100.0
READY_TIMEOUT_S = 60.0
FAULT_ENV = "REPRO_FAULT_INJECT"
CALIBRATION_ENV = "REPRO_CALIBRATION"


def load_spec() -> Tuple[List[str], Dict[str, str], Dict[str, str]]:
    """Workload names and the metric units of each mode, from
    ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as f:
        spec = json.load(f)
    return ([w["name"] for w in spec["workloads"]],
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class BenchError(RuntimeError):
    """The run could not produce a result (no JSON line is printed)."""


class _Terminated(BaseException):
    """SIGTERM to the benchmark: unwind so every child is stopped."""


# ----------------------------------------------------------------------
# Child processes.

class Children:
    """Every process the run starts; :meth:`stop_all` ends and reaps them."""

    def __init__(self, env: Dict[str, str], log_dir: str) -> None:
        self.env = env
        self.log_dir = log_dir
        self.procs: List[subprocess.Popen] = []

    def spawn(self, cmd: List[str], name: str) -> subprocess.Popen:
        log = open(os.path.join(self.log_dir, f"{name}.log"), "ab")
        try:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.PIPE, stderr=log)
        finally:
            log.close()
        proc.log_name = name  # type: ignore[attr-defined]
        self.procs.append(proc)
        return proc

    def log_tail(self, proc: subprocess.Popen, lines: int = 15) -> str:
        path = os.path.join(self.log_dir, f"{proc.log_name}.log")
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as f:
                return "".join(f.readlines()[-lines:])
        except OSError:
            return ""

    def read_line(self, proc: subprocess.Popen, timeout: float) -> str:
        """The child's next stdout line, or :class:`BenchError`."""
        ready, _, _ = select.select([proc.stdout], [], [], timeout)
        line = proc.stdout.readline().decode("utf-8", "replace") \
            if ready else ""
        if not line:
            raise BenchError(f"{proc.log_name} printed no ready line "
                             f"(exit {proc.poll()}):\n{self.log_tail(proc)}")
        return line.strip()

    def wait(self, proc: subprocess.Popen, timeout: float) -> None:
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{proc.log_name} ran over its time limit")
        proc.stdout.close()
        if code != 0:
            raise BenchError(f"{proc.log_name} exited {code}:\n"
                             f"{self.log_tail(proc)}")

    @staticmethod
    def stop(proc: subprocess.Popen) -> None:
        """SIGTERM (a server drains), then SIGKILL; always reaped."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.stdout is not None and not proc.stdout.closed:
            proc.stdout.close()

    def stop_all(self) -> None:
        for proc in self.procs:
            self.stop(proc)


def hermetic_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop(FAULT_ENV, None)
    # A persisted `repro calibrate` must not move the auto cut-over.
    env[CALIBRATION_ENV] = "off"
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # Byte code is cached under the output directory, never in src/, so
    # set-up measures what an installed package's import costs.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT_ROOT, "pycache")
    return env


# ----------------------------------------------------------------------
# Workload drivers.

def worker_cmd(args: argparse.Namespace, *extra: str) -> List[str]:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed)]
    return cmd + (["--tiny"] if args.tiny else []) + list(extra)


def setup_probe(kids: Children, args: argparse.Namespace,
                n: int) -> Tuple[float, Dict[str, float]]:
    """Spawn a fresh interpreter that only sets up; (seconds, imports)."""
    started = time.perf_counter()
    proc = kids.spawn(worker_cmd(args, "--setup-only"), f"setup-{n}")
    line = kids.read_line(proc, READY_TIMEOUT_S)
    elapsed = time.perf_counter() - started
    kids.wait(proc, READY_TIMEOUT_S)
    return elapsed, parse_ready(line)


def setup_sample(kids: Children, args: argparse.Namespace, tmp: str,
                 n: int) -> float:
    """One set-up time: a fresh worker interpreter, or a fresh server."""
    if args.workload == "service-mixed":
        proc, _url, took = start_server(kids, tmp, f"server-{n}")
        kids.stop(proc)
        return took
    return setup_probe(kids, args, n)[0]


def parse_ready(line: str) -> Dict[str, float]:
    if not line.startswith("READY "):
        raise BenchError(f"unexpected ready line: {line!r}")
    return json.loads(line[len("READY "):])


def batch_pass(kids: Children, args: argparse.Namespace, seconds: float,
               pass_dir: str, traced: bool) -> Tuple[Dict[str, Any], float]:
    out = os.path.join(pass_dir, "result.json")
    extra = ["--seconds", str(seconds), "--out", out]
    if traced:
        extra += ["--traced", "--spans", os.path.join(pass_dir,
                                                      "worker.jsonl")]
    started = time.perf_counter()
    proc = kids.spawn(worker_cmd(args, *extra),
                      "traced" if traced else "plain")
    parse_ready(kids.read_line(proc, READY_TIMEOUT_S))
    setup = time.perf_counter() - started
    kids.wait(proc, seconds + CHILD_SLACK_S)
    with open(out, "r", encoding="utf-8") as f:
        return json.load(f), setup


def start_server(kids: Children, tmp: str, name: str,
                 spans: Optional[str] = None, samples: Optional[str] = None
                 ) -> Tuple[subprocess.Popen, str, float]:
    """``repro serve --port 0`` on fresh dirs; (proc, url, spawn-to-ready).
    With ``spans`` the server runs with the layer probes, with ``samples``
    with the host clock (``clocked_serve.py``)."""
    state = tempfile.mkdtemp(prefix="state-", dir=tmp)
    cache = tempfile.mkdtemp(prefix="cache-", dir=tmp)
    flags = ["serve", "--port", "0", "--state-dir", state,
             "--cache-dir", cache]
    if spans:
        cmd = [sys.executable, os.path.join(HERE, "traced_serve.py"), spans]
    elif samples:
        cmd = [sys.executable, os.path.join(HERE, "clocked_serve.py"),
               samples]
    else:
        cmd = [sys.executable, "-m", "repro"]
    cmd += flags
    started = time.perf_counter()
    proc = kids.spawn(cmd, name)
    line = kids.read_line(proc, READY_TIMEOUT_S)
    match = re.search(r"listening on (http://\S+)", line)
    if match is None:
        raise BenchError(f"{name}: unexpected first line {line!r}")
    url = match.group(1)
    deadline = started + READY_TIMEOUT_S
    while True:
        try:
            with urllib.request.urlopen(url + "/readyz", timeout=5) as resp:
                if resp.status == 200:
                    break
        except (urllib.error.URLError, ConnectionError):
            pass
        if proc.poll() is not None or time.perf_counter() > deadline:
            raise BenchError(f"{name} never became ready:\n"
                             f"{kids.log_tail(proc)}")
        time.sleep(0.002)
    return proc, url, time.perf_counter() - started


def service_pass(kids: Children, args: argparse.Namespace, seconds: float,
                 pass_dir: str, tmp: str, traced: bool,
                 clocked: bool = False) -> Dict[str, Any]:
    """Whole service iterations, each on a fresh server, for about
    ``seconds``: after the first, one starts only while the time left
    covers at least half an iteration.  ``clocked`` re-times each
    iteration on the server's host clock (:func:`host_clock`)."""
    results = []
    started = time.perf_counter()
    while not results or (started + seconds - time.perf_counter() >= 0.5 * (
            time.perf_counter() - started) / len(results)):
        n = len(results)
        spans = (os.path.join(pass_dir, f"server-{n}.jsonl")
                 if traced else None)
        samples = (os.path.join(pass_dir, f"clock-{n}.json")
                   if clocked else None)
        proc, url, _took = start_server(
            kids, tmp, f"server-{os.path.basename(pass_dir)}-{n}", spans,
            samples)
        out = os.path.join(pass_dir, f"result-{n}.json")
        extra = ["--iteration", str(n), "--out", out, "--url", url]
        if traced:
            extra += ["--traced", "--spans",
                      os.path.join(pass_dir, f"client-{n}.jsonl")]
        try:
            client = kids.spawn(worker_cmd(args, *extra),
                                f"client-{os.path.basename(pass_dir)}-{n}")
            parse_ready(kids.read_line(client, READY_TIMEOUT_S))
            kids.wait(client, CHILD_SLACK_S)
        finally:
            kids.stop(proc)
        if proc.returncode != 0:
            raise BenchError(f"server exited {proc.returncode}:\n"
                             f"{kids.log_tail(proc)}")
        with open(out, "r", encoding="utf-8") as f:
            result = json.load(f)
        start, marks = result.pop("start"), result.pop("job_marks")
        if clocked:
            with open(samples, "r", encoding="utf-8") as f:
                host_clock(result, start, marks, json.load(f))
        if traced:
            with open(spans + ".absent.json", "r", encoding="utf-8") as f:
                result["absent_probes"].update(json.load(f))
        results.append(result)
    return merge(results)


def host_clock(result: Dict[str, Any], start: float,
               marks: List[List[float]], samples: List[List[float]]) -> None:
    """Re-time one service iteration in reference-host seconds.

    ``marks`` are each completed job's submit, first-event and end times,
    ``samples`` the reference loops the server's runner ran
    (``worker.SampledClock``).  The wall-clock values are kept as
    ``raw_elapsed``/``raw_job_times``.  Without samples the wall clock
    stays.
    """
    result.update(raw_elapsed=result["elapsed"],
                  raw_job_times=result["job_times"],
                  ref_loops=[s[2] for s in samples])
    if not samples or not marks:
        return
    clock = worker.SampledClock(samples)
    result["job_times"] = [clock.between(t0, t1) for t0, _, t1 in marks]
    result["first_times"] = [clock.between(t0, tf) for t0, tf, _ in marks]
    result["elapsed"] = clock.between(start, max(m[2] for m in marks))


# ----------------------------------------------------------------------
# Metrics.

def merge(results: List[Dict[str, Any]]) -> Dict[str, Any]:
    """One result from several passes or iterations of the same kind:
    counts and times add up, lists of samples join, and a point's result
    row must be the same in each."""
    out: Dict[str, Any] = {"rows": {}, "absent_probes": {}, "pool": {}}
    for r in results:
        for key, value in r.items():
            if key == "rows":
                for point, row in value.items():
                    if out["rows"].setdefault(point, row) != row:
                        out.setdefault("errors", []).append(
                            f"{point}: result row differs between passes")
            elif key in ("absent_probes", "pool"):
                for name, v in value.items():
                    out[key][name] = (out[key].get(name, 0) + v
                                      if key == "pool" else v)
            elif isinstance(value, list):
                out.setdefault(key, []).extend(value)
            elif isinstance(value, (int, float)):
                out[key] = out.get(key, 0) + value
            else:
                out[key] = value
    return out


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def p90(values: List[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def peak_rss_mb() -> float:
    """Largest peak RSS of this process or any reaped descendant (Linux
    reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def rate(result: Dict[str, Any]) -> float:
    """Completed points per second of a pass (0 when nothing completed)."""
    return (result["points"] / result["elapsed"]
            if result["elapsed"] > 0 else 0.0)


def end_to_end(result: Dict[str, Any], setups: List[float]) -> Dict[str, float]:
    return {
        "setup_s": median(setups),
        "points_per_s": rate(result),
        "first_point_s": median(result["first_times"]),
        "job_p50_s": median(result["job_times"]),
        "job_p90_s": p90(result["job_times"]),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(spans: List[Dict[str, Any]], traced: Dict[str, Any],
              plain: Dict[str, Any], imports: List[Dict[str, float]]
              ) -> Dict[str, float]:
    totals = probes.layer_totals(spans)
    points = max(traced["points"], 1)
    jobs = max(traced.get("jobs", 0), 1)

    def self_s(name: str) -> float:
        return totals.get(name, {}).get("self", 0.0)

    def count(name: str) -> int:
        return int(totals.get(name, {}).get("count", 0))

    def named(name: str) -> List[Dict[str, Any]]:
        return [s for s in spans if s["name"] == name]

    def hit_ratio(name: str) -> float:
        gets = named(name)
        hits = sum(1 for s in gets if (s["attrs"] or {}).get("hit"))
        return hits / len(gets) if gets else 0.0

    sims = [s["attrs"] or {} for s in named("timing.simulate")]
    configs = sum(a.get("configs", 0) for a in sims)
    vector = sum(a.get("configs", 0) for a in sims
                 if a.get("execution") == "vector")
    cells = sum(a.get("configs", 0) * a.get("instructions", 0) for a in sims)
    sim_s = self_s("timing.simulate")
    polls = [s["attrs"] or {} for s in named("http.events")]
    pool = traced["pool"]
    return {
        "import.repro_s": median([i["import.repro_s"] for i in imports]),
        "import.numpy_s": median([i["import.numpy_s"] for i in imports]),
        "frontend.build_s": self_s("frontend.build") / points,
        "frontend.builds": count("frontend.build") / points,
        "trace.lower_s": self_s("trace.lower") / points,
        "trace.summarize_s": self_s("trace.summarize") / points,
        "timing.simulate_s": sim_s / points,
        "timing.calls": count("timing.simulate") / points,
        "timing.configs_per_call": configs / len(sims) if sims else 0.0,
        "timing.vector_share": vector / configs if configs else 0.0,
        "timing.sim_minstr_per_s": cells / sim_s / 1e6 if sim_s else 0.0,
        "engine.self_s": self_s("engine") / points,
        "store.get_s": self_s("store.get") / points,
        "store.put_s": self_s("store.put") / points,
        "store.hit_ratio": hit_ratio("store.get"),
        "tracecache.get_s": self_s("tracecache.get") / points,
        "tracecache.put_s": self_s("tracecache.put") / points,
        "tracecache.hit_ratio": hit_ratio("tracecache.get"),
        "journal.append_s": self_s("journal.append") / points,
        "journal.appends": count("journal.append") / points,
        "journal.scan_s": self_s("journal.scan") / points,
        "pool.tasks": pool["tasks"] / points,
        "pool.retries": pool["retries"] / points,
        "pool.restarts": pool["restarts"] / points,
        "pool.fallbacks": pool["fallbacks"] / points,
        "service.queue_wait_s": (statistics.fmean(traced["queue_waits"])
                                 if traced.get("queue_waits") else 0.0),
        "service.run_s": (statistics.fmean(traced["run_times"])
                          if traced.get("run_times") else 0.0),
        "http.submit_s": self_s("http.submit") / jobs,
        "http.events_s": self_s("http.events") / jobs,
        "http.fetch_s": self_s("http.fetch") / jobs,
        "http.polls_per_job": len(polls) / jobs,
        "http.empty_poll_ratio": (sum(1 for a in polls if not a.get("events"))
                                  / len(polls) if polls else 0.0),
        "tracing.overhead_ratio": (rate(traced) / rate(plain)
                                   if rate(plain) else 0.0),
    }


# ----------------------------------------------------------------------
# Provenance.

def _git(*argv: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", *argv], cwd=ROOT, capture_output=True,
                              text=True, timeout=20)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args: argparse.Namespace) -> Dict[str, Any]:
    """Commit (when the checkout is a git work tree), source digest, host."""
    top = _git("rev-parse", "--show-toplevel")
    in_git = top is not None and os.path.realpath(top) == os.path.realpath(
        ROOT)
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"),
                                 recursive=True)):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return {
        "commit": _git("rev-parse", "HEAD") if in_git else None,
        "dirty": (bool(_git("status", "--porcelain", "--untracked-files=no"))
                  if in_git else None),
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ----------------------------------------------------------------------

def measure(args: argparse.Namespace, kids: Children, run_dir: str,
            tmp: str) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run the workload; returns (summary for the JSON line, record)."""
    service = args.workload == "service-mixed"
    record: Dict[str, Any] = {}
    if args.trace == 0:
        pass_dir = os.path.join(run_dir, "plain")
        os.makedirs(pass_dir)
        # Half the set-up samples are taken before the measured pass and
        # half after it, so their median spans the run's host-speed
        # swings rather than one moment of them.
        half = args.setup_samples // 2
        setups = [setup_sample(kids, args, tmp, n) for n in range(half)]
        if service:
            result = service_pass(kids, args, args.seconds, pass_dir, tmp,
                                  traced=False, clocked=True)
        else:
            result, took = batch_pass(kids, args, args.seconds, pass_dir,
                                      traced=False)
            setups.append(took)
        setups += [setup_sample(kids, args, tmp, n)
                   for n in range(half, 2 * half)]
        metrics = end_to_end(result, setups)
        if "ref_loops" in result:
            # The same run timed by the unscaled wall clock, for reference.
            record["wall_clock"] = {
                "points_per_s": (result["points"] / result["raw_elapsed"]
                                 if result["raw_elapsed"] > 0 else 0.0),
                "job_p50_s": median(result["raw_job_times"]),
                "job_p90_s": p90(result["raw_job_times"]),
                # Median time of the host clock's reference loop.
                "ref_loop_s": median(result["ref_loops"]),
            }
            record["clock"] = "host" if result["ref_loops"] else "wall"
        record["samples"] = {"setup_s": len(setups),
                             "first_point_s": len(result["first_times"]),
                             "job_p50_s": len(result["job_times"]),
                             "job_p90_s": len(result["job_times"]),
                             "points": result["points"]}
    else:
        imports = [setup_probe(kids, args, n)[1]
                   for n in range(args.setup_samples)]
        # Plain, traced, traced, plain: a linear drift in host speed
        # cancels out of the overhead ratio.
        quarter = args.seconds / 4.0
        passes: List[Tuple[str, Dict[str, Any]]] = []
        for n, name in enumerate(TRACE_PASSES):
            pass_dir = os.path.join(run_dir, f"{n}-{name}")
            os.makedirs(pass_dir)
            traced = name == "traced"
            if service:
                result = service_pass(kids, args, quarter, pass_dir, tmp,
                                      traced)
            else:
                result = batch_pass(kids, args, quarter, pass_dir,
                                    traced)[0]
            passes.append((name, result))
        plain, traced = (merge([r for n, r in passes if n == name])
                         for name in ("plain", "traced"))
        spans = probes.load_spans(sorted(glob.glob(
            os.path.join(run_dir, "*-traced", "*.jsonl"))))
        metrics = per_layer(spans, traced, plain, imports)
        shared = set(plain["rows"]) & set(traced["rows"])
        differing = [k for k in shared
                     if plain["rows"][k] != traced["rows"][k]]
        record["traced_rows"] = {"compared": len(shared),
                                 "differing": len(differing)}
        result = merge([plain, traced])
        if not shared or differing:
            result["errors"].append(
                f"traced result rows differ from the plain run's "
                f"({len(differing)} of {len(shared)} shared points)")
        record["samples"] = {"imports": len(imports),
                             "spans": len(spans),
                             "points": traced["points"]}
        record["absent_probes"] = traced["absent_probes"]
    attempted, failed = result["attempted"], result["failed"]
    errors = result["errors"]
    record.update(
        numpy=result["numpy_version"],
        attempted=attempted, failed=failed,
        failed_share=failed / attempted if attempted else 1.0,
        golden_checked=result["golden_checked"],
        errors=errors)
    summary = {
        "correct": attempted > 0 and failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in args.units.items()},
    }
    return summary, record


def print_report(summary: Dict[str, Any], record: Dict[str, Any]) -> None:
    absent = record.get("absent_probes", {})
    samples = record.get("samples", {})
    print(f"# {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} seconds={record['seconds']}")
    for name, m in summary["metrics"].items():
        note = ""
        if name in samples:
            note = f"  (n={samples[name]})"
        if any(prefix and name.startswith(prefix)
               for prefix in absent.values()):
            note = "  (probe absent)"
        print(f"{name:26s} {m['value']:>14.6g} {m['unit']:9s}{note}")
    print(f"{'failed_share':26s} {record['failed_share']:>14.6g} "
          f"{'ratio':9s}  ({record['failed']} of {record['attempted']})")
    for error in record["errors"][:10]:
        print(f"! {error}")
    print("# record " + json.dumps(record, sort_keys=True))


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    workloads, end_to_end, layers = load_spec()
    p = argparse.ArgumentParser(
        description="Sweep benchmark (see perfbench/README.md).")
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="self-test sizes: a few points, 2 set-up samples")
    args = p.parse_args(argv)
    args.setup_samples = 2 if args.tiny else SETUP_SAMPLES
    args.units = end_to_end if args.trace == 0 else layers
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"perfbench: no system to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2

    def on_sigterm(signum: int, frame: Any) -> None:
        raise _Terminated()

    signal.signal(signal.SIGTERM, on_sigterm)
    run_dir = os.path.join(
        OUT_ROOT, f"{args.workload}-s{args.seed}-t{args.trace}-"
                  f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    tmp = os.path.join(run_dir, "tmp")
    os.makedirs(tmp)
    kids = Children(hermetic_env(), run_dir)
    try:
        summary, record = measure(args, kids, run_dir, tmp)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    except _Terminated:
        print("perfbench: terminated", file=sys.stderr)
        return 143
    finally:
        kids.stop_all()
        shutil.rmtree(tmp, ignore_errors=True)
    record.update(provenance(args))
    with open(os.path.join(run_dir, "record.json"), "w",
              encoding="utf-8") as f:
        json.dump({"summary": summary, "record": record}, f, indent=1,
                  sort_keys=True)
    print_report(summary, record)
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
