"""Span tracer and layer probes for the benchmark's traced runs.

The probes wrap the public calls into each ``repro`` layer from outside —
no ``src/`` file knows about them — and record one span per call: name,
start, end, parent span, process id and a per-point or per-job reference.
Spans are kept in memory and written out when the traced pass ends.  A
layer's self time is its spans' durations minus their direct children's.

A probe whose target is gone (a deleted module, class or function) is
listed in :attr:`Probes.absent`, with the metric prefix it feeds, and its
layer simply records no spans, so the benchmark keeps measuring across
refactors that remove layers.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional

#: The tracer and original pool worker of an installed probe set.  Pool
#: workers are forked from the traced process and reach the tracer through
#: this module, because the wrapper must be picklable by name.
_ACTIVE: Dict[str, Any] = {}


class Tracer:
    """In-memory span recorder; thread-aware, fork-aware."""

    def __init__(self, spill_dir: Optional[str] = None) -> None:
        self.spill_dir = spill_dir
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.pid = os.getpid()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, ref: Any = None) -> list:
        stack = self._stack()
        rec = [name, next(self._ids), stack[-1][1] if stack else 0, ref,
               time.perf_counter(), None, self.pid, None]
        stack.append(rec)
        self._last()[name] = rec
        return rec

    def _last(self) -> Dict[str, list]:
        last = getattr(self._local, "last", None)
        if last is None:
            last = self._local.last = {}
        return last

    def end(self, rec: list) -> None:
        rec[5] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is rec:
            stack.pop()
        self.spans.append(rec)

    def last(self, name: str) -> Optional[list]:
        """This thread's most recently begun span called ``name``."""
        return self._last().get(name)

    def adopt_child_process(self) -> None:
        """Start afresh in a forked child: drop the parent's spans/stack."""
        if self.pid != os.getpid():
            self.pid = os.getpid()
            self.spans = []
            self._local = threading.local()

    def spill(self) -> None:
        """Append this process's spans to its spill file and forget them."""
        if not self.spill_dir or not self.spans:
            return
        path = os.path.join(self.spill_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as f:
            for rec in self.spans:
                f.write(json.dumps(span_dict(rec)) + "\n")
        self.spans = []

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for rec in self.spans:
                f.write(json.dumps(span_dict(rec)) + "\n")


def span_dict(rec: list) -> Dict[str, Any]:
    name, sid, parent, ref, start, end, pid, attrs = rec
    return {"name": name, "id": sid, "parent": parent, "ref": ref,
            "start": start, "end": end, "pid": pid, "attrs": attrs}


def load_spans(paths: Iterable[str]) -> List[Dict[str, Any]]:
    spans = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as f:
                spans.extend(json.loads(line) for line in f if line.strip())
        except FileNotFoundError:
            continue
    return spans


def _resolve(path: str):
    """``"pkg.mod:Class"`` -> the object, or ``None`` when it is gone."""
    module_name, _, attr_path = path.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in filter(None, attr_path.split(".")):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _point_ref(point: Any) -> str:
    spec = getattr(point, "spec", None)
    cfg = getattr(point, "config", None)
    return (f"{getattr(point, 'kernel', '?')}/{getattr(point, 'isa', '?')}"
            f"/{getattr(cfg, 'name', '?')}m{getattr(cfg, 'mem_latency', '?')}"
            f"/s{getattr(spec, 'scale', '?')}r{getattr(spec, 'seed', '?')}")


class Probes:
    """Installs (and removes) the layer wrappers around one tracer."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        #: Missing probe target -> prefix of the metrics it feeds.
        self.absent: Dict[str, Optional[str]] = {}
        self._patched: List[tuple] = []

    # -- patching ----------------------------------------------------------

    def _patch(self, target: str, attr: str,
               make: Callable[[Callable], Callable],
               feeds: Optional[str] = None, optional: bool = False) -> bool:
        owner = _resolve(target)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            if not optional:
                self.absent[f"{target}.{attr}"] = feeds
            return False
        setattr(owner, attr, make(original))
        self._patched.append((owner, attr, original))
        return True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        _ACTIVE.clear()

    def _span(self, name: str, ref: Callable[..., Any] = lambda *a, **k: None,
              after: Optional[Callable[..., None]] = None
              ) -> Callable[[Callable], Callable]:
        tracer = self.tracer

        def make(fn: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                rec = tracer.begin(name, ref(*args, **kwargs))
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer.end(rec)
                if after is not None:
                    after(rec, out, *args, **kwargs)
                return out
            wrapper.__wrapped__ = fn
            return wrapper
        return make

    # -- the layers --------------------------------------------------------

    def install_engine_side(self) -> "Probes":
        """Probes for every layer a sweep engine run touches."""
        tracer = self.tracer

        self._patch("repro.experiments.runner", "build_kernel_variant",
                    self._span("frontend.build",
                               lambda k, isa, spec=None, *a, **kw:
                               f"{k}/{isa}/s{getattr(spec, 'scale', '?')}"
                               f"r{getattr(spec, 'seed', '?')}"),
                    feeds="frontend.")
        self._patch("repro.trace.container:Trace", "lower",
                    self._span("trace.lower",
                               lambda trace, *a, **k:
                               f"{trace.name}/{trace.isa}"),
                    feeds="trace.lower")
        summarize = self._span("trace.summarize")
        if self._patch("repro.trace.stats", "summarize_trace", summarize,
                       feeds="trace.summarize"):
            self._patch("repro.experiments.runner", "summarize_trace",
                        summarize, optional=True)

        def sim_attrs(rec, out, trace, *a, **k):
            attrs = rec[7] = rec[7] or {}
            attrs["configs"] = len(out)
            attrs["instructions"] = len(trace)

        self._patch("repro.timing.dispatch", "simulate_batch",
                    self._span("timing.simulate",
                               lambda trace, *a, **k: getattr(trace, "name",
                                                              None),
                               after=sim_attrs), feeds="timing.")

        def wrap_resolve(fn):
            def resolve_execution(*args, **kwargs):
                execution = fn(*args, **kwargs)
                # Called inside simulate_batch, or by the engine right
                # after it: either way it describes the latest batch.
                rec = tracer.last("timing.simulate")
                if rec is not None:
                    attrs = rec[7] = rec[7] or {}
                    attrs.setdefault("execution", execution)
                return execution
            return resolve_execution

        self._patch("repro.timing.dispatch", "resolve_execution",
                    wrap_resolve, feeds="timing.vector_share")

        def wrap_iter(fn):
            runs = itertools.count(1)

            def iter_results(engine, *args, **kwargs):
                journal = getattr(engine, "journal", None)
                ref = (os.path.basename(journal.path).split(".")[0]
                       if journal is not None else f"run{next(runs)}")
                inner = fn(engine, *args, **kwargs)
                try:
                    while True:
                        rec = tracer.begin("engine", ref)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer.end(rec)
                        yield item
                finally:
                    inner.close()
            return iter_results

        self._patch("repro.sweep.engine:SweepEngine", "iter_results",
                    wrap_iter, feeds="engine.")

        def hit_attr(rec, out, *a, **k):
            rec[7] = {"hit": out is not None}

        def wrap_store(obj):
            for method, after in (("get", hit_attr), ("put", None)):
                fn = getattr(obj, method, None)
                if fn is not None:
                    setattr(obj, method, self._span(
                        f"store.{method}",
                        lambda point, *a, **k: _point_ref(point),
                        after=after)(fn))
            return obj

        def wrap_factory(fn):
            def make_result_store(*args, **kwargs):
                return wrap_store(fn(*args, **kwargs))
            return make_result_store

        found = self._patch("repro.sweep.engine", "make_result_store",
                            wrap_factory, optional=True)
        found |= self._patch("repro.sweep.cache", "make_result_store",
                             wrap_factory, optional=True)
        if not found:
            self.absent["repro.sweep.cache.make_result_store"] = "store."

        for method, after in (("get", hit_attr), ("put", None)):
            self._patch("repro.sweep.tracecache:TraceCache", method,
                        self._span(f"tracecache.{method}",
                                   lambda cache, point, *a, **k:
                                   _point_ref(point), after=after),
                        feeds="tracecache.")
        self._patch("repro.sweep.journal:SweepJournal", "append",
                    self._span("journal.append",
                               lambda journal, record, *a, **k:
                               record.get("key")
                               if isinstance(record, dict) else None),
                    feeds="journal.append")
        scan = self._span("journal.scan",
                          lambda path, *a, **k: os.path.basename(str(path)))
        self._patch("repro.sweep.journal", "read_jsonl", scan,
                    feeds="journal.scan")
        self._patch("repro.sweep.service", "read_jsonl", scan,
                    optional=True)

        _ACTIVE["tracer"] = tracer
        if self._patch("repro.sweep.engine", "_pool_worker",
                       lambda fn: pool_worker):
            _ACTIVE["pool_worker"] = self._patched[-1][2]
        return self

    def install_client_side(self) -> "Probes":
        """Client-side transport spans around the service client's calls."""
        def job_id(client, arg, *a, **k):
            return arg if isinstance(arg, str) else None

        def submitted(rec, out, *a, **k):
            rec[3] = out[0].get("id")

        def polled(rec, out, *a, **k):
            rec[7] = {"events": len(out["events"])}

        for method, after in (("submit", submitted), ("events", polled),
                              ("fetch", None)):
            self._patch("repro.sweep.client:ServiceClient", method,
                        self._span(f"http.{method}", job_id, after=after),
                        feeds="http.")
        return self


def pool_worker(args):
    """Traced stand-in for the engine's pool worker (runs in the child)."""
    tracer = _ACTIVE["tracer"]
    tracer.adopt_child_process()
    points = args[0] if args else ()
    rec = tracer.begin("pool.task", _point_ref(points[0]) if points else None)
    try:
        return _ACTIVE["pool_worker"](args)
    finally:
        tracer.end(rec)
        tracer.spill()


# ----------------------------------------------------------------------
# Reduction to per-layer numbers.

def layer_totals(spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: count and self time (seconds)."""
    child_time: Dict[tuple, float] = {}
    for s in spans:
        if s["parent"]:
            key = (s["pid"], s["parent"])
            child_time[key] = child_time.get(key, 0.0) + s["end"] - s["start"]
    out: Dict[str, Dict[str, float]] = {}
    for s in spans:
        dur = s["end"] - s["start"]
        row = out.setdefault(s["name"], {"count": 0, "self": 0.0})
        row["count"] += 1
        row["self"] += dur - child_time.get((s["pid"], s["id"]), 0.0)
    return out
