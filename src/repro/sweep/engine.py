"""The sweep engine: expand a spec, run its points, cache and stream results.

The engine is the one place in the reproduction that knows *how* experiment
points get executed:

* serially in-process (the deterministic fallback, and the default),
* or fanned out over a :class:`concurrent.futures.ProcessPoolExecutor` when
  ``jobs > 1`` — each worker rebuilds its kernel workload from the (seeded,
  deterministic) spec, so no large arrays cross the process boundary and
  parallel results are bit-identical to serial ones,
* optionally backed by an on-disk result store — the one-file-per-point
  :class:`~repro.sweep.cache.ResultCache` or the single-database
  :class:`~repro.sweep.sqlite_store.SQLiteResultStore` (re-running a sweep
  whose points are already cached does zero simulations),
* optionally journaled: with a write-ahead
  :class:`~repro.sweep.journal.SweepJournal` every completed point is
  appended durably as it lands, and a restarted sweep replays the journal
  first — an interrupted million-point run resumes where it died instead
  of starting over (``repro sweep --resume PATH``).

Points are executed in **trace batches**: the points left after the result-
cache scan are grouped by trace identity (kernel, ISA, workload), and each
group builds its functional trace exactly once, in the process that
simulates it, lowers it once
(:meth:`~repro.trace.container.Trace.lower`) and simulates every machine
configuration in the group off the shared
:class:`~repro.timing.lowered.LoweredTrace`.  A build is an array program
end to end: the builders emit into flat columns, the lowering is a
zero-copy adoption of those columns and the group's trace statistics are
computed column-natively — no per-instruction Python objects exist
anywhere on the path.  Under a worker pool one group is one task, so no
two workers ever build the same trace, and the build/lowering cost is
amortised over the group's points.

Results stream: :meth:`SweepEngine.iter_results` yields each
:class:`PointResult` the moment it completes (cache hits first, then
simulations in completion order), and both it and :meth:`SweepEngine.run`
accept an ``on_result`` callback for live progress reporting and incremental
output.  :meth:`run` additionally reassembles the deterministic
spec-expansion order, so existing barrier-style callers are unchanged.

Execution failures are *supervised*, not fatal
(:mod:`repro.sweep.supervisor`): pool-infrastructure failures (a sandbox
that forbids fork, an unpicklable point at submit time, a pool that breaks
mid-run) respawn the pool with bounded exponential backoff before the
serial fallback takes over; a hung worker is detected by a per-task
deadline (``task_timeout``) and its group re-submitted; a point that
repeatedly kills or hangs its worker is bisected out and **quarantined**;
and a point whose kernel raises — under the pool or on the serial path —
becomes a structured :class:`~repro.sweep.supervisor.PointFailure` on its
:class:`PointResult` instead of aborting the sweep.
:attr:`SweepEngine.last_fallback_reason`, :attr:`SweepEngine.last_retries`,
:attr:`SweepEngine.last_pool_restarts`, :attr:`SweepEngine.last_timeouts`
and :attr:`SweepEngine.last_failures` record what supervision did.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple, Union)

from repro.sweep import faults
from repro.sweep.cache import (RESULT_STORES, make_result_store, point_key,
                               sim_from_dict, stats_from_dict)
from repro.sweep.journal import SweepJournal
from repro.sweep.spec import SweepPoint, SweepSpec
from repro.sweep.supervisor import (POOL_INFRA_ERRORS, PointFailure,
                                    PoolSupervisor, SupervisorPolicy,
                                    policy_with_overrides)
from repro.timing.results import SimResult
from repro.trace.stats import TraceStats

__all__ = ["CacheDirError", "PointResult", "SweepEngine", "ensure_engine"]

#: Exceptions that count as pool *infrastructure* failures (retried with
#: pool respawns, then degraded to the serial path — never a failed
#: sweep).  Re-exported from the supervisor under the engine's historical
#: name.
_POOL_FALLBACK_ERRORS = POOL_INFRA_ERRORS

#: Callback type for streaming results: called once per completed point.
OnResult = Callable[["PointResult"], None]


@dataclass
class PointResult:
    """Result of one sweep point: the timing outcome plus trace statistics.

    Attributes
    ----------
    point:
        The fully-resolved :class:`~repro.sweep.spec.SweepPoint` that was
        executed.
    sim:
        The :class:`~repro.timing.results.SimResult` of the timing model.
    stats:
        Static :class:`~repro.trace.stats.TraceStats` of the trace.
    cached:
        True when the whole result was served from the on-disk result cache
        (no simulation ran).
    journaled:
        True when the result was replayed from a write-ahead
        :class:`~repro.sweep.journal.SweepJournal` (a resumed sweep; no
        simulation ran and the result cache was not consulted).
    build:
        The functional build (trace plus verified outputs); only present for
        fresh in-process runs with ``keep_builds=True`` — cached and
        worker-pool results carry ``None``.
    checked:
        Whether this result is backed by a golden-reference verification:
        either this run checked the build, or the cache entry it came from
        was written by a checking run (the result cache only ever admits
        verified work).
    index:
        Position of the point in the sweep's deterministic expansion order;
        lets streaming consumers reassemble barrier order.
    failure:
        ``None`` for a completed point.  Otherwise the structured
        :class:`~repro.sweep.supervisor.PointFailure` explaining why the
        point has no numbers (quarantined poison point, kernel exception,
        …); ``sim`` and ``stats`` are ``None`` then — check :attr:`ok`
        before touching them.
    """

    point: SweepPoint
    sim: Optional[SimResult] = None
    stats: Optional[TraceStats] = None
    cached: bool = False
    journaled: bool = False
    build: Optional[object] = None
    checked: bool = True
    index: int = -1
    failure: Optional[PointFailure] = None

    @property
    def ok(self) -> bool:
        """Whether the point completed (i.e. carries sim/stats numbers)."""
        return self.failure is None

    @property
    def kernel(self) -> str:
        """Kernel name of the point (shorthand for ``point.kernel``)."""
        return self.point.kernel

    @property
    def isa(self) -> str:
        """ISA variant of the point (shorthand for ``point.isa``)."""
        return self.point.isa

    @property
    def cycles(self) -> int:
        """Simulated cycle count (shorthand for ``sim.cycles``)."""
        return self.sim.cycles

    @property
    def correct(self) -> bool:
        """Functional correctness of the build behind this result.

        Without a retained build this is only knowable when the run (or the
        cached work it came from) verified against the golden reference.
        A failed point is never correct.
        """
        if self.failure is not None:
            return False
        if self.build is not None:
            return self.build.correct
        return self.checked


class CacheDirError(ValueError):
    """The engine's ``cache_dir`` cannot be created or written."""


def ensure_cache_dir(cache_dir: str) -> None:
    """Create ``cache_dir`` if needed; raise :class:`CacheDirError` when it
    is unusable, so a bad path fails once, up front, not per point."""
    try:
        os.makedirs(cache_dir, exist_ok=True)
    except OSError as exc:
        raise CacheDirError(f"cache directory {cache_dir!r} cannot be "
                            f"created: {exc.strerror or exc}") from None
    if not os.access(cache_dir, os.W_OK | os.X_OK):
        raise CacheDirError(f"cache directory {cache_dir!r} is not "
                            f"writable")


def _trace_identity(point: SweepPoint) -> Tuple[str, str, int, int]:
    """Grouping key of the functional trace behind a (resolved) point:
    two points with equal identity are simulated off one shared
    trace/lowering."""
    return (point.kernel, point.isa, point.spec.scale, point.spec.seed)


def _group_by_trace(points: Sequence[SweepPoint],
                    indices: Iterable[int]) -> List[List[int]]:
    """Group point indices by trace identity, keeping expansion order."""
    groups: Dict[Tuple[str, str, int, int], List[int]] = {}
    for i in indices:
        groups.setdefault(_trace_identity(points[i]), []).append(i)
    return list(groups.values())


def _simulate_group(points: Sequence[SweepPoint], check: bool,
                    backend: str = "lowered",
                    ) -> Tuple[List[Tuple[SimResult, TraceStats]],
                               Tuple[int, str]]:
    """Run one trace-sharing group of resolved points in this process.

    The trace is built once and lowered once; every configuration in the
    group is simulated off the shared flat arrays through the timing
    package's batch dispatch (``backend`` selects lowered/object).
    Returns the per-point ``(sim, stats)`` rows and the group's ``(size,
    backend)``.
    """
    # Local imports: the experiments layer imports the engine.
    from repro.experiments.runner import build_kernel_variant
    from repro.timing.dispatch import simulate_batch
    from repro.trace.stats import summarize_trace

    # Deterministic fault injection (no-op unless REPRO_FAULT_INJECT is
    # set): every point gets its chance to crash/hang/raise before any
    # simulation work, in the process that would execute it.
    for point in points:
        faults.fire_faults(point)
    point = points[0]
    trace = build_kernel_variant(point.kernel, point.isa, spec=point.spec,
                                 check=check).trace
    stats = summarize_trace(trace)
    sims = simulate_batch(trace, [p.config for p in points], backend=backend)
    return [(sim, stats) for sim in sims], (len(points), backend)


def _simulate_point_with_build(point: SweepPoint, check: bool,
                               ) -> Tuple[SimResult, TraceStats, object]:
    """Run one resolved point keeping its functional build (serial only).

    Builds hold traces and NumPy arrays that should not be shipped between
    processes, so this path only runs in-process.
    """
    from repro.experiments.runner import run_kernel

    run = run_kernel(point.kernel, point.isa, config=point.config,
                     spec=point.spec, check=check)
    return run.sim, run.stats, run.build


def _pool_worker(args: Tuple[Tuple[SweepPoint, ...], bool, str]
                 ) -> Tuple[List[Tuple[SimResult, TraceStats]],
                            Tuple[int, str]]:
    """Top-level (picklable) worker for the process pool: one trace group.

    The functional build and the lowered trace stay in the worker — only
    the compact result rows and the backend execution record travel back
    to the parent.
    """
    faults.mark_worker()
    points, check, backend = args
    return _simulate_group(points, check, backend)


class SweepEngine:
    """Runs sweep points with optional process parallelism and caching.

    Parameters
    ----------
    jobs:
        Worker-process count.  ``jobs <= 1`` selects the deterministic
        in-process path; ``jobs > 1`` uses a ``ProcessPoolExecutor``.
    cache_dir:
        Root directory of the on-disk result store; ``None`` disables it.
        Created if missing; a path that cannot be created or written raises
        :class:`CacheDirError` here rather than failing point by point.
    check:
        Verify every build against its NumPy golden reference (default on;
        a run with wrong functional output never produces timing numbers).
    version:
        Timing-model version for result-cache keys (tests override this to
        exercise invalidation); defaults to the live model version.
    backend:
        Timing backend for the group simulations, one of
        :data:`~repro.timing.dispatch.BACKENDS` (default ``"lowered"``:
        the flat-array interpreter; ``"object"`` is the reference loop).
        Results are bit-identical across backends, so cache keys ignore
        it.
    result_store:
        On-disk layout of the result cache, one of
        :data:`~repro.sweep.cache.RESULT_STORES`: ``"json"`` (one file per
        point — inspectable, the default) or ``"sqlite"`` (one
        ``results.db`` per cache root — what million-point sweeps want).
        Identical keys and semantics either way; ignored without a
        ``cache_dir``.
    journal:
        Write-ahead journal for crash-safe sweeps: a
        :class:`~repro.sweep.journal.SweepJournal`, a path for one, or
        ``None`` (default, no journaling).  Every completed point is
        appended as it lands; on the next run over the same journal the
        recorded points replay instantly and are neither re-simulated nor
        re-built (``repro sweep --resume PATH``).  A per-call ``journal=``
        on :meth:`run` / :meth:`iter_results` overrides this.
    task_timeout:
        Wall-clock seconds one pool task (a trace group) may run before its
        worker is presumed hung and the pool recycled; ``None`` (default)
        disables deadlines.  CLI: ``--task-timeout``.
    max_pool_restarts:
        Pool respawns per run before the serial fallback takes over;
        ``None`` keeps the :class:`~repro.sweep.supervisor.SupervisorPolicy`
        default.  CLI: ``--max-pool-restarts``.
    supervision:
        Full :class:`~repro.sweep.supervisor.SupervisorPolicy` for the
        supervised pool loop (retry counts, backoff schedule); the bare
        ``task_timeout``/``max_pool_restarts`` knobs override its fields.
    resume_failed:
        What ``--resume`` does with journaled *failure* records:
        ``"retry"`` (default) re-runs those points, ``"skip"`` replays them
        as failed results without re-running.
    """

    def __init__(self, jobs: int = 1, cache_dir: Optional[str] = None,
                 check: bool = True, version: Optional[str] = None,
                 backend: str = "lowered", result_store: str = "json",
                 journal: Union[None, str, SweepJournal] = None,
                 task_timeout: Optional[float] = None,
                 max_pool_restarts: Optional[int] = None,
                 supervision: Optional[SupervisorPolicy] = None,
                 resume_failed: str = "retry") -> None:
        from repro.timing.dispatch import BACKENDS

        if backend not in BACKENDS:
            raise ValueError(f"unknown timing backend {backend!r}; "
                             f"choose from {BACKENDS}")
        if result_store not in RESULT_STORES:
            raise ValueError(f"unknown result store {result_store!r}; "
                             f"choose from {RESULT_STORES}")
        if resume_failed not in ("retry", "skip"):
            raise ValueError(f"unknown resume_failed mode {resume_failed!r}; "
                             f"choose from ('retry', 'skip')")
        self.backend = backend
        self.result_store = result_store
        self.policy = policy_with_overrides(supervision, task_timeout,
                                            max_pool_restarts)
        self.resume_failed = resume_failed
        self.jobs = max(1, int(jobs))
        self._version = version
        if cache_dir:
            ensure_cache_dir(cache_dir)
        self.cache = (make_result_store(result_store, cache_dir,
                                        version=version)
                      if cache_dir else None)
        if isinstance(journal, (str, os.PathLike)):
            journal = SweepJournal(journal)
        self.journal = journal
        self.check = check
        #: Number of points actually simulated by the most recent run.
        self.last_simulated = 0
        #: Number of points served whole from the result cache.
        self.last_cached = 0
        #: Number of points replayed from the write-ahead journal by the
        #: most recent run (a resumed sweep; zero without a journal).
        self.last_journaled = 0
        #: Front-end builds the most recent run executed.  Points sharing a
        #: trace are batched, so this counts *distinct traces built*: zero
        #: when every point came from the result cache or the journal, and
        #: never more than the distinct (kernel, ISA, workload)
        #: combinations in the sweep.
        self.last_trace_builds = 0
        #: Tasks the most recent run submitted to the worker pool (0 when
        #: everything ran serially): one per trace group.
        self.last_pool_tasks = 0
        #: Why the most recent run fell back to serial execution (if it did).
        self.last_fallback_reason: Optional[str] = None
        #: Task retries the most recent run's supervision performed (pool
        #: re-submissions after crash/timeout/exception, plus serial
        #: point-isolation re-runs).
        self.last_retries = 0
        #: Worker-pool respawns the most recent run performed.
        self.last_pool_restarts = 0
        #: Task deadlines that fired during the most recent run.
        self.last_timeouts = 0
        #: Points the most recent run gave up on, as
        #: :class:`~repro.sweep.supervisor.PointFailure` records (also
        #: carried on the corresponding results' ``failure`` field).
        self.last_failures: List[PointFailure] = []
        #: Of those, how many were quarantined for repeatedly killing or
        #: hanging their worker.
        self.last_quarantined = 0
        #: Per simulated trace group of the most recent run: ``(number of
        #: configurations, timing backend)`` — the observable record that
        #: groups were routed through the batch dispatch.
        self.last_batches: List[Tuple[int, str]] = []

    # ------------------------------------------------------------------

    def run(self, sweep: Union[SweepSpec, Iterable[SweepPoint]],
            keep_builds: bool = False,
            on_result: Optional[OnResult] = None,
            journal: Union[None, str, SweepJournal] = None,
            ) -> List[PointResult]:
        """Execute a sweep and return one :class:`PointResult` per point, in
        the sweep's deterministic expansion order.

        Parameters
        ----------
        sweep:
            A :class:`~repro.sweep.spec.SweepSpec` or an iterable of
            :class:`~repro.sweep.spec.SweepPoint`\\ s.
        keep_builds:
            Retain the functional builds on the results; forces the
            in-process path (builds hold traces and NumPy arrays that should
            not be shipped between processes) and bypasses the result cache
            for reads.
        on_result:
            Optional callback invoked with each :class:`PointResult` as it
            completes (completion order, not expansion order) — the barrier
            return value is unaffected.
        journal:
            Write-ahead journal for this run, overriding the engine-level
            one (see the class docstring); recorded points replay without
            simulation, fresh completions are appended as they land.
        """
        results = {r.index: r
                   for r in self.iter_results(sweep, keep_builds=keep_builds,
                                              on_result=on_result,
                                              journal=journal)}
        return [results[i] for i in range(len(results))]

    def run_point(self, point: SweepPoint) -> PointResult:
        """Convenience: run a single point and return its result."""
        return self.run([point])[0]

    def iter_results(self, sweep: Union[SweepSpec, Iterable[SweepPoint]],
                     keep_builds: bool = False,
                     on_result: Optional[OnResult] = None,
                     journal: Union[None, str, SweepJournal] = None,
                     ) -> Iterator[PointResult]:
        """Yield one :class:`PointResult` per point *as each completes*.

        Journal replays and result-cache hits are yielded first (they are
        free), then simulated points in completion order — under a worker
        pool that order is nondeterministic, so each result carries its
        expansion-order ``index``.  The yielded set is always exactly the
        sweep's points; sorting by ``index`` reproduces :meth:`run`'s
        return value.

        ``on_result`` (if given) is called with every result just before it
        is yielded, which suits callers that both stream and collect.

        With a ``journal`` (here or on the engine), every non-replayed
        result is appended to it *before* ``on_result`` runs — a crash
        inside the callback still leaves the point recorded for resume.
        """
        points = [p.resolved() for p in
                  (sweep.points() if isinstance(sweep, SweepSpec) else sweep)]
        self.last_simulated = 0
        self.last_cached = 0
        self.last_journaled = 0
        self.last_trace_builds = 0
        self.last_pool_tasks = 0
        self.last_fallback_reason = None
        self.last_batches = []
        self.last_retries = 0
        self.last_pool_restarts = 0
        self.last_timeouts = 0
        self.last_failures = []
        self.last_quarantined = 0

        if isinstance(journal, (str, os.PathLike)):
            journal = SweepJournal(journal)
        if journal is None:
            journal = self.journal
        use_journal = journal is not None and not keep_builds
        completed = journal.load() if use_journal else {}

        try:
            yield from self._iter_results_journaled(
                points, journal, use_journal, completed, on_result,
                keep_builds)
        finally:
            # Release the journal's writer lock (and file handle) whether
            # the run completed, raised, or the consumer abandoned the
            # generator — a later run (this process or another) must be
            # able to take the lock.
            if use_journal:
                journal.close()

    def _iter_results_journaled(self, points: Sequence[SweepPoint],
                                journal: Optional[SweepJournal],
                                use_journal: bool,
                                completed: Dict[str, Dict[str, Any]],
                                on_result: Optional[
                                    Callable[[PointResult], None]],
                                keep_builds: bool) -> Iterator[PointResult]:
        def key_of(point: SweepPoint) -> str:
            if self.cache is not None:
                return self.cache.key_for(point)
            return point_key(point, version=self._version)

        def emit(result: PointResult) -> PointResult:
            if use_journal and not result.journaled:
                journal.record(key_of(result.point), result)
            if on_result is not None:
                on_result(result)
            return result

        # Serve what we can from the journal, then the result cache.
        skip_failed = (use_journal and self.resume_failed == "skip"
                       and journal.failed)
        todo: List[int] = []
        for i, point in enumerate(points):
            if completed:
                record = completed.get(key_of(point))
                if record is not None:
                    sim = sim_from_dict(record["sim"])
                    stats = stats_from_dict(record["stats"])
                    self.last_journaled += 1
                    yield emit(PointResult(point=point, sim=sim, stats=stats,
                                           journaled=True,
                                           checked=bool(
                                               record.get("checked", True)),
                                           index=i))
                    continue
            if skip_failed:
                record = journal.failed.get(key_of(point))
                if record is not None:
                    failure = PointFailure.from_dict(record["failure"])
                    failure.index = i
                    self.last_journaled += 1
                    self.last_failures.append(failure)
                    if failure.quarantined:
                        self.last_quarantined += 1
                    yield emit(PointResult(point=point, journaled=True,
                                           checked=False, failure=failure,
                                           index=i))
                    continue
            if self.cache is not None and not keep_builds:
                cached = self.cache.get(point)
                if cached is not None:
                    sim, stats = cached
                    self.last_cached += 1
                    yield emit(PointResult(point=point, sim=sim, stats=stats,
                                           cached=True, index=i))
                    continue
            todo.append(i)

        if not todo:
            return

        # A set: results land in completion order under the pool, and a
        # list's remove() would make every landing an O(n) scan.  Order for
        # the serial path comes from sorting, not from insertion.
        remaining: Set[int] = set(todo)
        if self.jobs > 1 and len(todo) > 1 and not keep_builds:
            for result in self._iter_pool(points, remaining):
                yield emit(self._record(result))
            # On pool fallback `remaining` still holds what the pool did
            # not finish; the serial loop below completes the sweep.

        for result in self._iter_serial(points, remaining, keep_builds):
            yield emit(self._record(result))

    # ------------------------------------------------------------------

    def _iter_serial(self, points: Sequence[SweepPoint],
                     remaining: Set[int],
                     keep_builds: bool) -> Iterator[PointResult]:
        """Yield the remaining points' results, simulated in this process.

        Points are batched by trace identity — one trace build and one
        lowering per group, then one batch simulation through the
        timing dispatch (all of a group's configurations at once), yielded
        one point at a time.  The generator stays lazy at group granularity:
        no group beyond the one being consumed is simulated ahead of the
        consumer.  ``keep_builds`` disables batching: every point runs its
        own front-end build so each result can retain one.

        A group that raises is re-run point by point so one bad point
        cannot abort the sweep (:meth:`_isolate_serial_group`).
        """
        if keep_builds:
            for i in sorted(remaining):
                sim, stats, build = _simulate_point_with_build(
                    points[i], self.check)
                remaining.discard(i)
                self.last_trace_builds += 1
                yield PointResult(point=points[i], sim=sim, stats=stats,
                                  build=build, checked=self.check, index=i)
            return

        for group in _group_by_trace(points, sorted(remaining)):
            try:
                rows, execution = _simulate_group(
                    [points[i] for i in group], self.check, self.backend)
            except Exception:
                yield from self._isolate_serial_group(points, group,
                                                      remaining)
                continue
            self.last_trace_builds += 1
            self.last_batches.append(execution)
            for i, (sim, stats) in zip(group, rows):
                remaining.discard(i)
                yield PointResult(point=points[i], sim=sim, stats=stats,
                                  checked=self.check, index=i)

    def _isolate_serial_group(self, points: Sequence[SweepPoint],
                              group: Sequence[int],
                              remaining: Set[int]) -> Iterator[PointResult]:
        """Re-run one raising serial group point by point.

        The solo pass doubles as the retry — a transient exception
        recovers here — and the points that *still* raise become
        :class:`~repro.sweep.supervisor.PointFailure` records
        (``phase="serial"``, two attempts) instead of aborting the sweep.
        """
        for i in group:
            self.last_retries += 1
            try:
                rows, execution = _simulate_group(
                    [points[i]], self.check, self.backend)
            except Exception as exc:
                remaining.discard(i)
                point = points[i]
                yield PointResult(
                    point=point, checked=False, index=i,
                    failure=PointFailure(
                        index=i, kernel=point.kernel, isa=point.isa,
                        config=point.config.name,
                        error_type=type(exc).__name__, message=str(exc),
                        phase="serial", attempts=2))
                continue
            self.last_trace_builds += 1
            self.last_batches.append(execution)
            sim, stats = rows[0]
            remaining.discard(i)
            yield PointResult(point=points[i], sim=sim, stats=stats,
                              checked=self.check, index=i)

    def _record(self, result: PointResult) -> PointResult:
        """Account for one fresh (non-result-cached) result and cache it."""
        if result.failure is not None:
            self.last_failures.append(result.failure)
            if result.failure.quarantined:
                self.last_quarantined += 1
            return result
        self.last_simulated += 1
        # Only verified results may enter the cache: entries carry no
        # "unchecked" marker, so a check=False run must not poison the
        # cache for later check=True engines.
        if self.cache is not None and result.checked:
            self.cache.put(result.point, result.sim, result.stats)
        return result

    def _iter_pool(self, points: Sequence[SweepPoint],
                   remaining: Set[int]) -> Iterator[PointResult]:
        """Yield pool-computed results, discarding their indices from
        ``remaining`` as they land.

        One submitted task is one *trace group* (see module docstring): the
        worker builds and lowers the group's trace once and simulates all
        of its configurations, so each distinct trace is built at most once
        across the whole pool.

        Execution is supervised (:class:`~repro.sweep.supervisor
        .PoolSupervisor`): infrastructure failures respawn the pool with
        backoff, hung tasks are detected by ``task_timeout`` deadlines and
        re-submitted, and points that repeatedly kill or hang a worker are
        quarantined — yielded as failed results — instead of costing the
        run its parallelism.  Only when the restart budget is spent does
        the generator stop with :attr:`last_fallback_reason` set and the
        unfinished indices still in ``remaining``, for the caller's serial
        path to finish.
        """
        groups = _group_by_trace(points, sorted(remaining))
        self.last_pool_tasks = len(groups)
        workers = min(self.jobs, len(groups), (os.cpu_count() or 1) * 4)

        def make_args(indices: Sequence[int]) -> tuple:
            return (tuple(points[i] for i in indices), self.check,
                    self.backend)

        supervisor = PoolSupervisor(
            points, groups, make_args, _pool_worker, workers,
            # The lambda resolves the engine module's ProcessPoolExecutor
            # symbol per call, so tests that monkeypatch it keep working.
            pool_factory=lambda n: ProcessPoolExecutor(max_workers=n),
            policy=self.policy)
        events = supervisor.run()
        try:
            for kind, payload, extra in events:
                # Fold the supervision telemetry in continuously, so the
                # streaming callbacks (--stream-jsonl) see current counts
                # with each result, not only the end-of-run totals.
                self.last_retries = supervisor.retries
                self.last_pool_restarts = supervisor.pool_restarts
                self.last_timeouts = supervisor.timeouts
                if kind == "failure":
                    failure: PointFailure = payload
                    remaining.discard(failure.index)
                    yield PointResult(point=points[failure.index],
                                      checked=False, failure=failure,
                                      index=failure.index)
                    continue
                indices = payload
                rows, execution = extra
                self.last_trace_builds += 1
                self.last_batches.append(execution)
                for i, (sim, stats) in zip(indices, rows):
                    remaining.discard(i)
                    yield PointResult(point=points[i], sim=sim, stats=stats,
                                      checked=self.check, index=i)
        finally:
            # Runs on normal completion, on fallback, and — crucially — when
            # the consumer closes the generator early (GeneratorExit at a
            # yield): closing the supervision loop tears its pool down, so
            # queued points are cancelled instead of being executed to
            # completion behind the caller's back.
            events.close()
            self.last_retries = supervisor.retries
            self.last_pool_restarts = supervisor.pool_restarts
            self.last_timeouts = supervisor.timeouts
            if supervisor.fallback_reason is not None:
                self.last_fallback_reason = supervisor.fallback_reason


def ensure_engine(engine: Optional[SweepEngine], jobs: int = 1,
                  cache_dir: Optional[str] = None,
                  backend: str = "lowered") -> SweepEngine:
    """Return ``engine`` if given, else a fresh one from the plain options.

    Shared by every experiment driver that accepts either a pre-configured
    engine or bare ``jobs``/``cache_dir`` keyword arguments.
    """
    if engine is not None:
        return engine
    return SweepEngine(jobs=jobs, cache_dir=cache_dir, backend=backend)
