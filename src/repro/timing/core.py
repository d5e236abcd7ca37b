"""Interval-style out-of-order core model.

Instructions from a trace are processed in program order; for each one the
model computes

* ``rename`` time — bounded by in-order fetch/rename bandwidth, ROB space,
  issue-queue space in the instruction's domain and rename head-room of each
  destination register file;
* ``ready`` time — the dataflow constraint (all source registers ready);
* ``issue`` time — bounded by a free functional unit / memory port, issue
  bandwidth and the ready time;
* ``complete`` time — issue + execution latency + (occupancy - 1) for
  multi-cycle vector/matrix instructions;
* ``commit`` time — in-order, bounded by commit bandwidth.

This is the standard interval approximation of an out-of-order pipeline: it
captures dataflow ILP, structural hazards and the latency-hiding ability of
the instruction window without a cycle-by-cycle event loop, which keeps the
pure-Python model fast enough to sweep the paper's full parameter space.
"""

from __future__ import annotations

import math
from heapq import heapreplace
from typing import Dict, Optional, Union

from repro.isa.opclasses import OpClass, RegFile
from repro.timing.config import MachineConfig
from repro.timing.lowered import REG_POOL_ORDER, LoweredTrace
from repro.timing.resources import BandwidthLimiter, FunctionalUnitPool, SlotPool
from repro.timing.results import SimResult
from repro.trace.container import Trace
from repro.trace.instruction import RegRef

__all__ = ["MODEL_VERSION", "VL_RENAME_SLOTS", "OutOfOrderCore",
           "completion_latency", "occupancy_of", "simulate_trace"]

#: Version tag of the timing model's *numbers*.  Bump whenever a change can
#: alter simulated cycle counts for any trace/configuration — the sweep
#: result cache folds this into every key, so a bump invalidates all cached
#: results.  Pure-performance refactors that preserve the numbers (checked
#: by tests/test_golden_regression.py) must NOT bump it.
MODEL_VERSION = "1"

#: Rename slots of the vector-length register's tiny pool (it is never a
#: bottleneck, but the dependence handling stays uniform).  Shared by the
#: object loop, the lowered interpreter and the vector batch backend so
#: the three can never drift.
VL_RENAME_SLOTS = 8

# Sentinels of the lowered interpreter: a rename pool with no head-room
# limit is never full, and history pads never bind a bound.
_UNBOUNDED = 1 << 62
_NEVER = -(1 << 62)


# Domain names used for issue queues.
_DOMAIN_INT = "int"
_DOMAIN_MEM = "mem"
_DOMAIN_MEDIA = "media"


def _domain_of(opclass: OpClass) -> str:
    if opclass.is_memory:
        return _DOMAIN_MEM
    if opclass.is_media:
        return _DOMAIN_MEDIA
    return _DOMAIN_INT


def _rename_headroom(config: MachineConfig) -> Dict[RegFile, int]:
    """Rename slots per register file: physical minus architectural
    registers (<= 0 means unconstrained)."""
    return {
        RegFile.INT: config.phys_int_regs - config.arch_int_regs,
        RegFile.MEDIA: config.phys_media_regs - config.arch_media_regs,
        RegFile.MATRIX: config.phys_matrix_regs - config.arch_matrix_regs,
        RegFile.ACC: config.phys_acc_regs - config.arch_acc_regs,
        RegFile.VL: VL_RENAME_SLOTS,
    }


def occupancy_of(config: MachineConfig, opclass: OpClass, vly: int,
                 non_pipelined: bool) -> int:
    """Cycles an instruction shape occupies its functional unit or port.

    Pure function of ``(config, shape)``; shared by the object loop, the
    lowered backend's per-shape resolution and the vector batch backend's
    per-(shape, config) tables, so the three can never drift apart.
    """
    if non_pipelined:
        # Non-pipelined matrix ops (transpose) hold the unit for their
        # whole latency.
        return config.latency_of(opclass)
    if opclass.is_memory:
        if vly > 1:
            return math.ceil(vly / config.mem_port_width)
        return 1
    if opclass.is_media and vly > 1:
        return math.ceil(vly / config.media_lanes)
    return 1


def completion_latency(config: MachineConfig, opclass: OpClass, vly: int,
                       occupancy: int) -> int:
    """Cycles from issue to result availability (see :func:`occupancy_of`)."""
    base = config.latency_of(opclass)
    if opclass.is_store:
        return 1
    latency = base + (occupancy - 1)
    if opclass is OpClass.MEDIA_ACC and vly > 1:
        # MOM pipelined dimension-Y reduction: extra fixed latency for the
        # reduction tree (paper section 3.1).
        latency += config.mom_reduction_latency
    return latency


class OutOfOrderCore:
    """One simulated out-of-order core instance.

    A core instance is single-use: create one per (trace, configuration)
    pair, or use the :func:`simulate_trace` convenience wrapper.  A second
    :meth:`run`/:meth:`run_lowered` call on the same instance raises —
    resource scoreboards and stall counters carry state from the first run,
    so reuse would silently corrupt the results.
    """

    def __init__(self, config: MachineConfig) -> None:
        # Fail at construction, not mid-run: with no unit (or no issue
        # slot) an instruction can never issue, and the issue searches of
        # both loops would scan forever.
        for name, count in (("ialu", config.num_int_alu),
                            ("imul", config.num_int_mul),
                            ("mem", config.num_mem_ports),
                            ("media", config.num_media_fu)):
            if count < 1:
                raise ValueError(
                    f"functional unit pool {name!r} needs >= 1 unit")
        if config.issue_width < 1:
            raise ValueError("bandwidth must be >= 1")
        self.config = config
        self._used = False
        self._stalls: Dict[str, int] = {
            "rob": 0,
            "issue_queue": 0,
            "rename_regs": 0,
            "fetch_bw": 0,
        }

    # ------------------------------------------------------------------

    def _occupancy_of(self, opclass: OpClass, vly: int,
                      non_pipelined: bool) -> int:
        """Cycles an instruction shape occupies its functional unit or port."""
        return occupancy_of(self.config, opclass, vly, non_pipelined)

    def _completion_latency(self, opclass: OpClass, vly: int,
                            occupancy: int) -> int:
        """Cycles from issue to result availability."""
        return completion_latency(self.config, opclass, vly, occupancy)

    def _mark_used(self) -> None:
        if self._used:
            raise RuntimeError(
                "OutOfOrderCore instances are single-use: resource "
                "scoreboards and stall counters carry state from the first "
                "run; create a fresh core (or call simulate_trace) per "
                "(trace, configuration) pair")
        self._used = True

    def _object_trackers(self) -> tuple:
        """The reference resource trackers :meth:`run` drives.

        Returns ``(fu_by_class, queue_by_class, rename_pools, issue_bw)``:
        the functional-unit pool and issue queue per operation class (both
        pure functions of the opclass, resolved here so the loop pays no
        chain of enum-property checks), the rename head-room pool per
        register file (physical minus architectural) and the issue-bandwidth
        limiter.  Built per run, not per core: only the object loop uses
        them.
        """
        cfg = self.config
        int_alu = FunctionalUnitPool("ialu", cfg.num_int_alu)
        int_mul = FunctionalUnitPool("imul", cfg.num_int_mul)
        mem_ports = FunctionalUnitPool("mem", cfg.num_mem_ports)
        media_fu = FunctionalUnitPool("media", cfg.num_media_fu)
        queues = {
            _DOMAIN_INT: SlotPool("intq", cfg.int_queue_size),
            _DOMAIN_MEM: SlotPool("memq", cfg.mem_queue_size),
            _DOMAIN_MEDIA: SlotPool("mediaq", cfg.media_queue_size),
        }
        rename_pools = {file: SlotPool(f"{file.value}-regs", slots)
                        for file, slots in _rename_headroom(cfg).items()}
        fu_by_class: Dict[OpClass, FunctionalUnitPool] = {}
        queue_by_class: Dict[OpClass, SlotPool] = {}
        for opclass in OpClass:
            if opclass.is_memory:
                fu = mem_ports
            elif opclass is OpClass.IMUL:
                fu = int_mul
            elif opclass.is_media:
                fu = media_fu
            else:
                fu = int_alu
            fu_by_class[opclass] = fu
            queue_by_class[opclass] = queues[_domain_of(opclass)]
        return (fu_by_class, queue_by_class, rename_pools,
                BandwidthLimiter(cfg.issue_width))

    # ------------------------------------------------------------------

    def run(self, trace: Trace, record_timeline: bool = False) -> SimResult:
        """Simulate ``trace`` and return the timing result.

        With ``record_timeline`` the per-instruction pipeline times are kept
        in :attr:`timeline` as ``(opcode, rename, ready, issue, complete,
        commit)`` tuples — useful for debugging and for the micro-level unit
        tests of the timing model.

        This is the object-level reference loop; :meth:`run_lowered` executes
        the same interval model over a pre-compiled
        :class:`~repro.timing.lowered.LoweredTrace` at a multiple of the
        speed, with bit-identical cycle counts.
        """
        self._mark_used()
        cfg = self.config
        fu_by_class, queue_by_class, rename_pools, issue_bw = \
            self._object_trackers()
        # Register readiness (architectural registers all ready at cycle
        # 0) and the per-instruction rename/commit times.
        reg_ready: Dict[RegRef, int] = {}
        rename_times: list[int] = []
        commit_times: list[int] = []
        self.timeline: list[tuple] = []

        # The loop below is the simulator's hot path (it runs once per
        # dynamic instruction across every sweep point), so everything
        # loop-invariant is hoisted into locals: configuration fields,
        # bound methods, the per-opclass lookup tables, and the stall
        # counters (plain ints here, written back to the dict at the end).
        fetch_width = cfg.fetch_width
        rob_size = cfg.rob_size
        commit_width = cfg.commit_width
        rename_pools_get = rename_pools.get
        reg_ready_get = reg_ready.get
        bw_probe = issue_bw.probe
        bw_next_slot = issue_bw.next_slot
        rename_append = rename_times.append
        commit_append = commit_times.append
        timeline_append = self.timeline.append
        media_acc = OpClass.MEDIA_ACC
        acc_file = RegFile.ACC

        stalls = self._stalls
        stall_fetch_bw = stalls["fetch_bw"]
        stall_rob = stalls["rob"]
        stall_queue = stalls["issue_queue"]
        stall_rename = stalls["rename_regs"]

        # (occupancy, completion latency) per (opclass, vly, non_pipelined):
        # both are pure functions of that triple for a fixed configuration,
        # so each distinct shape is computed once per core instead of once
        # per instruction.
        op_timing: dict = {}

        total_ops = 0
        last_commit = 0

        for i, instr in enumerate(trace):
            total_ops += instr.ops
            opclass = instr.opclass
            dsts = instr.dsts

            # ---- rename ------------------------------------------------
            candidate = rename_times[-1] if rename_times else 0
            if i >= fetch_width:
                bw_bound = rename_times[i - fetch_width] + 1
                if bw_bound > candidate:
                    stall_fetch_bw += bw_bound - candidate
                    candidate = bw_bound
            if i >= rob_size:
                rob_bound = commit_times[i - rob_size]
                if rob_bound > candidate:
                    stall_rob += rob_bound - candidate
                    candidate = rob_bound

            queue = queue_by_class[opclass]
            q_bound = queue.constrain(candidate)
            if q_bound > candidate:
                stall_queue += q_bound - candidate
                candidate = q_bound

            for dst in dsts:
                pool = rename_pools_get(dst.file)
                if pool is None:
                    continue
                r_bound = pool.constrain(candidate)
                if r_bound > candidate:
                    stall_rename += r_bound - candidate
                    candidate = r_bound

            rename_time = candidate
            rename_append(rename_time)

            # ---- ready (dataflow) ---------------------------------------
            ready = rename_time + 1
            for src in instr.srcs:
                t = reg_ready_get(src, 0)
                if t > ready:
                    ready = t

            # ---- issue ---------------------------------------------------
            # The instruction needs a functional unit (or memory port) for its
            # whole occupancy window and one issue slot in the start cycle;
            # iterate to a fixed point that satisfies both.
            timing = op_timing.get((opclass, instr.vly, instr.non_pipelined))
            if timing is None:
                occupancy = self._occupancy_of(opclass, instr.vly,
                                               instr.non_pipelined)
                timing = (occupancy,
                          self._completion_latency(opclass, instr.vly,
                                                   occupancy))
                op_timing[(opclass, instr.vly, instr.non_pipelined)] = timing
            occupancy, latency = timing

            fu = fu_by_class[opclass]
            fu_find_start = fu.find_start
            start = ready
            while True:
                fu_start = fu_find_start(start, occupancy)
                bw_start = bw_probe(fu_start)
                if bw_start == fu_start:
                    issue_time = fu_start
                    break
                start = bw_start
            fu.reserve(issue_time, occupancy)
            bw_next_slot(issue_time)
            queue.occupy(issue_time)

            # ---- complete ------------------------------------------------
            complete = issue_time + latency
            if opclass is media_acc and instr.vly <= 1:
                # MDMX-style accumulate: the accumulator feedback path lives in
                # the final adder stage, so a dependent accumulate can issue the
                # next cycle even though the full result (as read out into an
                # ordinary register) takes the whole latency.  This is the
                # "artificial recurrence" of section 3.1 at its real cost of
                # one cycle per accumulate.
                acc_forward = issue_time + occupancy
                for dst in dsts:
                    reg_ready[dst] = acc_forward if dst.file is acc_file else complete
            else:
                for dst in dsts:
                    reg_ready[dst] = complete

            # ---- commit --------------------------------------------------
            commit = complete + 1
            if commit_times:
                prev_commit = commit_times[-1]
                if prev_commit > commit:
                    commit = prev_commit
            if i >= commit_width:
                cw_bound = commit_times[i - commit_width] + 1
                if cw_bound > commit:
                    commit = cw_bound
            commit_append(commit)
            last_commit = commit

            for dst in dsts:
                pool = rename_pools_get(dst.file)
                if pool is not None:
                    pool.occupy(commit)

            if record_timeline:
                timeline_append(
                    (instr.opcode, rename_time, ready, issue_time, complete, commit)
                )

        stalls["fetch_bw"] = stall_fetch_bw
        stalls["rob"] = stall_rob
        stalls["issue_queue"] = stall_queue
        stalls["rename_regs"] = stall_rename

        return SimResult(
            cycles=last_commit,
            instructions=len(trace),
            operations=total_ops,
            kernel=trace.name,
            isa=trace.isa,
            config_name=cfg.name,
            mem_latency=cfg.mem_latency,
            issue_width=cfg.issue_width,
            stall_breakdown=dict(self._stalls),
        )

    # ------------------------------------------------------------------

    def run_lowered(self, lowered: LoweredTrace,
                    record_timeline: bool = False) -> SimResult:
        """Simulate a pre-lowered trace; bit-identical to :meth:`run`.

        The interval model is the same, but every per-instruction cost the
        object loop pays is gone: instructions are rows of flat arrays,
        register scoreboards are lists indexed by dense integer ids, the
        ``(occupancy, latency, functional unit, issue queue)`` resolution
        happens once per *shape*, and the resource trackers of
        :mod:`repro.timing.resources` are replaced by cheaper state that
        the model's monotone times make exact:

        * **Scoreboards** — free functional units and issue slots as
          per-cycle ``int`` lists, grown on demand, searched once for the
          earliest cycle with a unit free for the whole occupancy window
          and a free issue slot: the fixed point the object loop's
          alternating unit/bandwidth probes converge to.
        * **Issue queues** — a min-heap of the ``capacity`` latest issue
          times of the domain.  Rename times never decrease, so the object
          loop's drained heap is exactly the set of earlier issue times
          later than the candidate, never larger than the capacity: when
          it is full it *is* the top-capacity set, and its head is the
          bound.  One ``heapreplace`` per instruction, no draining.
        * **Rename pools** — an append-only list of release times with a
          read pointer.  Commit times never decrease, so releases arrive
          already sorted and the object loop's heap pops them front to
          back; this holds with two destinations in one pool too, whose
          double push can leave the pool one over capacity exactly as the
          reference does.

        Pinned to the object loop, timelines included, by the golden
        snapshots and the equivalence suite in
        ``tests/timing/test_lowered.py``.
        """
        self._mark_used()
        cfg = self.config
        self.timeline: list[tuple] = []
        n = lowered.num_instructions

        # --- per-configuration shape resolution --------------------------
        # Functional units in the object loop's grouping (int ALU, int mul,
        # memory ports, media units); each scoreboard holds the *free*
        # units per cycle, the issue scoreboard the free issue slots.
        fu_counts = (cfg.num_int_alu, cfg.num_int_mul, cfg.num_mem_ports,
                     cfg.num_media_fu)
        fills = fu_counts + (cfg.issue_width,)
        boards = [[fill] for fill in fills]
        # Issue queues: heaps of the latest `capacity` issue times,
        # prefilled with zeros, which never bind (every candidate is >= 0):
        # the head is always the bound.  Capacity zero (unconstrained) is
        # an empty list.
        queues = ([0] * max(0, cfg.int_queue_size),
                  [0] * max(0, cfg.mem_queue_size),
                  [0] * max(0, cfg.media_queue_size))
        media_acc = OpClass.MEDIA_ACC
        resolved = []
        max_window = 1
        min_latency = 0
        for opclass, vly, non_pipelined in lowered.shapes:
            occupancy = self._occupancy_of(opclass, vly, non_pipelined)
            latency = self._completion_latency(opclass, vly, occupancy)
            if opclass.is_memory:
                fu, queue = boards[2], queues[1]
            elif opclass is OpClass.IMUL:
                fu, queue = boards[1], queues[0]
            elif opclass.is_media:
                fu, queue = boards[3], queues[2]
            else:
                fu, queue = boards[0], queues[0]
            # A unit is held for at least one cycle (FunctionalUnitPool
            # reserves max(1, occupancy)); accumulator forwarding adds the
            # raw occupancy, None marks shapes without it.
            window = max(1, occupancy)
            forward = occupancy if (opclass is media_acc and vly <= 1) \
                else None
            resolved.append((window, latency, fu, queue, forward))
            max_window = max(max_window, window)
            min_latency = min(min_latency, latency)

        # Scoreboard reach.  Let C be the latest commit.  Every commit is
        # >= its issue + latency + 1, so every issue time so far is
        # <= C + slack (slack = max(0, -1 - min_latency)); so are rename
        # times, which wait at most for an earlier issue or commit.  Ready
        # times and the ends of all reserved windows are then
        # <= C + slack + max_window, beyond which both scoreboards are all
        # free, so the search stops by that cycle and its window ends
        # before C + reach.  Growing the lists whenever a commit breaks
        # C + reach <= size keeps every subscript in range.
        reach = max(0, -1 - min_latency) + 2 * max_window
        size = n + reach + 64
        for board in boards:
            board *= size
        bw = boards[4]

        # Rename pools: release times in push order and, per pool, the
        # length at which it is full (read pointer + capacity).  A pool
        # with no head-room limit is never full.
        headroom = _rename_headroom(cfg)
        pool_caps = tuple(headroom[file] if headroom[file] > 0
                          else _UNBOUNDED for file in REG_POOL_ORDER)
        pool_limits = list(pool_caps)
        pools = tuple([] for _ in REG_POOL_ORDER)
        pool_appends = tuple(pool.append for pool in pools)

        # --- hot-loop locals ---------------------------------------------
        # Rename/commit histories are padded in front so the fetch, ROB
        # and commit-width bounds are plain subscripts with no "is there an
        # i - width yet" branch: rename_times[i] is the rename of
        # instruction i - fetch_width, commit_times[i + rob_off] the commit
        # of i - rob_size and commit_times[i + cw_off] that of
        # i - commit_width (pads never bind).
        pad = max(cfg.rob_size, cfg.commit_width)
        rob_off = pad - cfg.rob_size
        cw_off = pad - cfg.commit_width
        rename_times = [_NEVER] * cfg.fetch_width
        commit_times = [_NEVER] * pad
        rename_append = rename_times.append
        commit_append = commit_times.append
        reg_ready = [0] * lowered.num_regs
        timeline_append = self.timeline.append
        heapreplace_ = heapreplace
        opcodes = lowered.opcodes
        opcode_ids = lowered.opcode_ids

        stalls = self._stalls
        stall_fetch_bw = stalls["fetch_bw"]
        stall_rob = stalls["rob"]
        stall_queue = stalls["issue_queue"]
        stall_rename = stalls["rename_regs"]

        prev_rename = 0
        prev_commit = _NEVER

        for i, sid, srcs, dsts in zip(range(n), lowered.shape_ids,
                                      lowered.srcs, lowered.dsts):
            window, latency, fu, queue, forward = resolved[sid]

            # ---- rename ------------------------------------------------
            candidate = prev_rename
            bound = rename_times[i] + 1
            if bound > candidate:
                stall_fetch_bw += bound - candidate
                candidate = bound
            bound = commit_times[i + rob_off]
            if bound > candidate:
                stall_rob += bound - candidate
                candidate = bound
            if queue:
                bound = queue[0]
                if bound > candidate:
                    stall_queue += bound - candidate
                    candidate = bound
            for _reg, pool_i, _is_acc in dsts:
                released = pools[pool_i]
                if len(released) >= pool_limits[pool_i]:
                    # Possibly full: skip releases at or before the
                    # candidate (only while the pool stays full — the rest
                    # can wait, candidates never decrease), then take the
                    # earliest later release if it still is.
                    cap = pool_caps[pool_i]
                    head = pool_limits[pool_i] - cap
                    last = len(released) - cap
                    while head <= last and released[head] <= candidate:
                        head += 1
                    if head <= last:
                        bound = released[head]
                        head += 1
                        stall_rename += bound - candidate
                        candidate = bound
                    pool_limits[pool_i] = head + cap
            prev_rename = candidate
            rename_append(candidate)

            # ---- ready (dataflow) ---------------------------------------
            ready = candidate + 1
            for r in srcs:
                t = reg_ready[r]
                if t > ready:
                    ready = t

            # ---- issue ---------------------------------------------------
            # The earliest cycle with a unit free for the whole window and
            # a free issue slot in the start cycle.
            issue = ready
            if window == 1:
                while not fu[issue] or not bw[issue]:
                    issue += 1
                fu[issue] -= 1
            else:
                while True:
                    if not bw[issue]:
                        issue += 1
                        continue
                    free = fu[issue:issue + window]
                    if min(free):
                        break
                    # Every start up to the window's last busy cycle
                    # overlaps it.
                    issue += window - free[::-1].index(0)
                fu[issue:issue + window] = [f - 1 for f in free]
            bw[issue] -= 1
            if queue:
                # The rename above waited for the head, so the new issue
                # time is later: it always displaces the head.
                heapreplace_(queue, issue)

            # ---- complete ------------------------------------------------
            complete = issue + latency

            # ---- commit --------------------------------------------------
            commit = complete + 1
            if prev_commit > commit:
                commit = prev_commit
            bound = commit_times[i + cw_off] + 1
            if bound > commit:
                commit = bound
            commit_append(commit)
            prev_commit = commit
            if commit + reach > size:
                grow = max(size, commit + reach - size)
                for board, fill in zip(boards, fills):
                    board.extend([fill] * grow)
                size += grow

            if forward is None:
                for reg, pool_i, _is_acc in dsts:
                    reg_ready[reg] = complete
                    pool_appends[pool_i](commit)
            else:
                # MDMX-style accumulate: the accumulator feedback path lives
                # in the final adder stage (see run() for the full story).
                acc_ready = issue + forward
                for reg, pool_i, is_acc in dsts:
                    reg_ready[reg] = acc_ready if is_acc else complete
                    pool_appends[pool_i](commit)

            if record_timeline:
                timeline_append((opcodes[opcode_ids[i]], candidate, ready,
                                 issue, complete, commit))

        stalls["fetch_bw"] = stall_fetch_bw
        stalls["rob"] = stall_rob
        stalls["issue_queue"] = stall_queue
        stalls["rename_regs"] = stall_rename

        return SimResult(
            cycles=prev_commit if n else 0,
            instructions=lowered.num_instructions,
            operations=lowered.total_ops,
            kernel=lowered.name,
            isa=lowered.isa,
            config_name=cfg.name,
            mem_latency=cfg.mem_latency,
            issue_width=cfg.issue_width,
            stall_breakdown=dict(self._stalls),
        )


def simulate_trace(trace: Union[Trace, LoweredTrace],
                   config: Optional[MachineConfig] = None) -> SimResult:
    """Simulate a trace on a (fresh) out-of-order core.

    The trace is lowered (once — :meth:`Trace.lower` memoises) and executed
    through the flat-array backend; an already-lowered trace is accepted
    directly, which is what the sweep engine's batching does to amortise
    lowering across every configuration sharing a trace.

    Parameters
    ----------
    trace:
        Dynamic instruction trace produced by a kernel builder, or its
        pre-compiled :class:`~repro.timing.lowered.LoweredTrace`.
    config:
        Machine configuration; defaults to the paper's 4-way core with
        1-cycle memory latency.
    """
    if config is None:
        config = MachineConfig.for_way(4)
    core = OutOfOrderCore(config)
    if isinstance(trace, LoweredTrace):
        return core.run_lowered(trace)
    return core.run_lowered(trace.lower())
