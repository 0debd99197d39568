"""The simulated machine: event streams × technique × cache × flush engine.

``Machine.run`` executes a workload's per-thread event streams against

- one shared hardware cache (threads contend for capacity, the effect
  behind Table IV's rising L1 miss ratios),
- one asynchronous flush queue *per thread* (clflush ordering is a
  per-core constraint; the emulated NVRAM behind it is DRAM with
  bandwidth to spare, as on the paper's testbed), and
- one *persistence technique instance per thread* (the paper's software
  caches are strictly per-thread, §II-B: "There is no data sharing
  between software caches").

Threads are interleaved deterministically by smallest-cycle-first
scheduling: the thread whose clock is furthest behind runs the next batch
of events.  Wall-clock time of a run is the largest per-thread clock.

The technique object is duck-typed (see :mod:`repro.cache.policies`): the
machine calls ``bind(port)``, ``on_store(line)``, ``on_fase_begin()``,
``on_fase_end()`` (outermost FASEs only) and ``finish()``, and reads the
``cost_per_store`` attribute for per-store bookkeeping cycles.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.events import Event, EventBatch, EventKind
from repro.common.geometry import lines_spanned
from repro.locality.trace import WriteTrace
from repro.nvram.failure import (
    _ABSENT,
    FAULT_CLEAN,
    FAULT_REORDERED_FLUSH,
    FAULT_TORN_LINE,
    SITE_COMMIT,
    SITE_DRAIN,
    SITE_EVICT_FLUSH,
    SITE_LOG_APPEND,
    SITE_STORE,
    CrashedState,
    CrashPlan,
    PowerFailure,
    apply_reordered_flushes,
    apply_torn_lines,
)
from repro.nvram.flushqueue import FlushQueue
from repro.nvram.hwcache import HardwareCache
from repro.nvram.memory import NVRAM_BASE, MainMemory
from repro.nvram.stats import RunResult, ThreadStats
from repro.nvram.timing import DEFAULT_TIMING, TimingModel
from repro.obs.trace import (
    EV_DRAIN,
    EV_EVICT_FLUSH,
    EV_FASE_BEGIN,
    EV_FASE_END,
    EV_SIZE_SELECTED,
    EV_STALL,
    NULL_RECORDER,
)

#: Events a thread executes before the scheduler re-evaluates clocks.
SCHED_BATCH = 64

#: Flush categories that are injectable crash sites, and their class.
#: ``fase_end``/``eager``/``final`` flushes are not individually
#: injectable — the synchronous drain that follows them is the ordering
#: point, and it gets its own :data:`~repro.nvram.failure.SITE_DRAIN`.
_FLUSH_SITE = {
    "eviction": SITE_EVICT_FLUSH,
    "resize_eviction": SITE_EVICT_FLUSH,
    "clean": SITE_EVICT_FLUSH,
    "victim": SITE_EVICT_FLUSH,
    "log": SITE_LOG_APPEND,
    "commit": SITE_COMMIT,
}

#: ``evict_flush`` trace-event cause codes (the event's ``cause`` arg).
#: 0/1 are the schema-2 ``resize_evict`` flag values, so traces of the
#: base techniques are byte-identical across the rename; 2..4 only
#: appear when the corresponding policy stage is composed in.
_EVICT_TRACE_CAUSE = {
    "eviction": 0,
    "resize_eviction": 1,
    "clean": 2,
    "bypass": 3,
    "victim": 4,
}


@dataclass(frozen=True)
class MachineConfig:
    """Static configuration of the simulated machine."""

    timing: TimingModel = DEFAULT_TIMING
    l1_capacity_lines: int = 512      # 32 KiB of 64-byte lines
    l1_ways: int = 8
    track_values: bool = False        # needed for crash/recovery tests

    def __post_init__(self) -> None:
        if self.l1_capacity_lines < self.l1_ways:
            raise ConfigurationError("cache must hold at least one set")


class FlushPort:
    """The interface a persistence technique uses to act on the machine.

    One port per thread.  All flush accounting (counts by category, stall
    cycles, value write-backs) funnels through here.
    """

    __slots__ = ("_machine", "_ctx")

    def __init__(self, machine: "Machine", ctx: "_ThreadContext") -> None:
        self._machine = machine
        self._ctx = ctx

    # -- flushing ------------------------------------------------------

    def flush_async(
        self, line: int, category: str = "eviction", invalidate: bool = True
    ) -> None:
        """Issue one flush; the write-back overlaps with execution.

        ``invalidate=True`` models ``clflush`` (what Atlas uses);
        ``invalidate=False`` models ``clwb``, which writes back but keeps
        the line valid — cheaper on the next access, at the coherence
        caveat §II-A notes.
        """
        self._machine._do_flush(self._ctx, line, category, invalidate)

    def flush_sync(
        self,
        lines: Iterable[int],
        category: str = "fase_end",
        invalidate: bool = True,
    ) -> None:
        """Flush ``lines`` and stall until all write-backs are durable."""
        machine = self._machine
        ctx = self._ctx
        for line in lines:
            machine._do_flush(ctx, line, category, invalidate)
        machine._do_drain(ctx, category)

    # -- bookkeeping -----------------------------------------------------

    def add_overhead(self, cycles: int, instructions: int = 0) -> None:
        """Charge technique bookkeeping (e.g. MRC analysis) to the thread."""
        stats = self._ctx.stats
        stats.cycles += cycles
        stats.instructions += instructions
        stats.technique_overhead_cycles += cycles

    def add_adaptation_cost(self, cycles: int) -> None:
        """Charge online adaptation (sampling analysis, size selection)."""
        stats = self._ctx.stats
        stats.cycles += cycles
        stats.adaptation_cycles += cycles

    def record_selected_size(self, size: int) -> None:
        """Log an adaptive cache-size decision."""
        ctx = self._ctx
        ctx.stats.selected_sizes.append(size)
        machine = self._machine
        if machine.metrics is not None:
            # The post-adaptation gauge series starts at the thread's
            # *first* selection (see Machine._sample_metrics).
            tid = ctx.thread_id
            machine._selected_size[tid] = size
            machine._first_selection.setdefault(tid, ctx.stats.cycles)
        rec = machine.recorder
        if rec.enabled:
            rec.record(EV_SIZE_SELECTED, ctx.thread_id, ctx.stats.cycles, size)

    def record_event(self, kind: str, a: int = 0, b: int = 0, c: int = 0) -> None:
        """Emit one structured trace event at the thread's current time.

        A no-op when tracing is off — techniques and controllers call
        this unconditionally; the ``enabled`` gate keeps the cost to one
        attribute load.
        """
        rec = self._machine.recorder
        if rec.enabled:
            ctx = self._ctx
            rec.record(kind, ctx.thread_id, ctx.stats.cycles, a, b, c)

    # -- context ---------------------------------------------------------

    @property
    def current_fase_id(self) -> int:
        """Unique id of the current outermost FASE, or -1 outside any."""
        return self._ctx.fase_uid if self._ctx.fase_depth > 0 else -1

    @property
    def thread_id(self) -> int:
        """Id of the thread this port belongs to."""
        return self._ctx.thread_id

    @property
    def outstanding(self) -> int:
        """Write-backs still in flight in this thread's flush queue.

        Zero means the flush engine is idle — the signal the background
        cleaning stage uses to spend write-back bandwidth the program
        is not using.
        """
        return self._ctx.flushq.outstanding


class _ThreadContext:
    """Mutable per-thread execution state (internal)."""

    __slots__ = (
        "thread_id",
        "stream",
        "technique",
        "flushq",
        "stats",
        "port",
        "fase_depth",
        "fase_uid",
        "commit_fase_uid",
        "next_fase_uid",
        "trace_lines",
        "trace_fids",
        "alive",
        "batch_iter",
        "batch",
        "batch_pos",
        "batch_cols",
    )

    def __init__(
        self,
        thread_id: int,
        stream: Iterator[Event],
        technique: object,
        record_trace: bool,
    ) -> None:
        self.thread_id = thread_id
        self.stream = stream
        self.technique = technique
        # Batched execution state (None when driven by a per-object stream).
        self.batch_iter: Optional[Iterator[EventBatch]] = None
        self.batch: Optional[EventBatch] = None
        self.batch_pos = 0
        self.batch_cols: Optional[Tuple[list, list, list]] = None
        self.flushq: Optional[FlushQueue] = None
        self.stats = ThreadStats(thread_id=thread_id)
        self.port: Optional[FlushPort] = None
        self.fase_depth = 0
        self.fase_uid = -1
        # Uid of the FASE currently committing: set just before the
        # technique's on_fase_end() runs (the drain it triggers happens
        # at depth 0, after fase_uid stops being "current"), cleared
        # implicitly by the next FASE.  -1 outside any commit.
        self.commit_fase_uid = -1
        # FASE uids unique across threads: thread_id in the high bits.
        self.next_fase_uid = thread_id << 40
        self.trace_lines: Optional[List[int]] = [] if record_trace else None
        self.trace_fids: Optional[List[int]] = [] if record_trace else None
        self.alive = True


class Machine:
    """Executes workloads under a persistence technique.

    Parameters
    ----------
    config:
        Machine configuration (timing model, cache geometry).
    recorder:
        Structured trace recorder (keyword-only); defaults to the
        disabled ``NULL_RECORDER``.
    metrics:
        Metrics registry (keyword-only); default ``None`` disables
        sampling entirely.
    """

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        *,
        recorder: Optional[object] = None,
        metrics: Optional[object] = None,
    ) -> None:
        self.config = config or MachineConfig()
        self.memory = MainMemory()
        self.hwcache = HardwareCache(
            self.config.l1_capacity_lines,
            self.config.l1_ways,
            track_values=self.config.track_values,
        )
        # Observability is strictly opt-in: the default NULL_RECORDER has
        # ``enabled = False``, which every recording site checks first,
        # so an untraced run does no extra work (DESIGN.md §9).
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.metrics = metrics
        self._metrics_prev: dict = {}
        # Post-adaptation gauge state: thread id -> cycle of its first
        # size selection / its current selected size (metrics only).
        self._first_selection: dict = {}
        self._selected_size: dict = {}
        self._stores_seen = 0
        self._crash_plan: Optional[CrashPlan] = None
        self.crashed_state: Optional[CrashedState] = None
        # Crash-site machinery (repro.faults).  ``_sites_active`` gates
        # every site hook with one attribute load, so runs that neither
        # enumerate sites nor capture crashed states pay nothing.
        self._sites_active = False
        self._sites_seen = 0
        self._site_log: Optional[List[Tuple[int, str, int, int]]] = None
        # Capture table: site -> [(fault_model, fault_seed), ...]; each
        # entry's crashed state goes to ``_capture_sink`` as the site
        # completes, and the run stops after ``_capture_last``.
        self._capture: Optional[Dict[int, List[Tuple[str, int]]]] = None
        self._capture_sink: Optional[Callable[[CrashedState], None]] = None
        self._capture_last = -1
        # In-flight hardware eviction write-backs, recorded only when a
        # reordered_flush crash is armed: (ctx, line, {addr: old durable}).
        self._record_inflight = False
        self._fault_inflight: List[Tuple[object, int, Dict[int, object]]] = []

    def _new_flushq(self) -> FlushQueue:
        t = self.config.timing
        return FlushQueue(t.flush_queue_depth, t.writeback_service)

    # ------------------------------------------------------------------
    # Crash-site enumeration and scheduled failures (repro.faults)
    # ------------------------------------------------------------------

    def record_sites(self) -> List[Tuple[int, str, int, int]]:
        """Enable crash-site enumeration; returns the live site log.

        Each completed injectable site appends one
        ``(index, site_class, thread_id, cycles)`` tuple.  Indices are
        global and in execution order; a deterministic replay of the same
        configuration visits the same sites with the same indices, which
        is the contract ``CrashPlan(at_site=...)`` relies on.
        """
        self._site_log = []
        self._sites_active = True
        return self._site_log

    @property
    def sites_seen(self) -> int:
        """How many injectable sites have completed so far."""
        return self._sites_seen

    def arm_crash_plan(self, plan: Optional[CrashPlan]) -> None:
        """Schedule a crash for session-driven execution.

        ``Machine.run`` arms its ``crash_plan`` argument through here;
        imperative drivers (sessions / the Atlas runtime) call it
        directly before pushing operations.  A site-triggered crash is
        the one-entry case of :meth:`arm_capture`: it raises
        :class:`~repro.nvram.failure.PowerFailure` out of the operation
        that completed the site, with ``crashed_state`` already
        populated.
        """
        self._crash_plan = plan
        if plan is None:
            return
        if plan.at_site is not None:
            self.arm_capture(
                {plan.at_site: [(plan.fault_model, plan.fault_seed)]},
                self._keep_crashed_state,
            )
        elif plan.fault_model == FAULT_REORDERED_FLUSH:
            self._record_inflight = True

    def arm_capture(
        self,
        targets: Dict[int, List[Tuple[str, int]]],
        sink: Callable[[CrashedState], None],
    ) -> None:
        """Capture the crashed state at many sites of one run.

        ``targets`` maps a site index to the ``(fault_model,
        fault_seed)`` crashes to take there.  As each target site
        completes, ``sink`` receives one :class:`CrashedState` per
        entry, in list order; execution then continues, exactly as if
        no crash had been taken, until the last target site, where
        :class:`~repro.nvram.failure.PowerFailure` stops the run.  A
        replay is deterministic, so each state equals what a run
        crashed at that one site would leave.  ``crashed_state`` is not
        set; the sink owns every state it is given.
        """
        self._capture = {site: list(wanted) for site, wanted in targets.items()}
        self._capture_sink = sink
        self._capture_last = max(self._capture, default=-1)
        self._sites_active = True
        # In-flight bookkeeping only; it changes no modelled counter.
        if any(
            model == FAULT_REORDERED_FLUSH
            for wanted in self._capture.values()
            for model, _seed in wanted
        ):
            self._record_inflight = True

    def _keep_crashed_state(self, state: CrashedState) -> None:
        self.crashed_state = state

    def _note_site(self, ctx: "_ThreadContext", site_class: str) -> None:
        """One injectable site just completed; capture crashes here."""
        idx = self._sites_seen
        self._sites_seen = idx + 1
        log = self._site_log
        if log is not None:
            log.append((idx, site_class, ctx.thread_id, ctx.stats.cycles))
        capture = self._capture
        if capture is not None:
            wanted = capture.get(idx)
            if wanted is not None:
                sink = self._capture_sink
                for model, seed in wanted:
                    sink(self._crashed_state(model, seed, idx, site_class))
                if idx == self._capture_last:
                    raise PowerFailure(
                        f"scheduled power failure at site {idx} ({site_class})"
                    )

    def _note_evict_inflight(
        self, ctx: "_ThreadContext", line: int, values: Dict[int, object]
    ) -> None:
        """Record a hardware eviction write-back as droppable in-flight.

        Captures the *previous* durable values (before ``write_back``),
        so a reordered_flush crash can revert a suffix.  Per-thread
        records are capped at the flush-queue depth: anything older has
        necessarily left the queue and completed.
        """
        read = self.memory.read
        olds = {addr: read(addr, _ABSENT) for addr in values}
        inflight = self._fault_inflight
        inflight.append((ctx, line, olds))
        depth = self.config.timing.flush_queue_depth
        count = 0
        for rec in inflight:
            if rec[0] is ctx:
                count += 1
        if count > depth:
            for i, rec in enumerate(inflight):
                if rec[0] is ctx:
                    del inflight[i]
                    break

    # ------------------------------------------------------------------
    # Internal flush plumbing
    # ------------------------------------------------------------------

    def _do_flush(
        self,
        ctx: _ThreadContext,
        line: int,
        category: str,
        invalidate: bool = True,
    ) -> None:
        t = self.config.timing
        stats = ctx.stats
        stats.cycles += t.flush_issue
        stats.instructions += 1
        stats.flushes += 1
        if category == "eviction" or category == "resize_eviction":
            # Resize-forced evictions stay in the eviction counter (the
            # RunResult schema is unchanged); the trace's cause code
            # below is what distinguishes them.
            stats.eviction_flushes += 1
        elif category == "fase_end":
            stats.fase_end_flushes += 1
        elif category == "eager":
            stats.eager_flushes += 1
        elif category == "log" or category == "commit":
            stats.log_flushes += 1
        elif category == "clean":
            stats.clean_flushes += 1
        elif category == "bypass":
            stats.bypass_flushes += 1
        elif category == "victim":
            stats.victim_flushes += 1
        else:
            stats.final_flushes += 1
        if invalidate:
            dirty = self.hwcache.clflush(line)
        else:
            dirty = self.hwcache.clwb(line)
        if self.config.track_values:
            values = self.hwcache.take_values(line)
            if values:
                self.memory.write_back(values.items())
        stall = 0
        if dirty:
            now, stall = ctx.flushq.issue(stats.cycles)
            stats.cycles = now
            stats.stall_cycles += stall
        rec = self.recorder
        if rec.enabled:
            cause = _EVICT_TRACE_CAUSE.get(category)
            if cause is not None:
                rec.record(
                    EV_EVICT_FLUSH,
                    ctx.thread_id,
                    stats.cycles,
                    line,
                    int(dirty),
                    cause,
                )
            if stall:
                rec.record(EV_STALL, ctx.thread_id, stats.cycles, stall, 0)
        # An explicit flush of ``line`` forces any earlier write-back of
        # the same line to have completed (same-line ordering), so it is
        # no longer droppable by a reordered_flush crash.
        if self._record_inflight and self._fault_inflight:
            self._fault_inflight = [
                r for r in self._fault_inflight if r[1] != line
            ]
        if self._sites_active:
            site = _FLUSH_SITE.get(category)
            if site is not None:
                self._note_site(ctx, site)

    def _do_drain(self, ctx: _ThreadContext, category: str = "final") -> None:
        stats = ctx.stats
        rec = self.recorder
        outstanding = ctx.flushq.outstanding if rec.enabled else 0
        now, stall = ctx.flushq.drain(stats.cycles)
        stats.cycles = now
        stats.stall_cycles += stall
        if rec.enabled:
            # A FASE-boundary drain is attributed to the committing FASE
            # (commit_fase_uid: fase_depth is already 0 here); uid 0 is a
            # valid FASE, so "no FASE" is explicitly -1.
            fase_id = ctx.commit_fase_uid if category == "fase_end" else -1
            rec.record(
                EV_DRAIN, ctx.thread_id, stats.cycles, stall, outstanding, fase_id
            )
        # The queue is empty: every write-back this thread had in flight
        # is durable, so none of its records remain droppable.
        if self._record_inflight and self._fault_inflight:
            self._fault_inflight = [
                r for r in self._fault_inflight if r[0] is not ctx
            ]
        if self._sites_active:
            self._note_site(ctx, SITE_DRAIN)

    def _evict_writeback(self, ctx: _ThreadContext, line: int) -> None:
        # A dirty line displaced by a fill: the hardware writes it back in
        # the background (no CPU issue cost, but channel occupancy).
        if self.config.track_values:
            values = self.hwcache.take_values(line)
            if values:
                if self._record_inflight:
                    self._note_evict_inflight(ctx, line, values)
                self.memory.write_back(values.items())
        stats = ctx.stats
        now, stall = ctx.flushq.issue(stats.cycles)
        stats.cycles = now
        stats.stall_cycles += stall
        if stall:
            rec = self.recorder
            if rec.enabled:
                rec.record(EV_STALL, ctx.thread_id, stats.cycles, stall, 1)

    # ------------------------------------------------------------------
    # Event execution
    # ------------------------------------------------------------------

    def _run_batch(self, ctx: _ThreadContext, budget: int) -> bool:
        """Run up to ``budget`` events of ``ctx``; return False at stream end."""
        stream = ctx.stream
        process = self._process_event
        for _ in range(budget):
            ev = next(stream, None)
            if ev is None:
                return False
            process(ctx, ev)
            if self.crashed_state is not None:
                return False
        return True

    def _run_batches(self, ctx: _ThreadContext, budget: int) -> bool:
        """Batched twin of :meth:`_run_batch`; returns False at stream end.

        Consumes up to ``budget`` events from ``ctx``'s batch stream with
        the event semantics of :meth:`_process_event` inlined, but with
        no per-event object allocation, no generator resumption, the
        per-quantum invariants (timing constants, cache, technique
        callbacks, crash plan) hoisted into locals, the batch columns
        decoded to plain lists once per batch, and the single-line store
        — the overwhelmingly common case — fully short-circuited.

        The hot ``ThreadStats`` counters are accumulated in locals.
        ``stats.cycles`` is written back before every point that can
        observe it (technique callbacks and dirty-eviction write-backs,
        which funnel into the flush queue via ``stats.cycles``; quantum
        exit, which the scheduler reads) and re-read after.
        ``instructions`` is kept as a local delta merged in at quantum
        exit: callbacks only ever increment ``stats.instructions``,
        never read it, so no per-call hand-off is needed.
        ``technique.cost_per_store`` is read once per quantum —
        techniques must keep it constant during a run, which every
        built-in technique does.

        Quantum boundaries fall on the same event counts as the
        per-event path, so the smallest-clock thread interleaving — and
        with it every statistic, including the shared hardware cache's —
        is bit-identical.  Enforced by tests/test_batch_equivalence.py.
        """
        config = self.config
        t = config.timing
        stats = ctx.stats
        hw = self.hwcache
        access = hw.access
        technique = ctx.technique
        on_store = technique.on_store
        # A technique that declares its on_store a no-op (BEST) saves
        # the call and the stats hand-off around it on every store.
        skip_on_store = getattr(technique, "on_store_noop", False)
        cost_per_store = technique.cost_per_store
        track_values = config.track_values
        trace_lines = ctx.trace_lines
        trace_fids = ctx.trace_fids
        evict_writeback = self._evict_writeback
        plan = self._crash_plan
        # Only store-count plans reach the batched path; ``Machine.run``
        # routes site enumeration and site-triggered plans to the
        # per-event loop.
        plan_after = plan.after_stores if plan is not None else None
        # Structured tracing: ``recording`` gates the (rare) FASE-boundary
        # sites below; with the null recorder the fast path adds only
        # this one hoisted attribute load per quantum.
        recorder = self.recorder
        recording = recorder.enabled
        thread_id = ctx.thread_id
        hit_cost = t.l1_hit
        miss_cost = t.l1_hit + t.l1_miss
        cpi = t.cpi
        nvram_base = NVRAM_BASE
        kind_store = EventKind.STORE
        kind_load = EventKind.LOAD
        kind_work = EventKind.WORK
        kind_fase_begin = EventKind.FASE_BEGIN
        # Hoisted counters; flushed back to stats in the finally block,
        # with cycles re-synced around every technique/flush-engine call
        # (the flush queue timestamps from stats.cycles).  instructions
        # is a local *delta* added back at the end: every callback only
        # ever increments stats.instructions, none reads it, so the two
        # accumulators merge exactly and no per-call sync is needed.
        cycles = stats.cycles
        instructions = 0
        persistent_stores = stats.persistent_stores
        persistent_loads = stats.persistent_loads
        fase_count = stats.fase_count
        stores_seen = self._stores_seen
        crashed = False
        try:
            while budget > 0:
                batch = ctx.batch
                pos = ctx.batch_pos
                if batch is None or pos >= len(batch.kinds):
                    batch = next(ctx.batch_iter, None)
                    if batch is None:
                        ctx.batch = None
                        return False
                    ctx.batch = batch
                    # Decode the compact columns to lists once per batch:
                    # list indexing beats array indexing in the hot loop,
                    # and the cost amortises over many scheduler quanta.
                    ctx.batch_cols = (
                        batch.kinds.tolist(),
                        batch.args.tolist(),
                        batch.sizes.tolist(),
                    )
                    pos = 0
                kinds, args, sizes = ctx.batch_cols
                end = len(kinds)
                if end - pos > budget:
                    end = pos + budget
                budget -= end - pos
                i = pos
                while i < end:
                    kind = kinds[i]
                    if kind == kind_store:
                        addr = args[i]
                        persistent = addr >= nvram_base
                        size = sizes[i]
                        first = addr >> 6
                        if first == (addr + size - 1) >> 6:
                            # Single-line store: no span tuple, no loop.
                            hit, evicted = access(first, True)
                            cycles += hit_cost if hit else miss_cost
                            if evicted is not None and evicted[1]:
                                stats.cycles = cycles
                                evict_writeback(ctx, evicted[0])
                                cycles = stats.cycles
                            if persistent:
                                if track_values:
                                    hw.store_value(first, addr, None)
                                if not skip_on_store:
                                    stats.cycles = cycles
                                    on_store(first)
                                    cycles = stats.cycles
                                if trace_lines is not None:
                                    trace_lines.append(first)
                                    trace_fids.append(
                                        ctx.fase_uid
                                        if ctx.fase_depth > 0
                                        else -1
                                    )
                        else:
                            for line in lines_spanned(addr, size):
                                hit, evicted = access(line, True)
                                cycles += hit_cost if hit else miss_cost
                                if evicted is not None and evicted[1]:
                                    stats.cycles = cycles
                                    evict_writeback(ctx, evicted[0])
                                    cycles = stats.cycles
                                if persistent:
                                    if track_values:
                                        hw.store_value(line, addr, None)
                                    if not skip_on_store:
                                        stats.cycles = cycles
                                        on_store(line)
                                        cycles = stats.cycles
                                    if trace_lines is not None:
                                        trace_lines.append(line)
                                        trace_fids.append(
                                            ctx.fase_uid
                                            if ctx.fase_depth > 0
                                            else -1
                                        )
                        instructions += 1
                        if persistent:
                            persistent_stores += 1
                            cycles += cost_per_store
                            instructions += cost_per_store
                            stores_seen += 1
                            if (
                                plan_after is not None
                                and stores_seen >= plan_after
                            ):
                                ctx.batch_pos = i + 1
                                self._stores_seen = stores_seen
                                crashed = True
                                self._crash()
                                return False
                    elif kind == kind_work:
                        amount = args[i]
                        cycles += int(amount * cpi)
                        instructions += amount
                    elif kind == kind_load:
                        addr = args[i]
                        size = sizes[i]
                        first = addr >> 6
                        if first == (addr + size - 1) >> 6:
                            lines = (first,)
                        else:
                            lines = lines_spanned(addr, size)
                        for line in lines:
                            hit, evicted = access(line, False)
                            cycles += hit_cost if hit else miss_cost
                            if evicted is not None and evicted[1]:
                                stats.cycles = cycles
                                evict_writeback(ctx, evicted[0])
                                cycles = stats.cycles
                        instructions += 1
                        if addr >= nvram_base:
                            persistent_loads += 1
                    elif kind == kind_fase_begin:
                        ctx.fase_depth += 1
                        if ctx.fase_depth == 1:
                            ctx.fase_uid = ctx.next_fase_uid
                            ctx.next_fase_uid += 1
                            if recording:
                                recorder.record(
                                    EV_FASE_BEGIN, thread_id, cycles, ctx.fase_uid
                                )
                            stats.cycles = cycles
                            technique.on_fase_begin()
                            cycles = stats.cycles
                    else:  # FASE_END
                        if ctx.fase_depth == 0:
                            raise SimulationError(
                                f"thread {ctx.thread_id}: "
                                "FaseEnd without FaseBegin"
                            )
                        ctx.fase_depth -= 1
                        if ctx.fase_depth == 0:
                            ctx.commit_fase_uid = ctx.fase_uid
                            stats.cycles = cycles
                            technique.on_fase_end()
                            cycles = stats.cycles
                            fase_count += 1
                            if recording:
                                # After the drain, so the B/E span covers
                                # the commit stall (same in both paths).
                                recorder.record(
                                    EV_FASE_END, thread_id, cycles, ctx.fase_uid
                                )
                    i += 1
                ctx.batch_pos = end
            return True
        finally:
            stats.cycles = cycles
            stats.instructions += instructions
            stats.persistent_stores = persistent_stores
            stats.persistent_loads = persistent_loads
            stats.fase_count = fase_count
            if not crashed:
                self._stores_seen = stores_seen

    def _process_event(self, ctx: _ThreadContext, ev: Event) -> None:
        """Execute one event on behalf of ``ctx`` (the simulator core)."""
        t = self.config.timing
        stats = ctx.stats
        hw = self.hwcache
        technique = ctx.technique
        track_values = self.config.track_values
        kind = ev.kind
        if kind == EventKind.STORE:
            addr = ev.addr
            persistent = addr >= NVRAM_BASE
            # Fast path: the overwhelmingly common single-line access.
            first = addr >> 6
            last = (addr + ev.size - 1) >> 6
            lines = (first,) if first == last else lines_spanned(addr, ev.size)
            for line in lines:
                hit, evicted = hw.access(line, True)
                stats.cycles += t.l1_hit if hit else t.l1_hit + t.l1_miss
                if evicted is not None and evicted[1]:
                    self._evict_writeback(ctx, evicted[0])
                if persistent:
                    if track_values:
                        hw.store_value(line, addr, ev.value)
                    technique.on_store(line)
                    if ctx.trace_lines is not None:
                        ctx.trace_lines.append(line)
                        ctx.trace_fids.append(
                            ctx.fase_uid if ctx.fase_depth > 0 else -1
                        )
            stats.instructions += 1
            if persistent:
                cost_per_store = technique.cost_per_store
                stats.persistent_stores += 1
                stats.cycles += cost_per_store
                stats.instructions += cost_per_store
                self._stores_seen += 1
                if self._sites_active:
                    self._note_site(ctx, SITE_STORE)
                plan = self._crash_plan
                if (
                    plan is not None
                    and plan.after_stores is not None
                    and self._stores_seen >= plan.after_stores
                ):
                    self._crash()
                    return
        elif kind == EventKind.WORK:
            amount = ev.amount
            stats.cycles += int(amount * t.cpi)
            stats.instructions += amount
        elif kind == EventKind.LOAD:
            addr = ev.addr
            first = addr >> 6
            last = (addr + ev.size - 1) >> 6
            lines = (first,) if first == last else lines_spanned(addr, ev.size)
            for line in lines:
                hit, evicted = hw.access(line, False)
                stats.cycles += t.l1_hit if hit else t.l1_hit + t.l1_miss
                if evicted is not None and evicted[1]:
                    self._evict_writeback(ctx, evicted[0])
            stats.instructions += 1
            if addr >= NVRAM_BASE:
                stats.persistent_loads += 1
        elif kind == EventKind.FASE_BEGIN:
            ctx.fase_depth += 1
            if ctx.fase_depth == 1:
                ctx.fase_uid = ctx.next_fase_uid
                ctx.next_fase_uid += 1
                rec = self.recorder
                if rec.enabled:
                    rec.record(
                        EV_FASE_BEGIN, ctx.thread_id, stats.cycles, ctx.fase_uid
                    )
                technique.on_fase_begin()
        elif kind == EventKind.FASE_END:
            if ctx.fase_depth == 0:
                raise SimulationError(
                    f"thread {ctx.thread_id}: FaseEnd without FaseBegin"
                )
            ctx.fase_depth -= 1
            if ctx.fase_depth == 0:
                ctx.commit_fase_uid = ctx.fase_uid
                technique.on_fase_end()
                stats.fase_count += 1
                rec = self.recorder
                if rec.enabled:
                    rec.record(
                        EV_FASE_END, ctx.thread_id, stats.cycles, ctx.fase_uid
                    )
        else:  # pragma: no cover - the event kinds above are exhaustive
            raise SimulationError(f"unknown event kind {kind}")

    def _sample_metrics(self, ctx: _ThreadContext) -> None:
        """Record one thread's gauge levels if its interval elapsed.

        Called at quantum boundaries (every ``SCHED_BATCH`` events), so
        sampling cost never touches the event hot loop.  All levels are
        functions of deterministic model state, so repeated runs of one
        configuration produce byte-identical registries.
        """
        m = self.metrics
        stats = ctx.stats
        now = stats.cycles
        tid = ctx.thread_id
        if not m.due(tid, now):
            return
        key = f"t{tid}"
        m.sample(f"flush_queue_depth/{key}", now, ctx.flushq.outstanding)
        # Software-cache (or Atlas-table) occupancy, for techniques that
        # have one; duck-typed like the rest of the technique protocol.
        buf = getattr(ctx.technique, "cache", None)
        if buf is None:
            buf = getattr(ctx.technique, "table", None)
        if buf is not None:
            m.sample(f"cache_occupancy/{key}", now, len(buf))
        prev_flushes, prev_stores = self._metrics_prev.get(tid, (0, 0))
        d_flushes = stats.flushes - prev_flushes
        d_stores = stats.persistent_stores - prev_stores
        self._metrics_prev[tid] = (stats.flushes, stats.persistent_stores)
        m.sample(
            f"flush_ratio/{key}", now, d_flushes / d_stores if d_stores else 0.0
        )
        # Post-adaptation gauge: exists only once the thread has selected
        # a size.  Its own due-schedule starts at the selection cycle, so
        # the series never backfills a phantom sample at cycle 0.
        first = self._first_selection.get(tid)
        if first is not None and m.due(("selected_size", tid), now, start=first):
            m.sample(f"selected_size/{key}", now, self._selected_size[tid])

    def _final_metrics(self, ctx: _ThreadContext) -> None:
        """Dump one thread's run totals into the registry as counters.

        Final totals land as counters so one registry dump is
        self-describing without the matching RunResult in hand.  Called
        by ``run`` for every thread, and by
        :meth:`MachineSession.record_final_metrics` for session-driven
        execution (e.g. crash-campaign replays).
        """
        m = self.metrics
        s = ctx.stats
        key = f"t{ctx.thread_id}"
        m.inc(f"flushes/{key}", s.flushes)
        m.inc(f"persistent_stores/{key}", s.persistent_stores)
        m.inc(f"stall_cycles/{key}", s.stall_cycles)
        m.inc(f"fase_count/{key}", s.fase_count)
        m.set_gauge(f"cycles/{key}", s.cycles)

    def _crash(self) -> None:
        """Fail the power now under the armed plan's fault model."""
        plan = self._crash_plan
        if plan is None:
            self.crashed_state = self._crashed_state(FAULT_CLEAN, 0)
        else:
            self.crashed_state = self._crashed_state(
                plan.fault_model, plan.fault_seed
            )

    def _crashed_state(
        self,
        model: str,
        seed: int,
        site: Optional[int] = None,
        site_class: Optional[str] = None,
    ) -> CrashedState:
        """The durable image a power failure now would leave, after
        ``model`` mutates it with ``seed``.  Pure: the machine is not
        touched, so the run can continue past the crash point."""
        image = self.memory.nvram_snapshot()
        dirty = self.hwcache.dirty_lines()
        torn: List[int] = []
        dropped = 0
        if model == FAULT_TORN_LINE:
            torn = apply_torn_lines(image, dirty, self.hwcache.values, seed)
        elif model == FAULT_REORDERED_FLUSH:
            dropped = apply_reordered_flushes(image, self._fault_inflight, seed)
        return CrashedState(
            nvram=image,
            lost_lines=dirty,
            at_store=self._stores_seen,
            at_site=site,
            site_class=site_class,
            fault_model=model,
            torn_lines=torn,
            dropped_writebacks=dropped,
        )

    # ------------------------------------------------------------------
    # Imperative per-thread driver (used by the Atlas runtime)
    # ------------------------------------------------------------------

    def session(
        self,
        technique: object,
        thread_id: int = 0,
        record_trace: bool = False,
    ) -> "MachineSession":
        """Open an imperative execution session for one simulated thread.

        Unlike :meth:`run`, which pulls events from workload streams, a
        session lets library code *push* operations (store, load, FASE
        boundaries) as they happen — this is how the Atlas runtime and
        the MDB store drive the machine.
        """
        ctx = _ThreadContext(thread_id, iter(()), technique, record_trace)
        ctx.flushq = self._new_flushq()
        ctx.port = FlushPort(self, ctx)
        technique.bind(ctx.port)
        return MachineSession(self, ctx)

    def read_current(self, addr: int, default: object = None) -> object:
        """The value a load of ``addr`` would observe right now.

        Reads through the hardware cache's pending (dirty, un-written-
        back) values, falling back to the durable memory image.  Only
        meaningful with ``track_values`` enabled.
        """
        line = addr >> 6
        pending = self.hwcache.values.get(line)
        if pending is not None and addr in pending:
            return pending[addr]
        return self.memory.read(addr, default)

    # ------------------------------------------------------------------
    # Public driver
    # ------------------------------------------------------------------

    def run(
        self,
        workload: object,
        technique_factory: Callable[[int], object],
        *,
        num_threads: int = 1,
        seed: int = 0,
        record_traces: bool = False,
        crash_plan: Optional[CrashPlan] = None,
        use_batches: Optional[bool] = None,
    ) -> RunResult:
        """Execute ``workload`` and return the collected statistics.

        Parameters
        ----------
        workload:
            Object with ``streams(num_threads, seed) -> list of event
            iterators`` and a ``name`` attribute.  When its
            ``batch_streams(num_threads, seed)`` yields
            :class:`~repro.common.events.EventBatch` runs (the SPLASH2
            generators and ``mdb`` do; the base
            :class:`~repro.workloads.base.Workload` returns ``None``),
            the machine uses the allocation-free batch loop.
        technique_factory:
            Called once per thread id; returns a fresh technique instance
            (software caches are per-thread).
        num_threads, seed, record_traces, crash_plan, use_batches:
            Keyword-only.  ``record_traces`` collects the per-thread
            persistent-write traces (needed for offline MRC analysis and
            the figure pipelines).  ``crash_plan`` schedules a power
            failure; afterwards ``self.crashed_state`` holds the durable
            NVRAM image.  Crash-site enumeration (:meth:`record_sites`)
            and site-triggered plans (``at_site``) force the per-event
            path, whatever ``use_batches`` says: the batched loop does
            not note store sites.  Otherwise ``use_batches`` forces
            (``True``) or forbids (``False``) the batched fast path;
            default ``None`` selects it whenever the workload returns
            batch streams and value tracking is off (batches carry no
            store payloads).  Both paths produce bit-identical results.
        """
        if num_threads < 1:
            raise ConfigurationError("num_threads must be >= 1")
        self.arm_crash_plan(crash_plan)
        if self._sites_active:
            use_batches = False
        batch_streams = None
        if use_batches is None:
            use_batches = not self.config.track_values
        if use_batches:
            getter = getattr(workload, "batch_streams", None)
            if getter is not None:
                batch_streams = getter(num_threads, seed)
        if batch_streams is not None:
            if len(batch_streams) != num_threads:
                raise SimulationError(
                    f"workload produced {len(batch_streams)} batch streams "
                    f"for {num_threads} threads"
                )
            runner = self._run_batches
        else:
            streams = workload.streams(num_threads, seed)
            if len(streams) != num_threads:
                raise SimulationError(
                    f"workload produced {len(streams)} streams for "
                    f"{num_threads} threads"
                )
            runner = self._run_batch
        contexts = []
        for tid in range(num_threads):
            technique = technique_factory(tid)
            if batch_streams is not None:
                ctx = _ThreadContext(tid, iter(()), technique, record_traces)
                ctx.batch_iter = iter(batch_streams[tid])
            else:
                ctx = _ThreadContext(
                    tid, iter(streams[tid]), technique, record_traces
                )
            ctx.flushq = self._new_flushq()
            ctx.port = FlushPort(self, ctx)
            technique.bind(ctx.port)
            contexts.append(ctx)

        # Smallest-clock-first interleaving; ties broken by thread id.
        heap: List[Tuple[int, int]] = [(0, ctx.thread_id) for ctx in contexts]
        heapq.heapify(heap)
        metrics = self.metrics
        # Quantum-boundary technique hooks (background cleaning stages);
        # resolved once so techniques without the hook cost one list
        # index per quantum.
        quantum_hooks = [
            getattr(ctx.technique, "on_quantum", None) for ctx in contexts
        ]
        while heap:
            _, tid = heapq.heappop(heap)
            ctx = contexts[tid]
            try:
                alive = runner(ctx, SCHED_BATCH)
            except PowerFailure:
                # A site-triggered crash; crashed_state is populated.
                break
            hook = quantum_hooks[tid]
            if hook is not None and alive and self.crashed_state is None:
                # Fires before the thread's clock is re-queued so the
                # scheduler sees the cleaning cycles, and inside its own
                # crash guard: clean flushes are injectable sites.
                try:
                    hook()
                except PowerFailure:
                    break
            if metrics is not None:
                self._sample_metrics(ctx)
            rec = self.recorder
            if rec.enabled:
                # Window-boundary hook: streaming recorders advance their
                # cycle-window watermark here, once per quantum, on both
                # the per-event and batched paths (``runner`` is whichever
                # of the two this run uses).
                rec.on_quantum(tid, ctx.stats.cycles)
            if self.crashed_state is not None:
                break
            if alive:
                heapq.heappush(heap, (ctx.stats.cycles, tid))
            else:
                if ctx.fase_depth != 0:
                    raise SimulationError(
                        f"thread {tid} stream ended inside a FASE "
                        f"(depth={ctx.fase_depth})"
                    )
                try:
                    ctx.technique.finish()
                except PowerFailure:
                    break
                ctx.alive = False

        if metrics is not None:
            for ctx in contexts:
                self._final_metrics(ctx)

        traces = None
        if record_traces:
            traces = [
                WriteTrace(ctx.trace_lines, ctx.trace_fids) for ctx in contexts
            ]
        return RunResult(
            workload=getattr(workload, "name", type(workload).__name__),
            technique=getattr(
                contexts[0].technique, "name", type(contexts[0].technique).__name__
            ),
            num_threads=num_threads,
            threads=[ctx.stats for ctx in contexts],
            l1_accesses=self.hwcache.accesses,
            l1_misses=self.hwcache.misses,
            traces=traces,
            crashed=self.crashed_state is not None,
        )


class MachineSession:
    """Imperative single-thread execution handle (see ``Machine.session``).

    Methods mirror the event vocabulary; each call executes immediately
    against the machine's cache, flush queue and the session's technique.
    The session must be closed with :meth:`finish` so the technique can
    drain its remaining buffered lines.
    """

    __slots__ = ("machine", "_ctx", "_finished")

    def __init__(self, machine: Machine, ctx: _ThreadContext) -> None:
        self.machine = machine
        self._ctx = ctx
        self._finished = False

    # -- operations ------------------------------------------------------

    def store(self, addr: int, size: int = 8, value: object = None) -> None:
        """Execute a store (persistent iff ``addr`` is in NVRAM)."""
        from repro.common.events import Store

        self.machine._process_event(self._ctx, Store(addr, size, value))

    def store_unmanaged(self, addr: int, size: int = 8, value: object = None) -> None:
        """A persistent store *not* routed to the persistence technique.

        Used for runtime metadata (undo-log records) that has its own
        flush discipline: the technique must not buffer these lines, or
        it would re-flush already-durable log entries at every drain.
        Still pays full hardware-cache timing and value tracking.
        """
        machine = self.machine
        ctx = self._ctx
        t = machine.config.timing
        stats = ctx.stats
        hw = machine.hwcache
        for line in lines_spanned(addr, size):
            hit, evicted = hw.access(line, True)
            stats.cycles += t.l1_hit if hit else t.l1_hit + t.l1_miss
            if evicted is not None and evicted[1]:
                machine._evict_writeback(ctx, evicted[0])
            if machine.config.track_values and addr >= NVRAM_BASE:
                hw.store_value(line, addr, value)
        stats.instructions += 1

    def load(self, addr: int, size: int = 8) -> object:
        """Execute a load; return the currently visible value."""
        from repro.common.events import Load

        self.machine._process_event(self._ctx, Load(addr, size))
        return self.machine.read_current(addr)

    def work(self, amount: int) -> None:
        """Execute ``amount`` instructions of computation."""
        from repro.common.events import Work

        self.machine._process_event(self._ctx, Work(amount))

    def fase_begin(self) -> None:
        """Enter a failure-atomic section (may nest)."""
        from repro.common.events import FaseBegin

        self.machine._process_event(self._ctx, FaseBegin())

    def fase_end(self) -> None:
        """Leave a failure-atomic section."""
        from repro.common.events import FaseEnd

        self.machine._process_event(self._ctx, FaseEnd())

    # -- lifecycle ---------------------------------------------------------

    @property
    def fase_depth(self) -> int:
        """Current FASE nesting depth."""
        return self._ctx.fase_depth

    @property
    def current_fase_id(self) -> int:
        """Unique id of the current outermost FASE, or -1 outside any."""
        return self._ctx.fase_uid if self._ctx.fase_depth > 0 else -1

    @property
    def stats(self) -> ThreadStats:
        """Live counters of this session's thread."""
        return self._ctx.stats

    def trace(self) -> Optional[WriteTrace]:
        """The persistent-write trace, if recording was requested."""
        if self._ctx.trace_lines is None:
            return None
        return WriteTrace(self._ctx.trace_lines, self._ctx.trace_fids)

    # -- metrics -----------------------------------------------------------

    def on_quantum(self) -> None:
        """Fire the technique's quantum-boundary hook, if it has one.

        Session-driven code has no scheduler, so drivers that want
        background-cleaning stages to run (e.g. the crash-campaign
        replay loop) call this at their own quantum boundaries.  A
        :class:`~repro.nvram.failure.PowerFailure` from an armed clean
        flush propagates to the caller, exactly as from ``store``.
        """
        hook = getattr(self._ctx.technique, "on_quantum", None)
        if hook is not None:
            hook()

    def sample_metrics(self) -> None:
        """Sample this thread's gauge series if its interval elapsed.

        Session-driven code has no scheduler quantum, so drivers call
        this at their own natural boundaries (e.g. between replayed
        operations).  A no-op without a metrics registry.
        """
        if self.machine.metrics is not None:
            self.machine._sample_metrics(self._ctx)
        rec = self.machine.recorder
        if rec.enabled:
            rec.on_quantum(self._ctx.thread_id, self._ctx.stats.cycles)

    def record_final_metrics(self) -> None:
        """Dump this thread's run totals into the metrics registry.

        The session twin of the end-of-run counter dump ``Machine.run``
        performs; call once when the session's work is done.  A no-op
        without a metrics registry.
        """
        if self.machine.metrics is not None:
            self.machine._final_metrics(self._ctx)

    def finish(self) -> None:
        """Close the session: drain the technique's remaining lines."""
        if self._finished:
            return
        if self._ctx.fase_depth != 0:
            raise SimulationError(
                f"session closed inside a FASE (depth={self._ctx.fase_depth})"
            )
        self._ctx.technique.finish()
        self._finished = True
