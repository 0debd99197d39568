"""The six persistence techniques of the evaluation (§IV-A).

========  =============================================================
ER        eager: ``clflush`` after every persistent store.
LA        lazy: record dirty lines, flush them all at the FASE end.
AT        Atlas: fixed 8-entry direct-mapped table (state of the art).
SC        the adaptive software cache (online bursty-sampled MRC).
SC-o      SC-offline: the software cache with a size chosen from a
          whole-trace MRC computed in a profiling run.
BEST      no flushes at all — not a correct technique, but the upper
          bound on what perfect flush scheduling could achieve.
========  =============================================================

A technique instance is strictly per-thread (the machine builds one per
thread through a factory).  The machine drives it through ``bind``,
``on_store``, ``on_fase_begin``/``on_fase_end`` (outermost only) and
``finish``, and charges ``cost_per_store`` cycles of bookkeeping per
persistent store.  The per-store costs are read off the paper's
Table IV instruction counts (per store: AT ~16-19, SC ~24 on top of the
program's own ~62): BEST < ER < LA < AT < SC, with SC running ~8% more
instructions than AT.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.common.errors import ConfigurationError
from repro.cache.adaptive import AdaptiveConfig, AdaptiveController
from repro.cache.table import ATLAS_TABLE_SIZE, AtlasTable
from repro.cache.write_cache import WriteCombiningCache


class PersistenceTechnique:
    """Base class: the machine-facing protocol with no-op defaults."""

    name = "abstract"
    #: Bookkeeping cycles charged per persistent store.
    cost_per_store = 0
    #: Declares ``on_store`` a guaranteed no-op, letting the machine's
    #: batched loop skip the call (and the stats hand-off around it)
    #: per persistent store.  Only set True when ``on_store`` neither
    #: reads nor writes any state.
    on_store_noop = False

    def __init__(self) -> None:
        self.port = None

    def bind(self, port) -> None:
        """Attach the machine's per-thread flush port."""
        self.port = port

    def on_store(self, line: int) -> None:
        """A persistent store touched ``line``."""

    def on_fase_begin(self) -> None:
        """An outermost FASE began."""

    def on_fase_end(self) -> None:
        """An outermost FASE ended — persistence point."""

    def finish(self) -> None:
        """The thread's stream ended; make remaining data durable."""


class EagerTechnique(PersistenceTechnique):
    """ER — flush every store immediately (§I).

    Maximally overlaps transfer with computation but issues one flush per
    store (flush ratio exactly 1.0, Table III) and saturates the flush
    queue, throttling the CPU to the write-back service rate.
    """

    name = "ER"
    cost_per_store = 4

    def on_store(self, line: int) -> None:
        self.port.flush_async(line, "eager")


class LazyTechnique(PersistenceTechnique):
    """LA — record lines, flush everything at the FASE end (§I).

    Achieves the minimum possible flush count (each distinct line once
    per FASE) but pays the whole transfer as an unoverlapped stall at the
    end of the FASE.
    """

    name = "LA"
    cost_per_store = 8

    def __init__(self) -> None:
        super().__init__()
        self._pending: Dict[int, None] = {}

    def on_store(self, line: int) -> None:
        self._pending[line] = None

    def on_fase_end(self) -> None:
        if self._pending:
            self.port.flush_sync(self._pending.keys(), "fase_end")
            self._pending.clear()

    def finish(self) -> None:
        if self._pending:
            self.port.flush_sync(self._pending.keys(), "final")
            self._pending.clear()


class AtlasTechnique(PersistenceTechnique):
    """AT — the Atlas 8-entry direct-mapped table (§II-A)."""

    name = "AT"
    cost_per_store = 16

    def __init__(self, table_size: int = ATLAS_TABLE_SIZE) -> None:
        super().__init__()
        self.table = AtlasTable(table_size)

    def on_store(self, line: int) -> None:
        evicted = self.table.access(line)
        if evicted is not None:
            self.port.flush_async(evicted, "eviction")

    def on_fase_end(self) -> None:
        lines = self.table.drain()
        if lines:
            self.port.flush_sync(lines, "fase_end")

    def finish(self) -> None:
        lines = self.table.drain()
        if lines:
            self.port.flush_sync(lines, "final")


class SoftwareCacheTechnique(PersistenceTechnique):
    """SC / SC-offline — the paper's contribution (§II-B, §III).

    A fully associative LRU write-combining cache of line addresses.
    Evictions flush asynchronously; the FASE end drains synchronously
    (bounded by the size cap).  With a controller attached the size
    adapts online from a bursty-sampled MRC; without one the size is
    fixed (SC-offline, size from a profiling run).
    """

    name = "SC"
    cost_per_store = 24

    def __init__(
        self,
        initial_size: int = 8,
        controller: Optional[AdaptiveController] = None,
        name: Optional[str] = None,
        use_clwb: bool = False,
        shared_size: Optional["SharedSizeState"] = None,
    ) -> None:
        super().__init__()
        self.cache = WriteCombiningCache(initial_size)
        self.controller = controller
        self.use_clwb = use_clwb
        self.shared_size = shared_size
        if name is not None:
            self.name = name
        if controller is None and shared_size is None:
            # Fixed-size operation (SC-offline): shadow on_store with a
            # closure that skips the adaptation checks and the self.cache
            # lookup on every store (the port resolves late: it is only
            # needed on the rare eviction, and bind() comes later).
            cache_access = self.cache.access
            invalidate = not use_clwb

            def _fixed_on_store(line: int) -> None:
                evicted = cache_access(line)
                if evicted is not None:
                    self.port.flush_async(evicted, "eviction", invalidate=invalidate)

            self.on_store = _fixed_on_store

    def bind(self, port) -> None:
        super().bind(port)
        if self.controller is not None:
            # The controller emits its burst/MRC/knee trace events
            # through the thread's flush port.
            self.controller.port = port

    def _resize(self, new_size: int) -> None:
        port = self.port
        port.record_selected_size(new_size)
        for evicted in self.cache.resize(new_size):
            # Distinct category so the trace can attribute these to the
            # resize rather than to capacity pressure; the machine still
            # counts them as eviction flushes (same site class, same
            # RunResult totals).
            port.flush_async(evicted, "resize_eviction", invalidate=not self.use_clwb)

    def on_store(self, line: int) -> None:
        port = self.port
        controller = self.controller
        if controller is not None and not controller.sampler.done:  # fast gate
            new_size = controller.observe(line, port.current_fase_id)
            if controller.sampling or new_size is not None:
                port.add_adaptation_cost(controller.config.sample_cost)
            if new_size is not None:
                port.add_adaptation_cost(controller.analysis_cost())
                self._resize(new_size)
                if self.shared_size is not None:
                    self.shared_size.publish(new_size)
        elif self.shared_size is not None:
            # The paper's future-work extension: threads with similar
            # write locality share one MRC analysis.  A non-sampling
            # thread adopts the published group decision.
            published = self.shared_size.current
            if published is not None and published != self.cache.capacity:
                self._resize(published)
        evicted = self.cache.access(line)
        if evicted is not None:
            port.flush_async(evicted, "eviction", invalidate=not self.use_clwb)

    def on_fase_end(self) -> None:
        lines = self.cache.drain()
        if lines:
            self.port.flush_sync(lines, "fase_end", invalidate=not self.use_clwb)

    def finish(self) -> None:
        lines = self.cache.drain()
        if lines:
            self.port.flush_sync(lines, "final", invalidate=not self.use_clwb)


class SharedSizeState:
    """Group cache-size decision shared across threads (§III-C's
    future work: "group threads with similar write locality and
    calculate one MRC for each group")."""

    __slots__ = ("current",)

    def __init__(self) -> None:
        self.current: Optional[int] = None

    def publish(self, size: int) -> None:
        """Make ``size`` the group's decision."""
        self.current = size


class BestTechnique(PersistenceTechnique):
    """BEST — never flush (§IV-A).

    "BEST is not a valid solution but approximates the effect of optimal
    caching": zero direct flush cost, zero invalidation-induced misses.
    The upper bound every real technique is compared against.
    """

    name = "BEST"
    cost_per_store = 0
    on_store_noop = True


#: Base technique names accepted by the spec parser
#: (:class:`repro.cache.spec.TechniqueSpec`) and the experiment harness.
TECHNIQUES = ("ER", "LA", "AT", "SC", "SC-offline", "BEST")


def _base_factory(
    technique: str,
    *,
    table_size: int = ATLAS_TABLE_SIZE,
    sc_initial_size: int = 8,
    sc_fixed_size: Optional[int] = None,
    adaptive_config: Optional[AdaptiveConfig] = None,
    use_clwb: bool = False,
    shared_adaptation: bool = False,
) -> Callable[[int], PersistenceTechnique]:
    """Build a per-thread factory for one *base* technique.

    Internal: callers go through
    :func:`repro.cache.spec.technique_factory`, which parses a spec,
    builds the base here and wraps it in the composed policy stages.

    Parameters
    ----------
    technique:
        One of :data:`TECHNIQUES`.
    table_size:
        AT table size (ablation hook; the paper/Atlas use 8).
    sc_initial_size:
        SC's size before adaptation (the paper's default is 8).
    sc_fixed_size:
        For ``SC-offline``: the profiled best size.
    adaptive_config:
        For ``SC``: sampling/selection parameters.
    use_clwb:
        For ``SC``/``SC-offline``: flush with ``clwb`` (write back, keep
        the line valid) instead of ``clflush`` — the §II-A alternative.
    shared_adaptation:
        For ``SC``: one thread samples and decides for the whole group
        (the paper's future-work thread-grouping extension).
    """
    if technique == "ER":
        return lambda tid: EagerTechnique()
    if technique == "LA":
        return lambda tid: LazyTechnique()
    if technique == "AT":
        return lambda tid: AtlasTechnique(table_size)
    if technique == "SC":
        cfg = adaptive_config or AdaptiveConfig()
        if shared_adaptation:
            # One sampling thread (thread 0) decides for the group.
            state = SharedSizeState()
            return lambda tid: SoftwareCacheTechnique(
                sc_initial_size,
                AdaptiveController(config=cfg) if tid == 0 else None,
                use_clwb=use_clwb,
                shared_size=state,
            )
        return lambda tid: SoftwareCacheTechnique(
            sc_initial_size, AdaptiveController(config=cfg), use_clwb=use_clwb
        )
    if technique == "SC-offline":
        if sc_fixed_size is None:
            raise ConfigurationError("SC-offline requires sc_fixed_size")
        return lambda tid: SoftwareCacheTechnique(
            sc_fixed_size, None, name="SC-offline", use_clwb=use_clwb
        )
    if technique == "BEST":
        return lambda tid: BestTechnique()
    raise ConfigurationError(
        f"unknown technique {technique!r}; expected one of {TECHNIQUES}"
    )
