"""Workload protocol and shared building blocks."""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.common.events import Event, EventBatch
from repro.common.geometry import CACHE_LINE_SIZE, align_up
from repro.nvram.memory import NVRAM_BASE


class Workload:
    """Base class for workloads.

    A workload produces one event stream per simulated thread.  Streams
    must be independent iterators (the machine interleaves them), and a
    workload instance must be reusable: each ``streams`` call starts a
    fresh logical execution.

    Workloads on hot experiment paths should additionally implement
    :meth:`batch_streams`, emitting the *same* event sequence as compact
    :class:`~repro.common.events.EventBatch` columns — natively, or by
    capturing :meth:`streams` when that cannot depend on the scheduler;
    the machine then executes them on its allocation-free batch loop.
    The two encodings must stay equivalent — the batch path is an
    optimisation, never a semantic fork.
    """

    name = "abstract"

    def streams(self, num_threads: int, seed: int) -> List[Iterator[Event]]:
        """Return ``num_threads`` independent event iterators."""
        raise NotImplementedError

    def batch_streams(
        self, num_threads: int, seed: int
    ) -> Optional[List[Iterator[EventBatch]]]:
        """Return per-thread :class:`EventBatch` iterators, or ``None``.

        ``None`` (the default) means the workload has no batch emitter
        and the machine falls back to :meth:`streams`.  The SPLASH2
        generators emit batches natively; ``mdb`` captures its eagerly
        built streams through
        :func:`~repro.common.events.batches_from_events`.  A capture is
        only legal when the streams cannot depend on the scheduler:
        threads that pull shared state lazily (an allocator, say) would
        change their events if captured eagerly.
        """
        return None

    def supports_threads(self, num_threads: int) -> bool:
        """Whether the workload can be partitioned over this many threads."""
        return num_threads == 1

    def store_threads(self, num_threads: int) -> int:
        """How many of the threads actually issue persistent stores.

        Most workloads partition stores across all threads; MVCC-style
        workloads (MDB) have a single writer, so per-thread sampling
        bursts must be sized against the writer's stream, not an even
        split.
        """
        return num_threads


class BatchCachingWorkload(Workload):
    """Memoize a workload's materialized batch streams across runs.

    Experiment pipelines replay the same ``(workload, threads, seed)``
    event sequence once per technique — five times for a Table III row.
    Generators must re-emit the sequence every time; batches are plain
    data, so they can be built once and re-read.  This wrapper
    materializes the wrapped workload's ``batch_streams`` into lists and
    serves iterators over them on repeat calls, keeping at most
    ``max_entries`` ``(threads, seed)`` materializations (FIFO) so
    thread-sweep grids do not accumulate unbounded batch data.  Every
    configuration with batch streams — native or captured — is memoized;
    one whose ``batch_streams`` is ``None`` is regenerated on every run.

    Everything else — ``streams``, ``store_threads``, workload-specific
    attributes — delegates to the wrapped workload.
    """

    def __init__(self, inner: Workload, max_entries: int = 4) -> None:
        if max_entries < 1:
            raise ConfigurationError("max_entries must be >= 1")
        self._inner = inner
        self._max_entries = max_entries
        self._materialized: dict = {}

    @property
    def name(self) -> str:
        return self._inner.name

    def __getattr__(self, attr: str):
        return getattr(self._inner, attr)

    def streams(self, num_threads: int, seed: int) -> List[Iterator[Event]]:
        return self._inner.streams(num_threads, seed)

    def supports_threads(self, num_threads: int) -> bool:
        return self._inner.supports_threads(num_threads)

    def store_threads(self, num_threads: int) -> int:
        return self._inner.store_threads(num_threads)

    def batch_streams(
        self, num_threads: int, seed: int
    ) -> Optional[List[Iterator[EventBatch]]]:
        key = (num_threads, seed)
        entry = self._materialized.get(key)
        if entry is None:
            inner_streams = self._inner.batch_streams(num_threads, seed)
            if inner_streams is None:
                return None
            entry = [list(stream) for stream in inner_streams]
            while len(self._materialized) >= self._max_entries:
                self._materialized.pop(next(iter(self._materialized)))
            self._materialized[key] = entry
        return [iter(per_thread) for per_thread in entry]


class BumpAllocator:
    """A trivial persistent-heap allocator for workload data structures.

    Real allocation policy is irrelevant to flush behaviour; what matters
    is that distinct objects land on distinct, deterministic addresses in
    the persistence domain.  Allocations can be line-aligned so that one
    node maps to one cache line (how the micro-benchmarks lay out nodes).
    """

    __slots__ = ("next_addr",)

    def __init__(self, base: int = NVRAM_BASE) -> None:
        if base < NVRAM_BASE:
            raise ConfigurationError("persistent allocations must be in NVRAM")
        self.next_addr = base

    def alloc(self, nbytes: int, line_aligned: bool = False) -> int:
        """Reserve ``nbytes``; return the base address."""
        if nbytes <= 0:
            raise ConfigurationError(f"allocation size must be positive: {nbytes}")
        if line_aligned:
            self.next_addr = align_up(self.next_addr, CACHE_LINE_SIZE)
        addr = self.next_addr
        self.next_addr += nbytes
        return addr

    def alloc_lines(self, nlines: int) -> int:
        """Reserve ``nlines`` whole cache lines; return the base address."""
        return self.alloc(nlines * CACHE_LINE_SIZE, line_aligned=True)


class ComposedWorkload(Workload):
    """Run several workloads back to back on the same threads.

    Useful for phase-change studies: a program whose write locality
    shifts mid-run (e.g. a small-tile phase followed by a wide-sweep
    phase) exercises periodic re-adaptation, which one-shot sampling
    cannot follow.
    """

    def __init__(self, parts: Sequence[Workload], name: str = "composed") -> None:
        if not parts:
            raise ConfigurationError("ComposedWorkload needs at least one part")
        self.parts = list(parts)
        self.name = name

    def supports_threads(self, num_threads: int) -> bool:
        return all(p.supports_threads(num_threads) for p in self.parts)

    def store_threads(self, num_threads: int) -> int:
        return max(p.store_threads(num_threads) for p in self.parts)

    def streams(self, num_threads: int, seed: int) -> List[Iterator[Event]]:
        per_part = [p.streams(num_threads, seed) for p in self.parts]

        def chain(tid: int) -> Iterator[Event]:
            for part_streams in per_part:
                yield from part_streams[tid]

        return [chain(t) for t in range(num_threads)]

    def batch_streams(
        self, num_threads: int, seed: int
    ) -> Optional[List[Iterator[EventBatch]]]:
        """Chain the parts' batch streams; ``None`` unless every part
        returns batch streams (mixing encodings would silently change
        the machine's execution path mid-run)."""
        per_part = [p.batch_streams(num_threads, seed) for p in self.parts]
        if any(streams is None for streams in per_part):
            return None

        def chain(tid: int) -> Iterator[EventBatch]:
            for part_streams in per_part:
                yield from part_streams[tid]

        return [chain(t) for t in range(num_threads)]
