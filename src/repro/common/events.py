"""The instrumented-program event model.

The paper instruments programs with an LLVM pass that reports every memory
store and every FASE lock/unlock to the runtime (§III-C, "Compiler
Support").  We replace the compiler pass with an explicit event stream: a
workload is a generator of events per thread, and the simulated machine
consumes the stream, driving the hardware cache, the persistence technique
and the timing model.

Event classes use ``__slots__`` and an integer ``kind`` tag so that the
machine's dispatch loop — the hottest code in the simulator — can branch on
an int instead of ``isinstance``.

Events
------
``Store(addr, size, value)``
    A store to *persistent* memory.  ``value`` is an optional payload used
    by the crash/recovery machinery; pure trace-driven workloads leave it
    ``None``.
``Load(addr, size)``
    A load from persistent memory.  Loads never trigger flush bookkeeping
    (the software cache is write-combining and "does not consider data
    reads at all", §III-A) but they do exercise the hardware cache, which
    is how the *indirect* cost of `clflush` invalidations is measured.
``Work(amount)``
    ``amount`` instructions of computation that do not touch persistent
    memory.  Asynchronous flushes overlap with this work.
``FaseBegin()`` / ``FaseEnd()``
    Failure-atomic section boundaries.  FASEs may nest; persistence is
    only guaranteed at the end of an *outermost* FASE, matching Atlas.

Batched representation
----------------------
Even with ``__slots__``, one Python object per event dominates the
simulator's run time: the machine spends more cycles resuming workload
generator frames and allocating ``Store`` instances than it spends in
the cache and flush models.  :class:`EventBatch` is the compact
alternative — three parallel ``array`` columns (kind / addr-or-amount /
size, ~17 bytes per event) that a workload fills by appending plain
integers and the machine consumes with an indexed loop, no per-event
allocation at all.  Workloads expose batches through
``Workload.batch_streams`` *alongside* the per-object ``streams`` —
natively, or captured from ``streams`` where that cannot depend on the
scheduler; both encodings describe the same event sequence, and the
machine's two execution paths are required (and tested) to produce
bit-identical statistics.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, Union


class EventKind:
    """Integer tags for fast dispatch in the machine's inner loop."""

    STORE = 0
    LOAD = 1
    WORK = 2
    FASE_BEGIN = 3
    FASE_END = 4


class Store:
    """A store of ``size`` bytes at byte address ``addr``."""

    __slots__ = ("addr", "size", "value")
    kind = EventKind.STORE

    def __init__(self, addr: int, size: int = 8, value: object = None) -> None:
        self.addr = addr
        self.size = size
        self.value = value

    def __repr__(self) -> str:
        return f"Store(addr={self.addr:#x}, size={self.size}, value={self.value!r})"


class Load:
    """A load of ``size`` bytes at byte address ``addr``."""

    __slots__ = ("addr", "size")
    kind = EventKind.LOAD

    def __init__(self, addr: int, size: int = 8) -> None:
        self.addr = addr
        self.size = size

    def __repr__(self) -> str:
        return f"Load(addr={self.addr:#x}, size={self.size})"


class Work:
    """``amount`` instructions of computation not touching persistent data."""

    __slots__ = ("amount",)
    kind = EventKind.WORK

    def __init__(self, amount: int) -> None:
        self.amount = amount

    def __repr__(self) -> str:
        return f"Work({self.amount})"


class FaseBegin:
    """Enter a failure-atomic section (may nest)."""

    __slots__ = ()
    kind = EventKind.FASE_BEGIN

    def __repr__(self) -> str:
        return "FaseBegin()"


class FaseEnd:
    """Leave a failure-atomic section."""

    __slots__ = ()
    kind = EventKind.FASE_END

    def __repr__(self) -> str:
        return "FaseEnd()"


Event = Union[Store, Load, Work, FaseBegin, FaseEnd]
EventStream = Iterator[Event]


class EventBatch:
    """A run of events as parallel integer columns (no per-event objects).

    Columns (all the same length):

    ``kinds``
        One :class:`EventKind` tag per event (signed byte array).
    ``args``
        The event's primary integer: byte address for ``STORE``/``LOAD``,
        instruction count for ``WORK``, 0 for FASE boundaries.
    ``sizes``
        Access size in bytes for ``STORE``/``LOAD``, 0 otherwise.

    Batches carry no value payloads; crash/recovery runs that need
    ``Store.value`` use the per-object encoding (the machine falls back
    automatically when value tracking is on).  A workload without a
    native emitter can capture its ``streams`` through
    :func:`batches_from_events` (``mdb`` does).
    """

    __slots__ = ("kinds", "args", "sizes")

    def __init__(self) -> None:
        self.kinds = array("b")
        self.args = array("q")
        self.sizes = array("q")

    def __len__(self) -> int:
        return len(self.kinds)

    def __repr__(self) -> str:
        return f"EventBatch(len={len(self.kinds)})"

    # -- building --------------------------------------------------------

    def append_store(self, addr: int, size: int = 8) -> None:
        """Append a persistent-or-not store of ``size`` bytes at ``addr``."""
        self.kinds.append(EventKind.STORE)
        self.args.append(addr)
        self.sizes.append(size)

    def append_load(self, addr: int, size: int = 8) -> None:
        """Append a load of ``size`` bytes at ``addr``."""
        self.kinds.append(EventKind.LOAD)
        self.args.append(addr)
        self.sizes.append(size)

    def append_work(self, amount: int) -> None:
        """Append ``amount`` instructions of computation."""
        self.kinds.append(EventKind.WORK)
        self.args.append(amount)
        self.sizes.append(0)

    def append_fase_begin(self) -> None:
        """Append a failure-atomic-section entry."""
        self.kinds.append(EventKind.FASE_BEGIN)
        self.args.append(0)
        self.sizes.append(0)

    def append_fase_end(self) -> None:
        """Append a failure-atomic-section exit."""
        self.kinds.append(EventKind.FASE_END)
        self.args.append(0)
        self.sizes.append(0)

    def append_event(self, ev: Event) -> None:
        """Append one per-object event (payload values are dropped)."""
        kind = ev.kind
        self.kinds.append(kind)
        if kind == EventKind.STORE or kind == EventKind.LOAD:
            self.args.append(ev.addr)
            self.sizes.append(ev.size)
        elif kind == EventKind.WORK:
            self.args.append(ev.amount)
            self.sizes.append(0)
        else:
            self.args.append(0)
            self.sizes.append(0)

    @classmethod
    def from_events(cls, events: Iterable[Event]) -> "EventBatch":
        """Pack an event sequence into one batch (values are dropped)."""
        batch = cls()
        for ev in events:
            batch.append_event(ev)
        return batch

    # -- expanding -------------------------------------------------------

    def events(self) -> Iterator[Event]:
        """Expand back into per-object events (the reference decoding)."""
        kinds = self.kinds
        args = self.args
        sizes = self.sizes
        for i in range(len(kinds)):
            kind = kinds[i]
            if kind == EventKind.STORE:
                yield Store(args[i], sizes[i])
            elif kind == EventKind.LOAD:
                yield Load(args[i], sizes[i])
            elif kind == EventKind.WORK:
                yield Work(args[i])
            elif kind == EventKind.FASE_BEGIN:
                yield FaseBegin()
            else:
                yield FaseEnd()


BatchStream = Iterator[EventBatch]

#: Default events per batch when converting a per-object stream.
BATCH_CHUNK = 4096


def batches_from_events(
    events: EventStream, chunk: int = BATCH_CHUNK
) -> BatchStream:
    """Chunk a per-object event stream into :class:`EventBatch` runs.

    How a workload without a native batch emitter captures its streams
    (``MtestWorkload.batch_streams``).  It still pays the source
    stream's per-event costs once; memoized (``BatchCachingWorkload``)
    that is once per harness, not once per run.
    """
    batch = EventBatch()
    append = batch.append_event
    n = 0
    for ev in events:
        append(ev)
        n += 1
        if n >= chunk:
            yield batch
            batch = EventBatch()
            append = batch.append_event
            n = 0
    if n:
        yield batch


def events_from_batches(batches: BatchStream) -> EventStream:
    """Flatten a batch stream back into per-object events."""
    for batch in batches:
        yield from batch.events()


def validate_stream(events: EventStream) -> Iterator[Event]:
    """Yield events from ``events`` while checking FASE bracketing.

    Raises :class:`~repro.common.errors.SimulationError` on an unmatched
    ``FaseEnd`` or on a stream ending inside a FASE.  Useful for testing
    hand-written workloads; the machine itself performs the same checks.
    """
    from repro.common.errors import SimulationError

    depth = 0
    for ev in events:
        k = ev.kind
        if k == EventKind.FASE_BEGIN:
            depth += 1
        elif k == EventKind.FASE_END:
            depth -= 1
            if depth < 0:
                raise SimulationError("FaseEnd without matching FaseBegin")
        yield ev
    if depth != 0:
        raise SimulationError(f"stream ended inside a FASE (depth={depth})")
