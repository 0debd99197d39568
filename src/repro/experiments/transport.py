"""Pickle-free transport and fork-once workers for parallel execution.

Two layers, both built for the experiment grids' actual data shapes:

**Columnar shared memory.**  Event data in this repo is already
contiguous columns — a :class:`~repro.locality.trace.WriteTrace` holds
two 1-D numpy arrays.  Shipping those through a ``multiprocessing`` pipe
would pickle them byte by byte; instead :func:`share_columns` copies the
raw column bytes into one ``multiprocessing.shared_memory`` segment and
returns a small *manifest* (segment name + per-column dtype/shape/offset
header).  The manifest is what crosses the pipe; the receiver rebuilds
the columns straight from the mapped segment with ``array.frombytes`` /
``numpy.frombuffer`` — one memcpy, no pickling of event data.

Lifecycle: the *creator* writes the segment and forgets it; the
*consumer* attaches, copies out, and closes; whichever side owns cleanup
calls :func:`unlink_segment` exactly once.  CPython's resource tracker
registers a segment in **every** process that touches it (create and
attach both register on 3.11), which would produce double-unlink races
and leak warnings between a parent and its workers — so every open here
immediately unregisters and the module manages unlinking explicitly.

**Fork-once workers.**  :class:`WorkerPool` spawns ``jobs`` processes
once per sweep, each of which builds its state (a ``Harness`` with the
frozen config, or nothing for crash tasks) a single time and then pulls
tasks from one shared queue until it sees the stop sentinel.  A shared
queue *is* work stealing: whichever worker finishes first pulls the next
chunk, so imbalanced groups level out without any up-front assignment.
Task payloads are small control tuples (configs, cell lists, manifests);
bulk data rides in shared memory.
"""

from __future__ import annotations

import multiprocessing as mp
import traceback
from array import array
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigurationError

#: Column offsets inside a segment are aligned to this many bytes so
#: ``numpy.frombuffer`` views are always well-aligned.
_ALIGN = 16


def _align(n: int) -> int:
    return (n + _ALIGN - 1) & ~(_ALIGN - 1)


def _untrack(segment: shared_memory.SharedMemory) -> None:
    """Drop this process's resource-tracker registration of ``segment``.

    Registration happens on both create and attach; cleanup here is
    explicit (:func:`unlink_segment`), so the tracker must not also try.
    """
    try:
        resource_tracker.unregister(segment._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:
        pass


# ---------------------------------------------------------------------------
# Columnar shared memory
# ---------------------------------------------------------------------------


def share_columns(columns: Sequence[object]) -> Dict:
    """Copy integer columns into one shared-memory segment.

    ``columns`` may mix ``array.array`` objects and 1-D numpy arrays.
    Returns the manifest the consumer passes to :func:`attach_columns`;
    the segment stays allocated until :func:`unlink_segment`.
    """
    specs: List[Dict] = []
    offset = 0
    for col in columns:
        if isinstance(col, array):
            spec = {"kind": "array", "typecode": col.typecode, "count": len(col)}
            nbytes = len(col) * col.itemsize
        elif isinstance(col, np.ndarray):
            if col.ndim != 1:
                raise ConfigurationError(
                    f"only 1-D arrays can be shared, got shape {col.shape}"
                )
            spec = {"kind": "ndarray", "dtype": str(col.dtype), "count": len(col)}
            nbytes = col.nbytes
        else:
            raise ConfigurationError(
                f"unshareable column type {type(col).__name__}"
            )
        spec["offset"] = offset
        specs.append(spec)
        offset = _align(offset + nbytes)
    total = max(1, offset)
    segment = shared_memory.SharedMemory(create=True, size=total)
    _untrack(segment)
    try:
        buf = segment.buf
        for col, spec in zip(columns, specs):
            raw = col.tobytes() if isinstance(col, array) else col.tobytes()
            start = spec["offset"]
            buf[start : start + len(raw)] = raw
        return {"shm": segment.name, "nbytes": total, "columns": specs}
    finally:
        segment.close()


def attach_columns(manifest: Dict) -> List[object]:
    """Rebuild the columns of a :func:`share_columns` manifest.

    Each column is copied out of the mapped segment (one memcpy) into a
    fresh ``array.array`` / numpy array, so the returned columns outlive
    the segment.  The mapping is closed before returning; the segment
    itself is left for :func:`unlink_segment`.
    """
    segment = shared_memory.SharedMemory(name=manifest["shm"])
    _untrack(segment)
    try:
        buf = segment.buf
        out: List[object] = []
        for spec in manifest["columns"]:
            start = spec["offset"]
            if spec["kind"] == "array":
                col = array(spec["typecode"])
                nbytes = spec["count"] * col.itemsize
                col.frombytes(buf[start : start + nbytes])
            else:
                col = np.frombuffer(
                    buf, dtype=np.dtype(spec["dtype"]),
                    count=spec["count"], offset=start,
                ).copy()
            out.append(col)
        return out
    finally:
        segment.close()


def unlink_segment(manifest: Optional[Dict]) -> None:
    """Free a shared segment; idempotent (a missing segment is fine)."""
    if manifest is None:
        return
    try:
        segment = shared_memory.SharedMemory(name=manifest["shm"])
    except FileNotFoundError:
        return
    try:
        segment.unlink()
    finally:
        segment.close()


# -- traces over the column transport -----------------------------------------


def share_traces(traces: Sequence[object]) -> Dict:
    """Publish per-thread :class:`WriteTrace` objects as one segment."""
    columns: List[object] = []
    for trace in traces:
        columns.append(trace.lines)
        columns.append(trace.fase_ids)
    manifest = share_columns(columns)
    manifest["num_traces"] = len(traces)
    return manifest


def attach_traces(manifest: Dict) -> List[object]:
    """Rebuild the traces of a :func:`share_traces` manifest."""
    from repro.locality.trace import WriteTrace

    columns = attach_columns(manifest)
    return [
        WriteTrace(columns[2 * i], columns[2 * i + 1])
        for i in range(manifest["num_traces"])
    ]


# ---------------------------------------------------------------------------
# Fork-once worker pool
# ---------------------------------------------------------------------------

#: How long the parent waits between liveness checks while collecting.
_POLL_S = 1.0


def _preferred_context() -> mp.context.BaseContext:
    """Fork where available (cheap spawn, state inherited), else spawn."""
    if "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context("spawn")


def _worker_main(init: Tuple, tasks, results, fleet: Optional[Tuple] = None) -> None:
    """Worker loop: build state once, then pull tasks until the sentinel.

    Every task is ``(task_id, kind, payload)``; every reply is
    ``(task_id, "ok", result)`` or ``(task_id, "error", traceback)``.
    Handlers live in :mod:`repro.experiments.parallel` (imported here,
    once, at worker start) so this module stays free of harness imports.

    ``fleet``, when given, is ``(queue, worker_index, cfg)`` from
    :meth:`repro.obs.fleet.FleetTelemetry.worker_args`: the worker then
    streams claim/finish/error events (and, if ``cfg["sample_interval"]``
    is set, periodic RSS/CPU samples) over the bus.  A task's
    ``task_finished`` event is emitted *after* its result is on the
    result queue — if the worker dies between the two, the parent sees a
    still-claimed task and resubmits it; the duplicate reply is filtered
    by id, never lost.
    """
    import time as _time

    from repro.experiments.parallel import describe_task, make_task_handlers

    emitter = None
    sampler = None
    if fleet is not None:
        from repro.obs.fleet import FleetEmitter, ResourceSampler

        queue, index, cfg = fleet
        emitter = FleetEmitter(queue, index)
        emitter.worker_started()
        interval = cfg.get("sample_interval")
        if interval:
            sampler = ResourceSampler(emitter, interval)
            sampler.start()
    handlers = make_task_handlers(*init, emitter=emitter)
    done = 0
    try:
        while True:
            task = tasks.get()
            if task is None:
                if emitter is not None:
                    emitter.worker_stopped(done)
                return
            task_id, kind, payload = task
            if emitter is not None:
                emitter.task_claimed(task_id, kind, describe_task(kind, payload))
            wall0 = _time.perf_counter()
            cpu0 = _time.process_time()
            try:
                handler = handlers.get(kind)
                if handler is None:
                    raise ConfigurationError(f"unknown worker task kind {kind!r}")
                results.put((task_id, "ok", handler(payload)))
            except BaseException:
                tb = traceback.format_exc()
                results.put((task_id, "error", tb))
                if emitter is not None:
                    emitter.task_error(task_id, tb)
                    emitter.task_finished(
                        task_id,
                        kind,
                        False,
                        _time.perf_counter() - wall0,
                        _time.process_time() - cpu0,
                    )
                done += 1
                continue
            done += 1
            if emitter is not None:
                emitter.task_finished(
                    task_id,
                    kind,
                    True,
                    _time.perf_counter() - wall0,
                    _time.process_time() - cpu0,
                )
    finally:
        if sampler is not None:
            sampler.stop()


class WorkerPool:
    """A fixed set of long-lived worker processes over one task queue.

    ``init`` is handed to every worker exactly once at spawn (the frozen
    harness config and cache dir); tasks then reference that state by
    construction instead of re-shipping it per task — the fork-once
    discipline that replaces the old one-future-per-group fan-out.

    ``telemetry``, when given, is a
    :class:`repro.obs.fleet.FleetTelemetry`: the pool creates the fleet
    bus on its own mp context, hands each worker its emitter arguments,
    pumps the bus while collecting, and — because claims are then
    tracked — *recovers* from a dead worker by resubmitting its in-flight
    tasks instead of raising.  Without telemetry a dead worker is still a
    hard error, as before.
    """

    def __init__(self, jobs: int, init: Tuple, telemetry=None) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        ctx = _preferred_context()
        self._tasks = ctx.SimpleQueue()
        self._results = ctx.Queue()
        self._next_id = 0
        self._outstanding = 0
        self._telemetry = telemetry
        #: task_id -> (kind, payload), kept for dead-worker resubmission.
        self._payloads: Dict[int, Tuple[str, object]] = {}
        #: Collected task ids (duplicate replies after resubmission are
        #: dropped by membership here).
        self._done_ids: set = set()
        #: Worker indices whose death was already handled.
        self._dead_handled: set = set()
        if telemetry is not None:
            fleet_queue = telemetry.attach(ctx, jobs)
            proc_args = [
                (init, self._tasks, self._results, telemetry.worker_args(i))
                for i in range(jobs)
            ]
            del fleet_queue
        else:
            proc_args = [(init, self._tasks, self._results) for _ in range(jobs)]
        self._procs = [
            ctx.Process(target=_worker_main, args=args, daemon=True)
            for args in proc_args
        ]
        for proc in self._procs:
            proc.start()

    # -- submission / collection ----------------------------------------

    def submit(self, kind: str, payload: object) -> int:
        """Enqueue one task; any idle worker will pull it."""
        task_id = self._next_id
        self._next_id += 1
        self._outstanding += 1
        if self._telemetry is not None:
            self._payloads[task_id] = (kind, payload)
        self._tasks.put((task_id, kind, payload))
        return task_id

    @property
    def outstanding(self) -> int:
        return self._outstanding

    def next_result(self) -> Tuple[int, object]:
        """Block until one submitted task finishes; return (id, result).

        Raises ``RuntimeError`` carrying the worker traceback if the
        task failed, or if a worker process died without replying.
        """
        if self._outstanding <= 0:
            raise RuntimeError("no outstanding tasks to collect")
        import queue as _queue

        tele = self._telemetry
        while True:
            if tele is not None:
                tele.pump()
            try:
                task_id, status, result = self._results.get(timeout=_POLL_S)
            except _queue.Empty:
                if tele is not None:
                    tele.pump()
                    tele.aggregator.sample_queue_depth(self._outstanding)
                    self._recover_dead_workers()
                    continue
                dead = [p for p in self._procs if not p.is_alive()]
                if dead and self._results.empty():
                    raise RuntimeError(
                        f"{len(dead)} worker process(es) died without "
                        f"replying (exit codes "
                        f"{[p.exitcode for p in dead]})"
                    ) from None
                continue
            if task_id in self._done_ids:
                # A resubmitted task's duplicate reply (the original
                # worker managed to put it before dying): drop it.
                continue
            break
        self._done_ids.add(task_id)
        self._payloads.pop(task_id, None)
        self._outstanding -= 1
        if status == "error":
            raise RuntimeError(f"worker task failed:\n{result}")
        return task_id, result

    def _recover_dead_workers(self) -> None:
        """Resubmit in-flight tasks of newly dead workers (telemetry only).

        The bus's claim tracking says exactly which tasks a dead worker
        held; resubmitting them keeps ``outstanding`` honest (the task is
        still the same submission) and lets the surviving workers finish
        the grid.  With *no* survivors and work left, raise — nothing
        will ever drain the queue.
        """
        tele = self._telemetry
        for index, proc in enumerate(self._procs):
            if proc.is_alive() or index in self._dead_handled:
                continue
            self._dead_handled.add(index)
            tele.worker_died(index, proc.exitcode)
            for task_id in tele.aggregator.in_flight(index):
                entry = self._payloads.get(task_id)
                if entry is not None and task_id not in self._done_ids:
                    self._tasks.put((task_id,) + entry)
        if self._outstanding > 0 and self._results.empty() and not any(
            p.is_alive() for p in self._procs
        ):
            raise RuntimeError(
                f"all worker processes died with {self._outstanding} "
                f"task(s) outstanding (exit codes "
                f"{[p.exitcode for p in self._procs]})"
            )

    # -- shutdown --------------------------------------------------------

    def close(self) -> None:
        """Stop the workers (sentinel per worker, then join/terminate)."""
        for _ in self._procs:
            try:
                self._tasks.put(None)
            except (OSError, ValueError):
                break
        for proc in self._procs:
            proc.join(timeout=5.0)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        if self._telemetry is not None:
            # Final drain: the workers' stop events (and any samples
            # raced with shutdown) land in the aggregator.
            self._telemetry.pump()
        self._results.cancel_join_thread()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
