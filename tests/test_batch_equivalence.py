"""The batched execution path must be bit-identical to the per-event path.

The machine's ``_run_batches`` loop is an optimisation, never a semantic
fork: for any workload exposing ``batch_streams``, a run with
``use_batches=True`` must produce exactly the statistics of the same run
with ``use_batches=False`` — every per-thread counter, every flush
category, the shared hardware-cache counters, and the recorded traces.
"""

import dataclasses

import numpy as np
import pytest

from repro.cache.spec import technique_factory
from repro.common.events import (
    EventKind,
    batches_from_events,
    events_from_batches,
)
from repro.experiments.harness import sc_factory_kwargs
from repro.nvram.failure import SITE_STORE
from repro.nvram.machine import Machine, MachineConfig
from repro.workloads.base import BatchCachingWorkload, Workload
from repro.workloads.registry import WORKLOAD_NAMES, get_workload

WORKLOADS = ("water-spatial", "barnes")
TECHNIQUES = ("BEST", "SC")
THREADS = (1, 4)

BASE_TECHNIQUES = ("ER", "LA", "AT", "SC", "SC-offline", "BEST")
#: Every registry workload at one thread, plus mdb's multi-threaded
#: captures.
CAPTURED_CELLS = [(name, 1) for name in WORKLOAD_NAMES] + [("mdb", 2), ("mdb", 8)]
#: Every workload that emits batches itself, and its thread counts.
BATCH_THREADS = {name: THREADS for name in WORKLOADS}
BATCH_THREADS["mdb"] = (1, 2, 8)


class _Captured(Workload):
    """Runs any workload on the batched loop: its own batches, or its
    streams captured when it has none (sound only where the streams
    cannot depend on the interleaving, as in ``CAPTURED_CELLS``)."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name

    def streams(self, num_threads, seed):
        return self.inner.streams(num_threads, seed)

    def batch_streams(self, num_threads, seed):
        own = self.inner.batch_streams(num_threads, seed)
        if own is not None:
            return own
        return [batches_from_events(s) for s in self.streams(num_threads, seed)]


def _full_stats(result):
    """Everything a run produces, as one comparable structure."""
    return {
        "threads": [dataclasses.asdict(t) for t in result.threads],
        "l1_accesses": result.l1_accesses,
        "l1_misses": result.l1_misses,
        "crashed": result.crashed,
    }


def _run(workload, technique, threads, use_batches, factory=None):
    machine = Machine(MachineConfig())
    result = machine.run(
        workload,
        factory or technique_factory(technique),
        num_threads=threads,
        seed=7,
        record_traces=True,
        use_batches=use_batches,
    )
    return machine, result


def _assert_runs_identical(m_b, r_b, m_ev, r_ev):
    assert _full_stats(r_b) == _full_stats(r_ev)
    # The shared hardware cache's full counter set, not just the two
    # aggregates RunResult carries.
    for attr in ("loads", "stores", "load_misses", "store_misses",
                 "evict_writebacks"):
        assert getattr(m_b.hwcache, attr) == getattr(m_ev.hwcache, attr), attr
    # Recorded traces: same lines, same FASE ids, per thread.
    assert len(r_b.traces) == len(r_ev.traces)
    for got, want in zip(r_b.traces, r_ev.traces):
        assert np.array_equal(got.lines, want.lines)
        assert np.array_equal(got.fase_ids, want.fase_ids)


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("technique", TECHNIQUES)
@pytest.mark.parametrize("threads", THREADS)
def test_batched_run_is_bit_identical(name, technique, threads):
    workload = get_workload(name, scale=0.05)
    m_ev, r_ev = _run(workload, technique, threads, use_batches=False)
    m_b, r_b = _run(workload, technique, threads, use_batches=True)
    _assert_runs_identical(m_b, r_b, m_ev, r_ev)


@pytest.mark.parametrize("name,threads", CAPTURED_CELLS)
def test_every_workload_batches_bit_identically(tiny_harness, name, threads):
    """The batched loop runs every base technique exactly as per-event,
    with SC and SC-offline sized as the harness sizes them."""
    workload = get_workload(name, scale=tiny_harness.config.scale)
    summary = tiny_harness.profile_summary(name)
    for technique in BASE_TECHNIQUES:
        kwargs = sc_factory_kwargs(
            tiny_harness.config, workload, technique, threads, summary
        )
        factory = technique_factory(technique, **kwargs)
        m_ev, r_ev = _run(workload, technique, threads, False, factory)
        m_b, r_b = _run(_Captured(workload), technique, threads, True, factory)
        _assert_runs_identical(m_b, r_b, m_ev, r_ev)


def _fields(ev):
    """An event's kind and its integer fields (store payloads excluded:
    batches carry none, and value-tracking runs never batch)."""
    kind = ev.kind
    if kind == EventKind.STORE or kind == EventKind.LOAD:
        return (kind, ev.addr, ev.size)
    if kind == EventKind.WORK:
        return (kind, ev.amount)
    return (kind,)


@pytest.mark.parametrize("name", ("linked-list", "queue"))
@pytest.mark.parametrize("threads", (2, 8))
def test_shared_allocator_workloads_stay_per_event(name, threads):
    """Threads pulling one lazy allocator depend on the interleaving, so
    eager capture would change node addresses: no batches for them."""
    workload = get_workload(name, scale=0.02)
    assert workload.batch_streams(threads, seed=7) is None


@pytest.mark.parametrize("name", ("hash", "barnes"))
def test_site_recording_sees_every_site(name):
    """Site enumeration must not depend on the path ``run`` picks: the
    batched loop notes no store sites, so recording forces per-event."""
    workload = _Captured(get_workload(name, scale=0.02))
    logs = {}
    for use_batches in (None, True, False):
        machine = Machine(MachineConfig())
        log = machine.record_sites()
        machine.run(
            workload,
            technique_factory("SC-offline", sc_fixed_size=8),
            num_threads=1,
            seed=7,
            use_batches=use_batches,
        )
        logs[use_batches] = log
    assert logs[None] == logs[False]
    assert logs[True] == logs[False]
    assert any(site_class == SITE_STORE for _, site_class, _, _ in logs[False])


@pytest.mark.parametrize("name", sorted(BATCH_THREADS))
def test_native_batches_encode_the_stream(name):
    """``batch_streams`` must emit exactly the events of ``streams``."""
    workload = get_workload(name, scale=0.05)
    for threads in BATCH_THREADS[name]:
        streams = workload.streams(threads, seed=7)
        batch_streams = workload.batch_streams(threads, seed=7)
        assert len(batch_streams) == len(streams) == threads
        for stream, batches in zip(streams, batch_streams):
            want = [_fields(ev) for ev in stream]
            got = [_fields(ev) for ev in events_from_batches(batches)]
            assert got == want


def test_batch_caching_workload_replays_identically():
    """Materialized batches must replay the same sequence every call."""
    inner = get_workload("water-spatial", scale=0.05)
    caching = BatchCachingWorkload(inner)
    first = [
        [repr(ev) for ev in events_from_batches(s)]
        for s in caching.batch_streams(2, seed=7)
    ]
    again = [
        [repr(ev) for ev in events_from_batches(s)]
        for s in caching.batch_streams(2, seed=7)
    ]
    assert first == again
    # And they match the uncached emission.
    native = [
        [repr(ev) for ev in events_from_batches(s)]
        for s in inner.batch_streams(2, seed=7)
    ]
    assert first == native


def test_generic_chunking_adapter_round_trips():
    """batches_from_events/events_from_batches are exact inverses."""
    workload = get_workload("barnes", scale=0.05)
    want = [repr(ev) for ev in workload.streams(1, seed=7)[0]]
    batches = batches_from_events(workload.streams(1, seed=7)[0], chunk=100)
    got = [repr(ev) for ev in events_from_batches(batches)]
    assert got == want


def test_auto_batching_matches_explicit():
    """use_batches=None (the default) must pick the batched path and
    still produce per-event-identical results."""
    workload = get_workload("water-spatial", scale=0.05)
    _, r_auto = _run(workload, "BEST", 1, use_batches=None)
    _, r_ev = _run(workload, "BEST", 1, use_batches=False)
    assert _full_stats(r_auto) == _full_stats(r_ev)
