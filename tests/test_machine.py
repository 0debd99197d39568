"""The simulated machine: event execution, sessions, crash, scheduling."""

import pytest

from repro.cache.spec import technique_factory
from repro.common.errors import ConfigurationError, SimulationError
from repro.common.events import FaseBegin, FaseEnd, Load, Store, Work
from repro.nvram.failure import CrashPlan
from repro.nvram.machine import Machine, MachineConfig
from repro.nvram.memory import NVRAM_BASE
from repro.workloads.base import Workload


class ListWorkload(Workload):
    """Replays fixed per-thread event lists."""

    name = "list"

    def __init__(self, *streams):
        self._streams = [list(s) for s in streams]

    def streams(self, num_threads, seed):
        return [iter(s) for s in self._streams]


def run(machine, *streams, technique="LA", threads=None, **kwargs):
    w = ListWorkload(*streams)
    return machine.run(
        w, technique_factory(technique), num_threads=threads or len(streams), seed=0, **kwargs
    )


PA = NVRAM_BASE  # persistent base address


def test_persistent_store_counted_and_flushed(machine):
    res = run(machine, [FaseBegin(), Store(PA, 8), FaseEnd()])
    assert res.persistent_stores == 1
    assert res.flushes == 1            # LA drains the single line
    assert res.flush_ratio == 1.0


def test_volatile_store_not_persistent(machine):
    res = run(machine, [Store(64, 8)])
    assert res.persistent_stores == 0
    assert res.flushes == 0


def test_store_spanning_two_lines(machine):
    res = run(machine, [FaseBegin(), Store(PA + 60, 8), FaseEnd()])
    assert res.persistent_stores == 1
    assert res.flushes == 2            # two lines drained


def test_work_advances_clock_and_instructions(machine):
    res = run(machine, [Work(500)])
    assert res.instructions == 500
    assert res.time >= 500


def test_load_touches_cache(machine):
    res = run(machine, [Load(PA, 8), Load(PA, 8)])
    assert res.threads[0].persistent_loads == 2
    assert res.l1_accesses == 2
    assert res.l1_misses == 1


def test_unmatched_fase_end_raises(machine):
    with pytest.raises(SimulationError):
        run(machine, [FaseEnd()])


def test_stream_ending_inside_fase_raises(machine):
    with pytest.raises(SimulationError):
        run(machine, [FaseBegin(), Store(PA, 8)])


def test_nested_fases_drain_only_at_outermost(machine):
    events = [
        FaseBegin(),
        Store(PA, 8),
        FaseBegin(),
        Store(PA + 64, 8),
        FaseEnd(),                     # inner end: no drain
        Store(PA + 128, 8),
        FaseEnd(),                     # outer end: drain all three lines
    ]
    res = run(machine, events)
    assert res.fase_count == 1
    assert res.flushes == 3
    assert res.threads[0].fase_end_flushes == 3


def test_two_threads_interleave_and_aggregate(machine):
    a = [FaseBegin(), Store(PA, 8), FaseEnd(), Work(10)]
    b = [FaseBegin(), Store(PA + 4096, 8), FaseEnd(), Work(10_000)]
    res = run(machine, a, b)
    assert res.num_threads == 2
    assert res.persistent_stores == 2
    assert res.fase_count == 2
    # Wall time is the slower thread's clock.
    assert res.time == max(t.cycles for t in res.threads)
    assert res.time >= 10_000


def test_wrong_stream_count_rejected(machine):
    w = ListWorkload([Work(1)])
    with pytest.raises(SimulationError):
        machine.run(w, technique_factory("LA"), num_threads=2, seed=0)


def test_thread_count_validation(machine):
    w = ListWorkload([Work(1)])
    with pytest.raises(ConfigurationError):
        machine.run(w, technique_factory("LA"), num_threads=0, seed=0)


def test_trace_recording(machine):
    events = [
        FaseBegin(), Store(PA, 8), Store(PA + 64, 8), FaseEnd(),
        Store(PA + 128, 8),
    ]
    res = run(machine, events, technique="BEST", record_traces=True)
    trace = res.traces[0]
    assert trace.n == 3
    assert list(trace.fase_ids)[:2] == [0, 0]
    assert list(trace.fase_ids)[2] == -1   # outside any FASE


def test_crash_plan_stops_execution():
    machine = Machine(MachineConfig(track_values=True))
    events = [FaseBegin()] + [Store(PA + i * 64, 8, value=i) for i in range(10)]
    events += [FaseEnd()]
    res = run(machine, events, technique="ER", crash_plan=CrashPlan(after_stores=4))
    assert res.crashed
    assert machine.crashed_state is not None
    assert machine.crashed_state.at_store == 4
    assert res.persistent_stores == 4


def test_crash_preserves_only_written_back_values():
    machine = Machine(MachineConfig(track_values=True))
    # BEST never flushes: nothing reaches NVRAM before the crash.
    events = [Store(PA + i * 64, 8, value=i) for i in range(5)]
    run(machine, events, technique="BEST", crash_plan=CrashPlan(after_stores=5))
    state = machine.crashed_state
    assert state.nvram == {}
    assert len(state.lost_lines) == 5


def test_eager_survives_crash():
    machine = Machine(MachineConfig(track_values=True))
    events = [Store(PA + i * 64, 8, value=i) for i in range(5)]
    run(machine, events, technique="ER", crash_plan=CrashPlan(after_stores=5))
    state = machine.crashed_state
    assert state.read(PA + 0) == 0
    assert state.read(PA + 4 * 64) == 4


# ---------------------------------------------------------------------------
# Sessions (the imperative driver)
# ---------------------------------------------------------------------------


def test_session_basic_flow(value_machine):
    tech = technique_factory("LA")(0)
    s = value_machine.session(tech)
    s.fase_begin()
    s.store(PA, 8, value="x")
    s.fase_end()
    assert s.stats.persistent_stores == 1
    assert s.stats.flushes == 1
    s.finish()
    assert value_machine.memory.read(PA) == "x"


def test_session_load_reads_through_cache(value_machine):
    tech = technique_factory("BEST")(0)
    s = value_machine.session(tech)
    s.store(PA, 8, value=41)
    # Dirty in cache, not in NVRAM - but loads must see it.
    assert s.load(PA) == 41
    assert value_machine.memory.read(PA) is None


def test_session_store_unmanaged_bypasses_technique(value_machine):
    tech = technique_factory("LA")(0)
    s = value_machine.session(tech)
    s.fase_begin()
    s.store_unmanaged(PA, 8, value="meta")
    s.fase_end()
    # Not routed to LA: nothing to drain, no flush counted.
    assert s.stats.flushes == 0
    assert s.stats.persistent_stores == 0
    assert value_machine.read_current(PA) == "meta"


def test_session_finish_inside_fase_raises(value_machine):
    s = value_machine.session(technique_factory("LA")(0))
    s.fase_begin()
    with pytest.raises(SimulationError):
        s.finish()


def test_session_trace_recording(value_machine):
    s = value_machine.session(technique_factory("BEST")(0), record_trace=True)
    s.fase_begin()
    s.store(PA, 8)
    s.fase_end()
    s.finish()
    assert s.trace().n == 1


def test_read_current_prefers_pending_value(value_machine):
    s = value_machine.session(technique_factory("ER")(0))
    s.store(PA, 8, value="first")    # ER flushes: durable immediately
    assert value_machine.read_current(PA) == "first"
