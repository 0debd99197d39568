"""The live telemetry pipeline: streaming recorder, profile, alerts.

The two load-bearing contracts are proven against the offline layer:
the incremental JSONL spill must be byte-identical to a post-hoc
``TraceRecorder.write_jsonl`` of the same run, and
``StreamingProfile.finalize()`` must equal ``analyze()`` of the full
trace — for any window size (the hypothesis property at the bottom).
"""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.spec import technique_factory
from repro.common.errors import ConfigurationError
from repro.experiments.harness import HarnessConfig
from repro.nvram.machine import Machine
from repro.obs.analyze import analyze
from repro.obs.live import (
    AlertEngine,
    AlertRule,
    StreamingProfile,
    StreamingRecorder,
    default_rules,
    parse_rule,
    progress_arity,
    resolve_grid_progress,
    snapshot_from_result,
)
from repro.obs.trace import (
    EV_EVICT_FLUSH,
    EV_SIZE_SELECTED,
    EV_STALL,
    EVENT_KINDS,
    TraceRecorder,
)
from repro.workloads.registry import get_workload


def _traced_pair(window_cycles=5_000):
    """One real run recorded three ways at once via subscriber fan-out:
    a streaming recorder spilling to a buffer, a full TraceRecorder
    mirror, and a StreamingProfile."""
    buf = io.StringIO()
    mirror = TraceRecorder()
    prof = StreamingProfile(window_cycles)
    rec = StreamingRecorder(
        fileobj=buf,
        window_cycles=window_cycles,
        subscribers=(mirror, prof),
    )
    config = HarnessConfig(scale=0.02, seed=7).machine_config()
    Machine(config, recorder=rec).run(
        get_workload("queue", scale=0.02),
        technique_factory("SC"),
        num_threads=2,
        seed=7,
    )
    rec.close()
    return rec, buf, mirror, prof


# ---------------------------------------------------------------------------
# StreamingRecorder
# ---------------------------------------------------------------------------


def test_spill_is_byte_identical_to_offline_export():
    rec, buf, mirror, _ = _traced_pair()
    assert len(mirror) == len(rec) > 0
    assert rec.windows_flushed > 0          # flushed incrementally, not once
    assert buf.getvalue() == mirror.to_jsonl()


def test_ring_is_bounded_and_counts_are_not():
    rec = StreamingRecorder(ring_capacity=4, window_cycles=10)
    for i in range(10):
        rec.record(EV_EVICT_FLUSH, 0, i, i, 1, 0)
    assert len(rec) == 10
    assert rec.dropped == 6
    assert [e.a for e in rec.tail()] == [6, 7, 8, 9]
    assert [e.a for e in rec.tail(2)] == [8, 9]
    assert rec.counts() == {EV_EVICT_FLUSH: 10}


def test_flush_happens_on_window_boundary_not_only_on_close():
    # spill_thread=False: the synchronous path makes the spill instant
    # observable (the async writer hands off at the same boundary but
    # lands the bytes a moment later).
    buf = io.StringIO()
    rec = StreamingRecorder(fileobj=buf, window_cycles=100, spill_thread=False)
    rec.record(EV_EVICT_FLUSH, 0, 10, 1, 1, 0)
    assert buf.getvalue().count("\n") == 1  # header only: window still open
    rec.record(EV_STALL, 0, 150, 5, 0)      # watermark crosses cycle 100
    assert rec.windows_flushed == 1
    assert buf.getvalue().count("\n") == 3  # header + both events spilled
    rec.close()


def test_quantum_tick_flushes_event_free_window():
    buf = io.StringIO()
    rec = StreamingRecorder(fileobj=buf, window_cycles=100, spill_thread=False)
    rec.record(EV_EVICT_FLUSH, 0, 10, 1, 1, 0)
    rec.on_quantum(0, 250)
    assert rec.windows_flushed == 2          # cycles 100 and 200 both passed
    assert buf.getvalue().count("\n") == 2
    rec.close()


def test_async_spill_is_byte_identical_under_backpressure():
    """With a one-chunk queue every boundary handoff blocks until the
    writer drains — the backpressure path — and the file must still come
    out byte-identical to the offline export."""
    buf = io.StringIO()
    mirror = TraceRecorder()
    rec = StreamingRecorder(
        fileobj=buf,
        window_cycles=2_000,
        subscribers=(mirror,),
        spill_queue_chunks=1,
    )
    config = HarnessConfig(scale=0.02, seed=7).machine_config()
    Machine(config, recorder=rec).run(
        get_workload("queue", scale=0.02),
        technique_factory("SC"),
        num_threads=2,
        seed=7,
    )
    rec.close()
    assert rec.windows_flushed > 1
    assert buf.getvalue() == mirror.to_jsonl()


def test_flush_lands_all_events_mid_run():
    """flush() keeps its synchronous meaning with the writer thread: on
    return the file holds every event recorded so far, even mid-window."""
    buf = io.StringIO()
    rec = StreamingRecorder(fileobj=buf, window_cycles=1_000_000)
    for i in range(5):
        rec.record(EV_EVICT_FLUSH, 0, 10 + i, i, 1, 0)
    rec.flush()
    assert buf.getvalue().count("\n") == 6   # header + all five events
    rec.close()


class _FailingFile(io.StringIO):
    """Accepts the schema header, then fails every write."""

    def __init__(self):
        super().__init__()
        self._writes = 0

    def write(self, s):
        self._writes += 1
        if self._writes > 1:
            raise OSError("disk full")
        return super().write(s)


def test_spill_writer_error_surfaces_at_flush_then_close():
    rec = StreamingRecorder(fileobj=_FailingFile(), window_cycles=100)
    rec.record(EV_EVICT_FLUSH, 0, 10, 1, 1, 0)
    with pytest.raises(RuntimeError, match="spill writer failed"):
        rec.flush()
    # close() re-raises but still tears down: thread joined, recorder
    # closed, and a second close is a no-op.
    with pytest.raises(RuntimeError, match="spill writer failed"):
        rec.close()
    assert rec.closed
    rec.close()


def test_spill_writer_error_surfaces_at_close_without_flush():
    rec = StreamingRecorder(fileobj=_FailingFile(), window_cycles=100)
    rec.record(EV_EVICT_FLUSH, 0, 10, 1, 1, 0)
    # No boundary crossed: the failing write only happens during the
    # close-time flush, so close() is where the error must surface.
    with pytest.raises(RuntimeError, match="spill writer failed"):
        rec.close()
    assert rec.closed


def test_subscriber_fanout_and_tick_forwarding():
    seen = []
    prof = StreamingProfile(100)
    rec = StreamingRecorder(window_cycles=100)
    rec.subscribe(lambda *event: seen.append(event))
    rec.subscribe(prof)
    rec.record(EV_SIZE_SELECTED, 1, 20, 8)
    rec.on_quantum(1, 350)
    assert seen == [(EV_SIZE_SELECTED, 1, 20, 8, 0, 0)]
    assert prof.windows_closed == 3          # ticks forwarded to subscribers
    assert prof.fold.adapt.selections == 1


def test_constructor_validation():
    with pytest.raises(ConfigurationError):
        StreamingRecorder(window_cycles=0)
    with pytest.raises(ConfigurationError):
        StreamingRecorder(ring_capacity=0)
    with pytest.raises(ConfigurationError):
        StreamingRecorder("x.jsonl", fileobj=io.StringIO())


def test_owned_file_is_closed_and_complete(tmp_path):
    path = tmp_path / "spill.jsonl"
    with StreamingRecorder(str(path), window_cycles=1000) as rec:
        rec.record(EV_EVICT_FLUSH, 0, 10, 5, 1, 0)
    mirror = TraceRecorder()
    mirror.record(EV_EVICT_FLUSH, 0, 10, 5, 1, 0)
    assert path.read_text() == mirror.to_jsonl()
    assert rec.closed


# ---------------------------------------------------------------------------
# StreamingProfile
# ---------------------------------------------------------------------------


def test_window_snapshots_carry_deltas_and_cumulatives():
    snaps = []
    prof = StreamingProfile(100, on_window=snaps.append)
    prof.record(EV_EVICT_FLUSH, 0, 10, 5, 1, 0)
    prof.record(EV_EVICT_FLUSH, 0, 20, 5, 1, 0)
    prof.record(EV_SIZE_SELECTED, 0, 120, 8)     # closes window 0
    prof.record(EV_EVICT_FLUSH, 1, 230, 9, 1, 1)  # closes window 1
    assert [s.index for s in snaps] == [0, 1]
    w0, w1 = snaps
    assert (w0.start_cycle, w0.end_cycle) == (0, 100)
    # The boundary-crossing event is attributed to the window open at
    # the moment it was recorded — i.e. the one it closes.
    assert (w0.events, w0.evict_flushes, w0.selections) == (3, 2, 1)
    assert (w1.events, w1.evict_flushes, w1.selections) == (1, 1, 0)
    assert w1.total_events == 4
    assert w0.to_dict()["index"] == 0
    assert list(prof.snapshots) == snaps


def test_quantum_ticks_close_event_free_windows():
    prof = StreamingProfile(5_000)
    prof.record(EV_EVICT_FLUSH, 0, 10, 1, 1, 0)
    prof.on_quantum(0, 25_000)
    assert prof.windows_closed == 5
    # The event-free windows are genuinely empty deltas.
    assert [s.events for s in prof.snapshots] == [1, 0, 0, 0, 0]


def test_streaming_profile_equals_offline_analysis_on_a_real_run():
    _, _, mirror, prof = _traced_pair()
    assert prof.windows_closed > 1           # the property is non-vacuous
    assert prof.finalize().to_dict() == analyze(mirror).to_dict()


def test_mid_stream_counters_are_readable():
    prof = StreamingProfile(100)
    prof.record(EV_EVICT_FLUSH, 0, 10, 5, 1, 0)
    prof.record(EV_EVICT_FLUSH, 0, 150, 5, 1, 0)
    assert prof.fold.prov.evict_flushes >= 1  # first window already folded
    prof.finalize()
    assert prof.fold.prov.evict_flushes == 2


# A compact strategy over well-formed events covering every fold branch.
_EVENTS = st.lists(
    st.tuples(
        st.sampled_from(sorted(EVENT_KINDS)),
        st.integers(0, 3),                     # thread id
        st.integers(0, 400),                   # timestamp
        st.integers(-1, 20),                   # a
        st.integers(0, 3),                     # b
        st.integers(-1, 5),                    # c
    ),
    max_size=60,
)


@pytest.mark.parametrize("window_cycles", [1, 7, 64])
@settings(max_examples=50, deadline=None)
@given(events=_EVENTS)
def test_finalize_equals_analyze_for_any_window(window_cycles, events):
    rec = TraceRecorder()
    prof = StreamingProfile(window_cycles)
    for kind, tid, ts, a, b, c in events:
        rec.record(kind, tid, ts, a, b, c)
        prof.record(kind, tid, ts, a, b, c)
    assert prof.finalize().to_dict() == analyze(rec).to_dict()


# ---------------------------------------------------------------------------
# Alert rules
# ---------------------------------------------------------------------------


def test_parse_rule_grammar():
    r = parse_rule("spike: rate(evict_flushes) > 3 @error")
    assert (r.kind, r.metric, r.op, r.value, r.severity) == (
        "rate", "evict_flushes", ">", 3.0, "error",
    )
    r = parse_rule("slo: sustained(stall_share, 4) >= 0.5")
    assert (r.kind, r.window, r.severity) == ("sustained", 4, "warning")
    r = parse_rule("floor: events < -2 @info")
    assert (r.kind, r.value, r.severity) == ("threshold", -2.0, "info")
    assert "rate(evict_flushes) > 3" in parse_rule(
        "spike: rate(evict_flushes) > 3"
    ).condition()


@pytest.mark.parametrize(
    "text",
    ["no-colon > 3", "x: metric >> 3", "x: metric > 3 @loud", "x: f(m) > 1"],
)
def test_parse_rule_rejects_bad_grammar(text):
    with pytest.raises(ConfigurationError):
        parse_rule(text)


def test_rule_validation():
    with pytest.raises(ConfigurationError):
        AlertRule(name="x", metric="m", kind="median")
    with pytest.raises(ConfigurationError):
        AlertRule(name="x", metric="m", severity="fatal")
    with pytest.raises(ConfigurationError):
        AlertRule(name="x", metric="m", kind="sustained", window=0)


# ---------------------------------------------------------------------------
# AlertEngine
# ---------------------------------------------------------------------------


def _windows(engine, values, metric="evict_flushes"):
    fired = []
    for i, v in enumerate(values):
        fired.extend(engine.observe_window({"index": i, metric: v}))
    return fired


def test_threshold_alert_is_edge_triggered():
    engine = AlertEngine([parse_rule("hot: evict_flushes > 10")])
    fired = _windows(engine, [5, 20, 30, 5, 40])
    # Two rising edges (20 and 40); the sustained 30 does not re-fire.
    assert [a.window_index for a in fired] == [1, 4]
    assert [a.value for a in fired] == [20.0, 40.0]
    assert fired[0].message == "evict_flushes > 10 — observed 20 at window 1"


def test_rate_rule_needs_a_usable_previous_window():
    engine = AlertEngine([parse_rule("spike: rate(evict_flushes) > 3")])
    fired = _windows(engine, [0, 100, 100, 500])
    # Window 1 has prev=0 (skipped); 100->500 is the only 3x jump.
    assert [a.window_index for a in fired] == [3]
    assert fired[0].value == 5.0


def test_sustained_rule_requires_consecutive_breaches():
    engine = AlertEngine(
        [parse_rule("slo: sustained(stall_share, 3) > 0.5 @error")]
    )
    fired = _windows(engine, [0.9, 0.9, 0.2, 0.9, 0.9, 0.9], metric="stall_share")
    assert [a.window_index for a in fired] == [5]  # streak reset at window 2
    assert fired[0].severity == "error"


def test_rules_over_absent_metrics_are_skipped():
    engine = AlertEngine([parse_rule("hot: no_such_metric > 0")])
    assert _windows(engine, [1, 2, 3]) == []


def test_duplicate_rule_names_are_rejected():
    with pytest.raises(ConfigurationError):
        AlertEngine([parse_rule("x: a > 1"), parse_rule("x: b > 2")])


def test_alert_log_is_deterministic_jsonl(tmp_path):
    log = tmp_path / "alerts.jsonl"
    engine = AlertEngine(
        [parse_rule("hot: evict_flushes > 10 @error")], log_path=str(log)
    )
    _windows(engine, [5, 20, 5, 30])
    engine.close()
    assert log.read_text() == engine.to_jsonl()
    docs = [json.loads(line) for line in log.read_text().splitlines()]
    assert [d["kind"] for d in docs] == ["alert", "alert"]
    assert engine.max_severity() == "error"
    rewritten = tmp_path / "again.jsonl"
    engine.write_jsonl(str(rewritten))
    assert rewritten.read_text() == log.read_text()


def test_diagnosis_forwarding_and_severity_ranking():
    from repro.obs.analyze import Diagnosis

    engine = AlertEngine([parse_rule("hot: evict_flushes > 10 @info")])
    _windows(engine, [20])
    fired = engine.observe_diagnoses(
        [
            Diagnosis(
                code="knee_oscillation", severity="error",
                thread_id=1, message="oscillating",
            ),
            Diagnosis(
                code="clean_shutdown", severity="info",
                thread_id=0, message="not forwarded",
            ),
        ]
    )
    assert [a.rule for a in fired] == ["diagnosis:knee_oscillation"]
    assert engine.max_severity() == "error"
    assert [a.severity for a in engine.by_severity()] == ["error", "info"]


def test_default_rules_stay_silent_on_a_seed_run():
    _, _, _, prof = _traced_pair(window_cycles=50_000)
    engine = AlertEngine(default_rules())
    for snap in prof.snapshots:
        engine.observe_window(snap)
    final = prof.finalize()
    engine.observe_diagnoses(final.diagnoses)
    assert [a for a in engine.alerts if a.severity == "error"] == []


# ---------------------------------------------------------------------------
# rich progress plumbing
# ---------------------------------------------------------------------------


def test_progress_arity():
    assert progress_arity(lambda d, t: None) == 2
    assert progress_arity(lambda d, t, c: None) == 3
    assert progress_arity(lambda d, t, c, s: None) == 4
    assert progress_arity(lambda *a: None) == 99
    assert progress_arity(len) in (-1, 1)    # builtins may be opaque


def test_resolve_grid_progress_dispatches_by_arity():
    legacy, rich = [], []
    three = resolve_grid_progress(lambda d, t, c: legacy.append((d, t, c)))
    four = resolve_grid_progress(lambda d, t, c, s: rich.append(s))

    class _Result:
        threads = ()
        time = 0

    three(1, 2, ("w", "SC", 1), _Result())
    four(1, 2, ("w", "SC", 1), _Result())
    assert legacy == [(1, 2, ("w", "SC", 1))]
    assert rich[0]["cell"] == "w/SC/t1"
    assert resolve_grid_progress(None) is None


def test_snapshot_from_result_on_a_real_cell(tiny_harness):
    cell = ("queue", "SC", 2)
    result = tiny_harness.run(*cell)
    snap = snapshot_from_result(cell, result)
    assert snap["cell"] == "queue/SC/t2"
    assert snap["workload"] == "queue"
    assert snap["threads"] == 2
    assert snap["cycles"] > 0
    assert 0.0 <= snap["stall_share"] < 1.0
    assert snap["selections"] == sum(
        len(t.selected_sizes) for t in result.threads
    )


def test_run_grid_feeds_rich_progress(tiny_harness):
    cells = [("queue", "SC", 1), ("queue", "BEST", 1)]
    rich = []
    tiny_harness.run_grid(
        cells, progress=lambda d, t, c, s: rich.append((d, t, c, s["cell"]))
    )
    assert rich == [
        (1, 2, ("queue", "SC", 1), "queue/SC/t1"),
        (2, 2, ("queue", "BEST", 1), "queue/BEST/t1"),
    ]
    legacy = []
    tiny_harness.run_grid(cells, progress=lambda d, t, c: legacy.append(c))
    assert legacy == cells


def test_parallel_grid_feeds_rich_progress():
    from repro.experiments.harness import Harness, HarnessConfig

    harness = Harness(HarnessConfig(scale=0.02, seed=7))
    cells = [("queue", "SC", 1), ("queue", "BEST", 1)]
    rich = []
    harness.run_grid(
        cells, jobs=2, progress=lambda d, t, c, s: rich.append(s["cell"])
    )
    assert sorted(rich) == ["queue/BEST/t1", "queue/SC/t1"]


def test_campaign_feeds_rich_progress():
    from repro.faults.campaign import FaultCampaignSpec, run_campaign

    infos = []
    run_campaign(
        "linked-list",
        technique="SC",
        scale=0.02,
        spec=FaultCampaignSpec(max_sites=4),
        progress=lambda d, t, info: infos.append(info),
    )
    assert len(infos) >= 4                  # sites x crash models
    assert {"site", "model", "site_class", "violated"} <= set(infos[0])
    legacy = []
    run_campaign(
        "linked-list",
        technique="SC",
        scale=0.02,
        spec=FaultCampaignSpec(max_sites=4),
        progress=lambda d, t: legacy.append(d),
    )
    assert legacy == list(range(1, len(infos) + 1))
