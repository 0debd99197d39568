"""The repro.obs trace recorder and metrics registry in isolation."""

import json

import pytest

from repro.common.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    ARG_NAMES,
    EV_DRAIN,
    EV_EVICT_FLUSH,
    EV_FASE_BEGIN,
    EV_FASE_END,
    EV_SIZE_SELECTED,
    EVENT_KINDS,
    NULL_RECORDER,
    TRACE_SCHEMA_VERSION,
    NullRecorder,
    TraceEvent,
    TraceRecorder,
    parse_jsonl,
)


def test_record_and_read_back():
    rec = TraceRecorder()
    rec.record(EV_FASE_BEGIN, 0, 10, 1)
    rec.record(EV_EVICT_FLUSH, 1, 20, 42, 1)
    rec.record(EV_FASE_END, 0, 30, 1)
    assert len(rec) == 3
    events = list(rec.events())
    assert events[0] == TraceEvent(EV_FASE_BEGIN, 0, 10, 1, 0)
    assert events[1] == TraceEvent(EV_EVICT_FLUSH, 1, 20, 42, 1, 0)
    assert rec.events_of(EV_FASE_END) == [TraceEvent(EV_FASE_END, 0, 30, 1, 0)]
    assert rec.counts() == {EV_EVICT_FLUSH: 1, EV_FASE_BEGIN: 1, EV_FASE_END: 1}
    rec.clear()
    assert len(rec) == 0
    assert rec.counts() == {}
    # An empty trace is still a valid schema-2 document: header only.
    assert json.loads(rec.to_jsonl()) == {
        "kind": "trace_meta",
        "schema": TRACE_SCHEMA_VERSION,
    }


def test_every_kind_has_arg_names():
    assert set(ARG_NAMES) == set(EVENT_KINDS)


def test_jsonl_uses_decoded_arg_names_and_sorted_keys():
    rec = TraceRecorder()
    rec.record(EV_DRAIN, 2, 100, 7, 3, 5)
    header, line = rec.to_jsonl().splitlines()
    assert json.loads(header) == {"kind": "trace_meta", "schema": 3}
    doc = json.loads(line)
    assert doc == {
        "kind": "drain",
        "tid": 2,
        "ts": 100,
        "stall_cycles": 7,
        "outstanding": 3,
        "fase_id": 5,
    }
    # Dumped with sort_keys, so the textual key order is sorted.
    assert list(doc) == sorted(doc)


def test_jsonl_round_trips_every_kind():
    rec = TraceRecorder()
    for i, kind in enumerate(EVENT_KINDS):
        rec.record(kind, i % 3, 10 * i, i, i + 1, i + 2)
    back = parse_jsonl(rec.to_jsonl())
    assert back.schema == TRACE_SCHEMA_VERSION
    # Args whose name is None are not serialized, so they return as 0.
    expected = []
    for e in rec.events():
        names = ARG_NAMES[e.kind]
        expected.append(
            TraceEvent(
                e.kind,
                e.thread_id,
                e.time,
                e.a if names[0] else 0,
                e.b if names[1] else 0,
                e.c if names[2] else 0,
            )
        )
    assert list(back.events()) == expected


def test_fast_encoder_matches_json_reference_for_every_kind():
    """The template-based ``encode_event_line`` must emit exactly what
    the json.dumps reference emits — for every known kind, including
    negative and huge int64 arguments — and fall back to the reference
    for unknown kinds."""
    from repro.obs.trace import encode_event_line, encode_event_line_json

    arg_sets = [
        (0, 0, 0, 0, 0),
        (3, 123_456, 7, -1, 42),
        (255, 2 ** 62, -(2 ** 62), 2 ** 63 - 1, -(2 ** 63)),
    ]
    for kind in EVENT_KINDS:
        for tid, ts, a, b, c in arg_sets:
            assert encode_event_line(kind, tid, ts, a, b, c) == (
                encode_event_line_json(kind, tid, ts, a, b, c)
            ), kind
    assert encode_event_line("no-such-kind", 1, 2, 3, 4, 5) == (
        encode_event_line_json("no-such-kind", 1, 2, 3, 4, 5)
    )


@pytest.mark.parametrize(
    "text",
    [
        # Schema 1: no trace_meta header, no resize_evict/fase_id.
        '{"dirty":1,"kind":"evict_flush","line":42,"tid":0,"ts":10}\n',
        # Schema 2: header, and the cause still named resize_evict.
        '{"kind":"trace_meta","schema":2}\n'
        '{"dirty":1,"kind":"evict_flush","line":42,"resize_evict":0,'
        '"tid":0,"ts":10}\n',
        # No header and no events at all.
        "",
    ],
    ids=["schema1", "schema2", "empty"],
)
def test_parse_jsonl_rejects_pre_schema3_documents(text):
    with pytest.raises(ConfigurationError, match="re-record the trace with schema 3"):
        parse_jsonl(text)


def test_parse_jsonl_rejects_schema3_event_missing_a_field():
    text = (
        '{"kind":"trace_meta","schema":3}\n'
        '{"dirty":1,"kind":"evict_flush","line":42,"resize_evict":0,'
        '"tid":0,"ts":10}\n'
    )
    with pytest.raises(ConfigurationError, match="lacks field 'cause'"):
        parse_jsonl(text)


def test_parse_jsonl_rejects_garbage():
    with pytest.raises(ConfigurationError):
        parse_jsonl('{"kind":"no_such_event","tid":0,"ts":0}\n')
    with pytest.raises(ConfigurationError):
        parse_jsonl("not json\n")
    with pytest.raises(ConfigurationError):
        parse_jsonl("[1, 2]\n")
    with pytest.raises(ConfigurationError):
        parse_jsonl('{"kind":"trace_meta","schema":99}\n')


def test_chrome_export_structure():
    rec = TraceRecorder()
    rec.record(EV_FASE_BEGIN, 0, 10, 1)
    rec.record(EV_SIZE_SELECTED, 0, 15, 8)
    rec.record(EV_FASE_BEGIN, 1, 12, 2)
    rec.record(EV_FASE_END, 1, 30, 2)
    rec.record(EV_FASE_END, 0, 40, 1)
    doc = rec.to_chrome()
    events = doc["traceEvents"]
    # One thread_name metadata record per track, first.
    meta = [e for e in events if e["ph"] == "M"]
    assert [m["tid"] for m in meta] == [0, 1]
    # Every fase_begin/fase_end becomes a balanced B/E span per thread.
    for tid in (0, 1):
        phases = [e["ph"] for e in events if e["ph"] in "BE" and e["tid"] == tid]
        assert phases == ["B", "E"]
    instants = [e for e in events if e["ph"] == "i"]
    assert len(instants) == 1
    assert instants[0]["name"] == EV_SIZE_SELECTED
    assert instants[0]["args"] == {"size": 8}
    # The document is plain-JSON serializable.
    json.dumps(doc)


def test_write_exports(tmp_path):
    rec = TraceRecorder()
    rec.record(EV_FASE_BEGIN, 0, 1, 1)
    jsonl = tmp_path / "t.jsonl"
    chrome = tmp_path / "t.json"
    rec.write_jsonl(str(jsonl))
    rec.write_chrome(str(chrome))
    assert jsonl.read_text() == rec.to_jsonl()
    assert json.loads(chrome.read_text()) == rec.to_chrome()


def test_iter_jsonl_streams_lines_lazily():
    import types

    rec = TraceRecorder()
    rec.record(EV_FASE_BEGIN, 0, 1, 1)
    rec.record(EV_EVICT_FLUSH, 1, 2, 9, 1, 0)
    it = rec.iter_jsonl()
    assert isinstance(it, types.GeneratorType)
    lines = list(it)
    # header + one line per event, each newline-terminated, and joining
    # them reproduces the document byte for byte.
    assert len(lines) == 3
    assert all(line.endswith("\n") for line in lines)
    assert "".join(lines) == rec.to_jsonl()


def test_write_jsonl_streams_byte_identically(tmp_path):
    rec = TraceRecorder()
    for i in range(50):
        rec.record(EV_EVICT_FLUSH, i % 3, 10 * i, i, 1, 0)
        rec.record(EV_DRAIN, i % 3, 10 * i + 5, 3, 3, i)
    path = tmp_path / "t.jsonl"
    rec.write_jsonl(str(path))
    assert path.read_text() == rec.to_jsonl()
    assert parse_jsonl(path.read_text()).counts() == rec.counts()


def test_null_recorder_is_inert():
    assert NULL_RECORDER.enabled is False
    assert TraceRecorder.enabled is True
    assert isinstance(NULL_RECORDER, NullRecorder)
    assert len(NULL_RECORDER) == 0
    NULL_RECORDER.record(EV_FASE_BEGIN, 0, 0, 1)
    assert len(NULL_RECORDER) == 0


# ---------------------------------------------------------------------------
# MetricsRegistry
# ---------------------------------------------------------------------------


def test_metrics_counters_and_gauges():
    m = MetricsRegistry(interval=100)
    m.inc("flushes")
    m.inc("flushes", 4)
    m.set_gauge("cycles/t0", 123.0)
    assert m.counters["flushes"] == 5
    assert m.gauges["cycles/t0"] == 123.0


def test_metrics_due_schedule_is_per_key():
    m = MetricsRegistry(interval=100)
    assert m.due("t0", 0) is True
    assert m.due("t0", 50) is False
    assert m.due("t0", 100) is True
    assert m.due("t0", 350) is True    # schedule advances from observed time
    assert m.due("t1", 40) is True     # keys are independent


def test_metrics_due_anchors_at_explicit_start():
    """A series born mid-run anchors its schedule at ``start`` instead of
    phantom-sampling at cycle 0."""
    m = MetricsRegistry(interval=100)
    assert m.due("sel", 40, start=500) is False   # not yet born
    assert m.due("sel", 499, start=500) is False
    assert m.due("sel", 500, start=500) is True
    assert m.due("sel", 550, start=500) is False  # interval now applies
    assert m.due("sel", 600, start=500) is True
    # start only matters for the key's first observation.
    assert m.due("sel", 700, start=0) is True


def test_metrics_series_and_errors():
    m = MetricsRegistry(interval=10)
    m.sample("depth/t0", 0, 1.0)
    m.sample("depth/t0", 10, 2.5)
    ts, vs = m.series("depth/t0")
    assert ts == [0, 10]
    assert vs == [1.0, 2.5]
    assert m.series_names() == ["depth/t0"]
    with pytest.raises(ConfigurationError):
        m.series("nope")
    with pytest.raises(ConfigurationError):
        MetricsRegistry(interval=0)


def test_metrics_json_round_trips(tmp_path):
    m = MetricsRegistry(interval=10)
    m.inc("c")
    m.set_gauge("g", 2.0)
    m.sample("s", 0, 1.0)
    path = tmp_path / "m.json"
    m.write_json(str(path))
    assert json.loads(path.read_text()) == m.to_dict()
    assert m.to_dict()["interval"] == 10


def test_max_points_decimates_series_in_place():
    m = MetricsRegistry(interval=10, max_points=4)
    for i in range(5):
        m.sample("depth", i * 10, float(i))
    # Exceeding the cap keeps every other point (the decimated series
    # still spans the run; interval granularity halves).
    ts, vs = m.series("depth")
    assert ts == [0, 20, 40]
    assert vs == [0.0, 2.0, 4.0]
    assert m.to_dict()["max_points"] == 4
    with pytest.raises(ConfigurationError):
        MetricsRegistry(interval=10, max_points=1)


def test_max_points_default_is_unbounded():
    m = MetricsRegistry(interval=10)
    for i in range(100):
        m.sample("depth", i * 10, float(i))
    assert len(m.series("depth")[0]) == 100
    assert m.to_dict()["max_points"] is None
