"""The ``monitor`` artifact end to end: grid mode, follow mode, gating.

Everything runs headless (``--once``), the way the CI smoke invokes it;
the live dashboard path is exercised through the same renderer with a
plain stream.
"""

import io
import json

import pytest

from repro.experiments.__main__ import main
from repro.experiments.monitor import TraceTailer, build_rules
from repro.obs.live import StreamingProfile
from repro.obs.trace import TraceRecorder, EV_EVICT_FLUSH


def _trace_file(tmp_path, name="t"):
    """One traced CLI run; returns the jsonl trace path."""
    path = tmp_path / f"{name}.jsonl"
    rc = main(
        [
            "run", "--workload", "queue", "--technique", "SC",
            "--threads", "2", "--scale", "0.02", "--seed", "7",
            "--trace", str(path),
        ]
    )
    assert rc == 0
    return path


# ---------------------------------------------------------------------------
# TraceTailer
# ---------------------------------------------------------------------------


def test_tailer_holds_back_partial_lines(tmp_path):
    rec = TraceRecorder()
    rec.record(EV_EVICT_FLUSH, 0, 10, 5, 1, 0)
    rec.record(EV_EVICT_FLUSH, 1, 20, 9, 1, 0)
    text = rec.to_jsonl()
    cut = text.rindex("\n", 0, len(text) - 1) + 10   # mid final line
    path = tmp_path / "partial.jsonl"
    path.write_text(text[:cut])

    prof = StreamingProfile(1_000)
    tailer = TraceTailer(str(path), prof)
    assert tailer.poll() == 1                        # only the complete event
    with open(path, "a", encoding="utf-8") as fh:    # the writer catches up
        fh.write(text[cut:])
    assert tailer.poll() == 1
    tailer.close()
    assert tailer.events == 2
    assert tailer.decoder.schema == rec.schema
    assert prof.finalize().provenance.evict_flushes == 2


def test_tailer_survives_rotation_and_truncation(tmp_path):
    """Regression: a rotated or truncated file must not wedge the tail.

    The tailer used to keep reading a stale handle at a stale offset
    after the writer replaced (new inode) or truncated the file — every
    subsequent poll returned 0 forever.  It now stats the *path* and
    reopens from the top, dropping any held-back partial line (those
    bytes belonged to the old file).
    """
    rec = TraceRecorder()
    rec.record(EV_EVICT_FLUSH, 0, 10, 5, 1, 0)
    rec.record(EV_EVICT_FLUSH, 1, 20, 9, 1, 0)
    path = tmp_path / "rotating.jsonl"
    path.write_text(rec.to_jsonl())

    prof = StreamingProfile(1_000)
    tailer = TraceTailer(str(path), prof)
    assert tailer.poll() == 2
    # Leave a partial line pending, then rotate: the buffer must reset.
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"kind":"evict_fl')
    assert tailer.poll() == 0

    path.unlink()                       # mid-rotation: path briefly absent
    assert tailer.poll() == 0           # no raise, just quiet

    rec2 = TraceRecorder()
    rec2.record(EV_EVICT_FLUSH, 0, 30, 7, 1, 0)
    rec2.record(EV_EVICT_FLUSH, 0, 40, 8, 1, 0)
    rec2.record(EV_EVICT_FLUSH, 0, 50, 9, 1, 0)
    path.write_text(rec2.to_jsonl())    # new inode
    assert tailer.poll() == 3           # reread from offset 0, buffer dropped

    rec3 = TraceRecorder()
    rec3.record(EV_EVICT_FLUSH, 0, 60, 4, 1, 0)
    path.write_text(rec3.to_jsonl())    # same path, now *shorter*: truncation
    assert tailer.poll() == 1
    tailer.close()
    assert tailer.events == 6


def test_tailer_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"kind":"martian","tid":0,"ts":1}\n')
    from repro.common.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        TraceTailer(str(path), StreamingProfile(100)).poll()
    path.write_text("not json\n")
    with pytest.raises(ConfigurationError):
        TraceTailer(str(path), StreamingProfile(100)).poll()


@pytest.mark.parametrize(
    "header",
    ['{"kind":"trace_meta","schema":99}\n', '{"kind":"trace_meta","schema":2}\n', ""],
    ids=["schema99", "schema2", "headerless"],
)
def test_tailer_rejects_any_schema_but_3(tmp_path, header):
    """Regression: the tail used to ingest a schema-99 file's events
    that ``parse_jsonl`` (and so ``profile``) rejects; both now decode
    through one ``TraceLineDecoder``."""
    from repro.common.errors import ConfigurationError

    path = tmp_path / "other.jsonl"
    path.write_text(
        header + '{"cause":0,"dirty":1,"kind":"evict_flush","line":5,"tid":0,"ts":10}\n'
    )
    with pytest.raises(ConfigurationError, match="schema"):
        TraceTailer(str(path), StreamingProfile(100)).poll()


def test_tailer_rejects_a_headerless_file_rotated_in(tmp_path):
    """A rotated-in file is a new document and needs its own header."""
    from repro.common.errors import ConfigurationError

    rec = TraceRecorder()
    rec.record(EV_EVICT_FLUSH, 0, 10, 5, 1, 0)
    path = tmp_path / "rotating.jsonl"
    path.write_text(rec.to_jsonl())
    tailer = TraceTailer(str(path), StreamingProfile(100))
    assert tailer.poll() == 1
    path.unlink()
    path.write_text(
        '{"cause":0,"dirty":1,"kind":"evict_flush","line":6,"tid":0,"ts":20}\n'
    )
    with pytest.raises(ConfigurationError, match="trace_meta header"):
        tailer.poll()


# ---------------------------------------------------------------------------
# rule assembly
# ---------------------------------------------------------------------------


def test_build_rules_overrides_defaults_by_name():
    rules = {r.name: r for r in build_rules(["resize_storm: selections > 99"])}
    assert rules["resize_storm"].value == 99.0      # replaced, not duplicated
    assert "stall_share_slo" in rules               # other defaults intact
    extra = {r.name for r in build_rules(["mine: events > 1 @info"])}
    assert "mine" in extra


def test_build_rules_base_swaps_the_stock_set():
    from repro.obs.fleet import fleet_rules

    rules = {
        r.name: r
        for r in build_rules(
            ["dead_worker: dead_workers > 5"], base=fleet_rules()
        )
    }
    assert rules["dead_worker"].value == 5.0        # override still by name
    assert "straggler_ratio" in rules               # fleet defaults intact
    assert "stall_share_slo" not in rules           # single-run set swapped out


# ---------------------------------------------------------------------------
# CLI: follow mode
# ---------------------------------------------------------------------------


def test_cli_monitor_follow_once(tmp_path, capsys):
    trace = _trace_file(tmp_path)
    json_out = tmp_path / "summary.json"
    log = tmp_path / "alerts.jsonl"
    rc = main(
        [
            "monitor", "--follow", str(trace), "--once",
            "--window", "50000", "--json", str(json_out),
            "--alert-log", str(log),
        ]
    )
    assert rc == 0                                   # seed run: no error alerts
    doc = json.loads(json_out.read_text())
    assert doc["mode"] == "follow"
    assert doc["events"] > 0
    assert doc["windows_closed"] > 1
    assert doc["profile"]["schema"] == 3
    assert log.exists()                              # created even when silent


def test_cli_monitor_follow_matches_offline_profile(tmp_path, capsys):
    from repro.obs.analyze import analyze
    from repro.obs.trace import read_jsonl

    trace = _trace_file(tmp_path)
    json_out = tmp_path / "summary.json"
    rc = main(["monitor", "--follow", str(trace), "--once", "--json", str(json_out)])
    assert rc == 0
    streamed = json.loads(json_out.read_text())["profile"]
    offline = analyze(read_jsonl(str(trace))).to_dict()
    assert streamed == offline


def test_cli_monitor_fail_on_gates_exit_code(tmp_path, capsys):
    trace = _trace_file(tmp_path)
    # A rule every window trivially breaches, promoted to error.
    args = [
        "monitor", "--follow", str(trace), "--once",
        "--rule", "everything: events >= 0 @error",
    ]
    assert main(args) == 1
    assert main(args + ["--fail-on", "never"]) == 0
    capsys.readouterr()


def test_cli_monitor_rejects_bad_rule(tmp_path, capsys):
    trace = _trace_file(tmp_path)
    rc = main(["monitor", "--follow", str(trace), "--rule", "not a rule"])
    assert rc == 2
    assert "unparseable" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI: grid mode
# ---------------------------------------------------------------------------


def test_cli_monitor_grid_once_json(tmp_path, capsys):
    json_out = tmp_path / "summary.json"
    log = tmp_path / "alerts.jsonl"
    rc = main(
        [
            "monitor", "--grid", "table1", "--scale", "0.02", "--seed", "7",
            "--jobs", "2", "--once", "--json", str(json_out),
            "--alert-log", str(log),
        ]
    )
    assert rc == 0
    doc = json.loads(json_out.read_text())
    assert doc["mode"] == "grid"
    assert doc["cells_done"] == doc["cells_total"] > 0
    assert len(doc["snapshots"]) == doc["cells_done"]
    assert {"cell", "stall_share", "selections"} <= set(doc["snapshots"][0])
    # Zero error alerts on the seed grid — the CI smoke contract.
    assert not [a for a in doc["alerts"] if a["severity"] == "error"]


def test_monitor_grid_renders_dashboard(capsys):
    from repro.experiments.harness import Harness, HarnessConfig
    from repro.experiments.monitor import monitor_grid
    from repro.obs.live import AlertEngine

    stream = io.StringIO()
    with AlertEngine() as engine:
        summary = monitor_grid(
            Harness(HarnessConfig(scale=0.02, seed=7)),
            "table1",
            engine=engine,
            refresh=0.0,
            once=False,                  # exercise the live renderer
            stream=stream,
        )
    out = stream.getvalue()
    assert "repro live monitor" in out
    assert "alerts:" in out
    assert summary["cells_done"] == summary["cells_total"]


# ---------------------------------------------------------------------------
# CLI: fleet mode
# ---------------------------------------------------------------------------


def test_cli_monitor_fleet_grid_once_then_follow(tmp_path, capsys):
    json_out = tmp_path / "fleet.json"
    span = tmp_path / "spans.json"
    flog = tmp_path / "fleet.jsonl"
    log = tmp_path / "alerts.jsonl"
    rc = main(
        [
            "monitor", "--fleet", "--grid", "adaptation",
            "--scale", "0.02", "--seed", "7", "--jobs", "2", "--once",
            "--json", str(json_out), "--span-export", str(span),
            "--fleet-log", str(flog), "--alert-log", str(log),
        ]
    )
    assert rc == 0                          # no dead workers on the seed grid
    doc = json.loads(json_out.read_text())
    assert doc["mode"] == "fleet-grid"
    snap = doc["fleet"]
    assert snap["tasks_done"] == snap["tasks_total"] > 0
    assert snap["dead_workers"] == 0 and snap["errors"] == 0
    assert len(doc["workers"]) == 2
    assert all(w["status"] == "done" for w in doc["workers"])
    # The span export is valid Perfetto trace_event JSON for this pool.
    spans = json.loads(span.read_text())
    assert spans["otherData"]["jobs"] == 2
    assert spans["otherData"]["tasks"] == snap["tasks_total"]
    assert any(e["ph"] == "X" for e in spans["traceEvents"])

    # The spill replays to the same fleet state in another process.
    out2 = tmp_path / "follow.json"
    rc2 = main(
        [
            "monitor", "--fleet", "--follow", str(flog), "--once",
            "--json", str(out2),
        ]
    )
    assert rc2 == 0
    followed = json.loads(out2.read_text())
    assert followed["mode"] == "fleet-follow"
    assert followed["events"] > 0
    assert followed["fleet"]["tasks_done"] == snap["tasks_done"]
    assert followed["workers"] == doc["workers"]


def test_cli_monitor_fleet_campaign_once(tmp_path, capsys):
    json_out = tmp_path / "campaign.json"
    rc = main(
        [
            "monitor", "--fleet", "--campaign",
            "--workloads", "linked-list", "--techniques", "SC",
            "--scale", "0.01", "--max-sites", "20",
            "--jobs", "2", "--once", "--json", str(json_out),
        ]
    )
    assert rc == 0
    doc = json.loads(json_out.read_text())
    assert doc["mode"] == "fleet-campaign"
    assert doc["workload"] == "linked-list" and doc["technique"] == "SC"
    assert doc["matrix_ok"] is True
    assert doc["injected"] > 0
    # Per-crash progress events folded into the site-class table.
    assert sum(c["done"] for c in doc["site_classes"].values()) == doc["injected"]


def test_cli_monitor_fleet_rejects_single_job(tmp_path, capsys):
    rc = main(
        ["monitor", "--fleet", "--grid", "table1", "--jobs", "1", "--once"]
    )
    assert rc == 2
    assert "--jobs >= 2" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# profile --top-k rides along
# ---------------------------------------------------------------------------


def test_cli_profile_top_k(tmp_path, capsys):
    trace = _trace_file(tmp_path)
    json_out = tmp_path / "p.json"
    rc = main(
        ["profile", "--trace", str(trace), "--top-k", "2",
         "--json", str(json_out)]
    )
    assert rc == 0
    doc = json.loads(json_out.read_text())
    assert len(doc["provenance"]["top_lines"]) <= 2
    assert main(["profile", "--trace", str(trace), "--top-k", "0"]) == 2
    capsys.readouterr()


def test_cli_profile_json_dash_writes_stdout(tmp_path, capsys):
    trace = _trace_file(tmp_path)
    capsys.readouterr()                     # drain the run artifact's output
    rc = main(["profile", "--trace", str(trace), "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 3
