"""The benchmark trajectory runner: a pinned perf suite over time.

Performance work needs a stable yardstick.  This module times a *pinned*
suite — fixed workloads, scales, seeds and techniques — and writes the
measurements to ``BENCH_<date>.json`` in the repo root, so the sequence
of committed files is a perf trajectory across PRs.  Three benches:

``simulator``
    Core-loop throughput: the same (workload, technique) run executed on
    the per-event path (``use_batches=False``) and on the batched fast
    path (prebuilt :class:`EventBatch` columns, the steady state the
    harness sees once ``BatchCachingWorkload`` has materialized a
    stream).  Reported as events/second, best of N repetitions.

``reuse_counts``
    Analysis-side throughput of the linear-time reuse accumulator
    (§III-B's all-window counting) on a synthetic interval set, in
    intervals/second.

``analyzer``
    Throughput of the offline trace analyzer
    (:func:`repro.obs.analyze.analyze`) on a deterministic synthetic
    trace mixing every event kind, in events/second.  Guards the
    one-pass fold: a per-event-object rewrite would show up here long
    before it hurts anyone profiling a real run.

``streaming_recorder``
    Recording-path overhead of the live telemetry layer on a pinned
    flush-heavy run: the same (workload, technique) case executed with
    the shared ``NULL_RECORDER``, with a buffering ``TraceRecorder``,
    and with a :class:`repro.obs.live.StreamingRecorder` spilling JSONL
    to disk — events/second each way, plus the overhead ratios vs the
    null path that the acceptance criteria pin.

``policy_zoo``
    Simulation cost of composed write-cache policy specs
    (:mod:`repro.cache.spec`) against bare SC on one pinned run — the
    per-store price of the ``StagedTechnique`` wrapper (admission
    filters, victim port, quantum cleaning), best of N repetitions in
    CPU time, with the per-stage flush counters alongside.

``harness``
    End-to-end wall clock of a Figure-4 subset grid three ways: a fresh
    sequential sweep, ``run_grid(..., jobs=N)`` on fresh harnesses, and
    a warm-disk-cache replay.  The ``jobs`` axis only helps with real
    cores — the document records ``cpus`` so a trajectory point from a
    single-CPU container (where 4 workers serialize and the measured
    "speedup" is pure overhead, < 1x) is not misread as a regression.

``fleet_overhead``
    Wall-clock price of the fleet telemetry bus
    (:mod:`repro.obs.fleet`): one pinned parallel grid run bare and run
    with events, resource sampling, JSONL spill and span export all
    attached — the ratio the <= 1.10x acceptance ceiling pins.

``ledger``
    Per-run price of the provenance ledger (:mod:`repro.obs.ledger`):
    one pinned ``api.run`` timed with recording off and on — the ratio
    the < 1.05x acceptance ceiling pins — plus raw append throughput.

Usage::

    PYTHONPATH=src python -m repro.experiments.bench            # full
    PYTHONPATH=src python -m repro.experiments.bench --quick    # CI smoke
    python tools/bench.py --out BENCH.json

Timing protocol: the single-process benches (``simulator``,
``reuse_counts``) are measured in *process CPU time*, best of ``--reps``
repetitions — on a shared single-CPU container, wall clock mostly
measures the neighbours, while CPU time is what the code costs; the
harness sweeps span multiple processes, so they are wall clock (once
each) and must be read against the recorded ``cpus``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.cache.spec import technique_factory
from repro.experiments.harness import Harness, HarnessConfig
from repro.locality.reuse import reuse_counts
from repro.nvram.machine import Machine
from repro.workloads.base import BatchCachingWorkload
from repro.workloads.registry import get_workload

#: Everything below is pinned: changing any value breaks comparability
#: across committed BENCH files, so bump ``SUITE_VERSION`` if you must.
SUITE_VERSION = 1
#: Shape of the payload ``tools/bench_compare.py`` consumes (simulator
#: row fields, metric names).  Documents written before the field
#: existed are schema 1; the comparator refuses cross-schema diffs.
BENCH_SCHEMA_VERSION = 1
BENCH_SEED = 7

#: Simulator bench: (workload, technique, factory kwargs).  BEST is the
#: bare core loop; SC-offline adds the software cache at a pinned size.
SIM_SCALE = 0.5
SIM_CASES = (
    # SC-offline sizes are the paper's §IV-G selections per program.
    ("barnes", "BEST", {}),
    ("barnes", "SC-offline", {"sc_fixed_size": 15}),
    ("water-spatial", "BEST", {}),
    ("water-spatial", "SC-offline", {"sc_fixed_size": 23}),
)

#: reuse_counts bench: synthetic reuse intervals over a pinned trace.
REUSE_N = 500_000
REUSE_INTERVALS = 250_000

#: analyzer bench: synthetic trace length (events).
ANALYZER_EVENTS = 100_000

#: Streaming-recorder bench: a flush/FASE-heavy pinned case (the same
#: shape ``benchmarks/test_obs_overhead.py`` bounds).
STREAM_SCALE = 0.2
STREAM_WORKLOAD = "queue"
STREAM_TECHNIQUE = "SC"
STREAM_THREADS = 2

#: Policy-zoo bench: composed policy stages on one pinned flush-heavy
#: case.  Prices the StagedTechnique wrapper (filters, victim port,
#: quantum cleaning) against bare SC on the same run.
POLICY_ZOO_SCALE = 0.3
POLICY_ZOO_WORKLOAD = "mdb"
POLICY_ZOO_BENCH_SPECS = (
    "SC",
    "SC+nhit:2",
    "SC+cutoff:8",
    "SC+clean:4",
    "SC+victim:16",
    "SC+nhit:2+clean:4+victim:16",
)

#: Harness bench: a Figure-4 subset (single-thread speedups over ER).
HARNESS_SCALE = 0.5
HARNESS_WORKLOADS = ("barnes", "volrend", "water-nsquared", "water-spatial")
HARNESS_TECHNIQUES = ("ER", "AT", "SC", "SC-offline", "BEST")


def cpus_available() -> int:
    """CPUs this process may actually run on (affinity-aware).

    ``os.cpu_count()`` reports the host's cores; containers and CI
    runners often pin the process to fewer.  Parallel speedups must be
    read against *this* number — the committed 0.9x harness point was
    measured with ``cpus: 1``, where four workers can only serialize.
    """
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _best_of(reps: int, fn: Callable[[], None]) -> float:
    """Minimum process-CPU-time over ``reps`` runs of ``fn``."""
    best = float("inf")
    for _ in range(reps):
        start = time.process_time()
        fn()
        best = min(best, time.process_time() - start)
    return best


# ---------------------------------------------------------------------------


def bench_simulator(scale: float, reps: int) -> List[Dict]:
    """Per-event vs batched events/second on the pinned cases."""
    rows = []
    for name, technique, kwargs in SIM_CASES:
        workload = BatchCachingWorkload(get_workload(name, scale=scale))
        config = HarnessConfig(scale=scale, seed=BENCH_SEED).machine_config()
        # Materialize the batch columns up front: the steady state under
        # BatchCachingWorkload, and what makes this a core-loop bench
        # rather than a generator bench.
        batches = workload.batch_streams(1, BENCH_SEED)
        events = sum(len(b) for b in list(batches[0]))

        def run(use_batches: bool) -> None:
            Machine(config).run(
                workload,
                technique_factory(technique, **kwargs),
                num_threads=1,
                seed=BENCH_SEED,
                use_batches=use_batches,
            )

        per_event_s = _best_of(reps, lambda: run(False))
        batched_s = _best_of(reps, lambda: run(True))
        rows.append(
            {
                "workload": name,
                "technique": technique,
                "events": events,
                "per_event_s": round(per_event_s, 4),
                "batched_s": round(batched_s, 4),
                "per_event_eps": round(events / per_event_s),
                "batched_eps": round(events / batched_s),
                "speedup": round(per_event_s / batched_s, 2),
            }
        )
    return rows


def bench_reuse_counts(n: int, intervals: int, reps: int) -> Dict:
    """Throughput of the linear-time all-window reuse accumulator."""
    rng = np.random.default_rng(BENCH_SEED)
    starts = rng.integers(1, n, size=intervals, dtype=np.int64)
    ends = starts + rng.integers(1, 1000, size=intervals, dtype=np.int64)
    np.minimum(ends, n, out=ends)
    keep = ends > starts
    starts, ends = starts[keep], ends[keep]
    best = _best_of(reps, lambda: reuse_counts(starts, ends, n))
    return {
        "n": n,
        "intervals": int(len(starts)),
        "best_s": round(best, 4),
        "intervals_per_sec": round(len(starts) / best),
    }


def _synthetic_trace(n: int):
    """A deterministic ``n``-event trace exercising every analyzer path.

    An LCG stands in for randomness (the shape must be pinned, not
    sampled): interleaved FASE spans on four threads, evict flushes over
    a skewed line set, stalls, attributed drains, and a controller
    narrative long enough to trip the oscillation detector — the
    worst-case (every-branch) profile for the one-pass fold.
    """
    from repro.obs.trace import (
        EV_DRAIN,
        EV_EVICT_FLUSH,
        EV_FASE_BEGIN,
        EV_FASE_END,
        EV_KNEE_CANDIDATE,
        EV_MRC_COMPUTED,
        EV_SIZE_SELECTED,
        EV_STALL,
        TraceRecorder,
    )

    rec = TraceRecorder()
    state = BENCH_SEED
    uid = 0
    open_uid = [-1, -1, -1, -1]
    while len(rec) < n:
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        pick = (state >> 32) % 100
        tid = (state >> 16) % 4
        t = len(rec) * 7
        if pick < 55:
            rec.record(EV_EVICT_FLUSH, tid, t, (state >> 8) % 997, 1, int(pick < 5))
        elif pick < 70:
            if open_uid[tid] < 0:
                open_uid[tid] = uid = uid + 1
                rec.record(EV_FASE_BEGIN, tid, t, uid)
            else:
                rec.record(EV_FASE_END, tid, t, open_uid[tid])
                rec.record(EV_DRAIN, tid, t, pick, 2, open_uid[tid])
                open_uid[tid] = -1
        elif pick < 85:
            rec.record(EV_STALL, tid, t, pick, pick % 2)
        else:
            size = 4 if (state >> 40) % 2 else 8
            rec.record(EV_MRC_COMPUTED, tid, t, 1000, 1)
            rec.record(EV_KNEE_CANDIDATE, tid, t, size, 0)
            rec.record(EV_SIZE_SELECTED, tid, t, size)
    return rec


def bench_analyzer(events: int, reps: int) -> Dict:
    """Events/second of the offline analyzer's one-pass fold."""
    from repro.obs.analyze import analyze

    rec = _synthetic_trace(events)
    n = len(rec)
    best = _best_of(reps, lambda: analyze(rec))
    return {
        "events": n,
        "best_s": round(best, 4),
        "events_per_sec": round(n / best),
    }


def bench_streaming_recorder(scale: float, reps: int) -> Dict:
    """Recording overhead: null vs buffering vs streaming-with-spill.

    One pinned flush/FASE-heavy run (``queue`` under SC, two threads —
    the shape ``benchmarks/test_obs_overhead.py`` bounds) executed three
    ways.  A fresh recorder per rep keeps the ring/buffer cold, and the
    streaming spill goes to a real temporary file so the row prices the
    whole live pipeline, I/O included.
    """
    import tempfile

    from repro.obs.live import StreamingRecorder
    from repro.obs.trace import NULL_RECORDER, TraceRecorder

    workload = get_workload(STREAM_WORKLOAD, scale=scale)
    config = HarnessConfig(scale=scale, seed=BENCH_SEED).machine_config()
    seen = {"machine_events": 0, "trace_events": 0}

    def run(recorder) -> None:
        result = Machine(config, recorder=recorder).run(
            workload,
            technique_factory(STREAM_TECHNIQUE),
            num_threads=STREAM_THREADS,
            seed=BENCH_SEED,
        )
        seen["machine_events"] = result.instructions + result.persistent_stores
        if recorder is not NULL_RECORDER:
            seen["trace_events"] = len(recorder)

    def run_streaming(spill: str) -> None:
        with StreamingRecorder(spill) as rec:
            run(rec)

    null_s = _best_of(reps, lambda: run(NULL_RECORDER))
    traced_s = _best_of(reps, lambda: run(TraceRecorder()))
    with tempfile.TemporaryDirectory(prefix="bench-stream-") as tmp:
        spill = os.path.join(tmp, "spill.jsonl")
        streaming_s = _best_of(reps, lambda: run_streaming(spill))
    return {
        "workload": STREAM_WORKLOAD,
        "technique": STREAM_TECHNIQUE,
        "threads": STREAM_THREADS,
        "machine_events": seen["machine_events"],
        "trace_events": seen["trace_events"],
        "null_s": round(null_s, 4),
        "traced_s": round(traced_s, 4),
        "streaming_s": round(streaming_s, 4),
        "null_eps": round(seen["machine_events"] / null_s),
        "traced_eps": round(seen["machine_events"] / traced_s),
        "streaming_eps": round(seen["machine_events"] / streaming_s),
        "traced_overhead": round(traced_s / null_s, 3),
        "streaming_overhead": round(streaming_s / null_s, 3),
    }


def bench_policy_zoo(scale: float, reps: int) -> List[Dict]:
    """Simulation cost of each composed policy spec vs bare SC.

    Same pinned workload/seed for every row; ``overhead_vs_sc`` is this
    spec's best CPU time over plain SC's, so the wrapper's per-store
    price (and any flush-traffic change it induces) is one committed
    number per stage.  The stage flush counters ride along so a
    trajectory point also shows *why* a row moved.
    """
    workload = BatchCachingWorkload(get_workload(POLICY_ZOO_WORKLOAD, scale=scale))
    config = HarnessConfig(scale=scale, seed=BENCH_SEED).machine_config()
    workload.batch_streams(1, BENCH_SEED)

    rows = []
    sc_s = None
    for spec in POLICY_ZOO_BENCH_SPECS:
        seen = {}

        def run() -> None:
            seen["result"] = Machine(config).run(
                workload,
                technique_factory(spec),
                num_threads=1,
                seed=BENCH_SEED,
            )

        best = _best_of(reps, run)
        if sc_s is None:
            sc_s = best
        result = seen["result"]
        events = result.instructions + result.persistent_stores
        rows.append(
            {
                "spec": spec,
                "events": events,
                "best_s": round(best, 4),
                "eps": round(events / best),
                "overhead_vs_sc": round(best / sc_s, 3),
                "flush_ratio": round(result.flush_ratio, 5),
                "clean_flushes": sum(t.clean_flushes for t in result.threads),
                "bypass_flushes": sum(t.bypass_flushes for t in result.threads),
                "victim_flushes": sum(t.victim_flushes for t in result.threads),
            }
        )
    return rows


def bench_harness(scale: float, jobs: int) -> Dict:
    """Figure-4-subset wall clock: sequential, ``jobs=N``, warm cache.

    The sequential and parallel sweeps use fresh harnesses with no disk
    cache, so they measure simulation fan-out (which needs real cores to
    win); the cached replay measures what a repeat invocation pays once
    the on-disk result cache is warm.
    """
    import shutil
    import tempfile

    cells = [
        (name, technique, 1)
        for name in HARNESS_WORKLOADS
        for technique in HARNESS_TECHNIQUES
    ]
    config = HarnessConfig(scale=scale, seed=BENCH_SEED)

    start = time.perf_counter()
    sequential = Harness(config).run_grid(cells, jobs=1)
    sequential_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = Harness(config).run_grid(cells, jobs=jobs)
    parallel_s = time.perf_counter() - start

    cache_dir = tempfile.mkdtemp(prefix="bench-cache-")
    try:
        Harness(config, cache_dir=cache_dir).run_grid(cells, jobs=1)
        start = time.perf_counter()
        cached = Harness(config, cache_dir=cache_dir).run_grid(cells, jobs=1)
        cached_s = time.perf_counter() - start
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    mismatched = [
        cell for cell in cells
        if not (
            sequential[cell].to_dict()
            == parallel[cell].to_dict()
            == cached[cell].to_dict()
        )
    ]
    available = cpus_available()
    return {
        "cells": len(cells),
        "jobs": jobs,
        "cpus": os.cpu_count(),
        "cpus_available": available,
        # Fewer schedulable cores than workers: the speedup number is a
        # host artifact, not a code property — comparators must note it,
        # not gate on it.
        "advisory": available < jobs,
        "sequential_s": round(sequential_s, 2),
        "parallel_s": round(parallel_s, 2),
        "parallel_speedup": round(sequential_s / parallel_s, 2),
        "cached_s": round(cached_s, 4),
        "cached_speedup": round(sequential_s / cached_s, 1),
        "results_identical": not mismatched,
    }


#: Fleet-telemetry bench: the same parallel grid with and without the
#: bus attached.  SC rows pull profiling summaries, so the telemetry run
#: also prices claim labels, release tracking and the span export.
FLEET_SCALE = 0.3
FLEET_WORKLOADS = ("barnes", "water-spatial")
FLEET_TECHNIQUES = ("ER", "SC")


def bench_fleet_overhead(scale: float, jobs: int, reps: int) -> Dict:
    """Wall-clock price of the fleet telemetry bus on a parallel grid.

    One pinned grid executed ``reps`` times bare and ``reps`` times with
    the full telemetry pipeline attached — bus events, the per-worker
    resource sampler, the JSONL spill and the span export — best wall
    clock each way.  ``fleet_overhead`` is the ratio the acceptance
    criteria pin (<= 1.10x); like the harness speedup it is ``advisory``
    when the host cannot actually run the workers, since ``jobs`` pools
    squeezed onto fewer cores contend on the one CPU the parent needs
    for pumping.
    """
    import tempfile

    from repro.obs.fleet import DEFAULT_SAMPLE_INTERVAL, FleetTelemetry

    cells = [
        (name, technique, 1)
        for name in FLEET_WORKLOADS
        for technique in FLEET_TECHNIQUES
    ]
    config = HarnessConfig(scale=scale, seed=BENCH_SEED)

    plain_s = float("inf")
    plain_results = None
    for _ in range(reps):
        start = time.perf_counter()
        plain_results = Harness(config).run_grid(cells, jobs=jobs)
        plain_s = min(plain_s, time.perf_counter() - start)

    fleet_s = float("inf")
    fleet_results = None
    fleet_events = 0
    with tempfile.TemporaryDirectory(prefix="bench-fleet-") as tmp:
        for rep in range(reps):
            telemetry = FleetTelemetry(
                spill_path=os.path.join(tmp, f"fleet-{rep}.jsonl"),
                sample_interval=DEFAULT_SAMPLE_INTERVAL,
                span_path=os.path.join(tmp, f"spans-{rep}.json"),
            )
            start = time.perf_counter()
            with telemetry:
                fleet_results = Harness(config).run_grid(
                    cells, jobs=jobs, telemetry=telemetry
                )
            fleet_s = min(fleet_s, time.perf_counter() - start)
            fleet_events = telemetry.aggregator.events

    available = cpus_available()
    return {
        "cells": len(cells),
        "jobs": jobs,
        "cpus_available": available,
        "advisory": available < jobs,
        "fleet_events": fleet_events,
        "plain_s": round(plain_s, 2),
        "fleet_s": round(fleet_s, 2),
        "fleet_overhead": round(fleet_s / plain_s, 3),
        "results_identical": all(
            plain_results[cell].to_dict() == fleet_results[cell].to_dict()
            for cell in cells
        ),
    }


#: Ledger bench: one pinned run timed with provenance recording off and
#: on.  ER on ``queue`` — cheap enough that the fixed per-run append
#: cost would show if it ever grew, which is the point.
LEDGER_SCALE = 0.1
LEDGER_WORKLOAD = "queue"
LEDGER_TECHNIQUE = "ER"
LEDGER_APPENDS = 200


def bench_ledger(scale: float, reps: int) -> Dict:
    """Per-run price of the provenance ledger, plus raw append throughput.

    The same pinned ``api.run`` is timed with ``REPRO_LEDGER=off`` and
    with recording into a throwaway ledger; ``ledger_overhead`` is the
    ratio ``bench_compare`` gates (< 1.05x — provenance must stay in the
    noise).  ``appends_per_sec`` prices the append path alone
    (record build + O_APPEND write + index rewrite), informational.
    """
    import tempfile

    from repro import api
    from repro.obs.ledger import LEDGER_ENV, RunLedger, RunRecord

    spec = api.RunSpec(
        workload=LEDGER_WORKLOAD,
        technique=LEDGER_TECHNIQUE,
        scale=scale,
        seed=BENCH_SEED,
    )
    saved = os.environ.get(LEDGER_ENV)
    with tempfile.TemporaryDirectory(prefix="bench-ledger-") as tmp:
        try:
            os.environ[LEDGER_ENV] = "off"
            off_s = _best_of(reps, lambda: api.run(spec))
            os.environ[LEDGER_ENV] = os.path.join(tmp, "runs")
            on_s = _best_of(reps, lambda: api.run(spec))
        finally:
            if saved is None:
                os.environ.pop(LEDGER_ENV, None)
            else:
                os.environ[LEDGER_ENV] = saved
        ledger = RunLedger(os.path.join(tmp, "appends"))
        start = time.process_time()
        for i in range(LEDGER_APPENDS):
            ledger.append(
                RunRecord(kind="bench-append", spec={"i": i}, counters={})
            )
        append_s = time.process_time() - start
    return {
        "workload": LEDGER_WORKLOAD,
        "technique": LEDGER_TECHNIQUE,
        "off_s": round(off_s, 4),
        "on_s": round(on_s, 4),
        "ledger_overhead": round(on_s / off_s, 3),
        "appends": LEDGER_APPENDS,
        "append_s": round(append_s, 4),
        "appends_per_sec": round(LEDGER_APPENDS / append_s),
    }


# ---------------------------------------------------------------------------


def run_suite(
    quick: bool = False, reps: Optional[int] = None, jobs: int = 4
) -> Dict:
    """Run every bench; return the BENCH document."""
    reps = reps or (2 if quick else 5)
    sim_scale = 0.08 if quick else SIM_SCALE
    harness_scale = 0.05 if quick else HARNESS_SCALE
    reuse_n = 100_000 if quick else REUSE_N
    reuse_intervals = 50_000 if quick else REUSE_INTERVALS
    analyzer_events = 20_000 if quick else ANALYZER_EVENTS
    stream_scale = 0.05 if quick else STREAM_SCALE
    zoo_scale = 0.05 if quick else POLICY_ZOO_SCALE
    fleet_scale = 0.05 if quick else FLEET_SCALE
    ledger_scale = 0.05 if quick else LEDGER_SCALE
    return {
        "suite_version": SUITE_VERSION,
        "schema_version": BENCH_SCHEMA_VERSION,
        "date": time.strftime("%Y-%m-%d"),
        "quick": quick,
        "reps": reps,
        # Host metadata: a trajectory point is only comparable against
        # another from a similar host, so record what the host was.
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "cpus_available": cpus_available(),
        "simulator": (sim := bench_simulator(sim_scale, reps)),
        "simulator_speedup_geomean": round(
            float(np.exp(np.mean([np.log(r["speedup"]) for r in sim]))), 2
        ),
        "reuse_counts": bench_reuse_counts(reuse_n, reuse_intervals, reps),
        "analyzer": bench_analyzer(analyzer_events, reps),
        "streaming_recorder": bench_streaming_recorder(stream_scale, reps),
        "policy_zoo": bench_policy_zoo(zoo_scale, reps),
        "harness": bench_harness(harness_scale, jobs),
        "fleet_overhead": bench_fleet_overhead(fleet_scale, jobs, reps),
        "ledger": bench_ledger(ledger_scale, reps),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Time the pinned perf suite and write BENCH_<date>.json.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small scales, 2 reps: a CI smoke run, not a trajectory point",
    )
    parser.add_argument(
        "--reps", type=int, default=None, help="repetitions per measurement"
    )
    parser.add_argument(
        "--jobs", type=int, default=4, help="workers for the harness bench"
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="output path (default BENCH_<date>.json; '-' for stdout only)",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="overwrite an existing --out file instead of refusing",
    )
    args = parser.parse_args(argv)

    doc = run_suite(quick=args.quick, reps=args.reps, jobs=args.jobs)
    body = json.dumps(doc, indent=2, sort_keys=True)
    print(body)
    out = args.out
    if out != "-":
        if out is None:
            # Committed baselines are a trajectory — never silently
            # clobber a same-day point (it has happened): suffix -2, -3…
            out = f"BENCH_{doc['date']}.json"
            serial = 1
            while os.path.exists(out):
                serial += 1
                out = f"BENCH_{doc['date']}-{serial}.json"
            if serial > 1:
                print(
                    f"note: BENCH_{doc['date']}.json exists; "
                    f"writing {out} instead",
                    file=sys.stderr,
                )
        elif os.path.exists(out) and not args.force:
            print(
                f"error: {out} exists; pass --force to overwrite "
                f"an existing baseline",
                file=sys.stderr,
            )
            return 2
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(body + "\n")
        print(f"wrote {out}", file=sys.stderr)

    # The suite is a run like any other: one ledger record per
    # invocation, carrying the whole document, so `history` can fit
    # trends over bench sections and `bench_compare --ledger` can gate
    # against them.
    from repro.obs.history import bench_counters, bench_spec
    from repro.obs.ledger import record_run

    record_run(
        "bench",
        bench_spec(doc),
        bench_counters(doc),
        extra={"bench": doc},
        artifacts={"bench": out} if out != "-" else None,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
