#!/usr/bin/env python3
"""The repository benchmark: what users of this reproduction wait for.

Run from the repository root::

    python3 perfbench/run.py --workload table2-mdb --seed 1 --seconds 30 --trace 0

Three workloads, each a closed loop with one client in one process
(``jobs=1``, no on-disk result cache, the run ledger in a temp dir):

- ``table2-mdb``  regenerates Table II (mdb, 8 threads, five techniques);
- ``splash-grid`` runs the seven SPLASH2 programs x the same five
  techniques at 1 thread and renders Table I from them;
- ``crash-hash``  runs sampled fault-injection campaigns on hash under SC
  with all three fault models.

One *round* is one whole artifact regeneration (or one campaign) on a
fresh ``Harness``; rounds repeat until ``--seconds`` have passed.  Every
round of a run uses the same seed, so every round must reproduce the
same simulated counters.  Modelled caches (L1, software write cache)
start empty in every cell: no cell is warmed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` pairs each
round with a cProfiled repeat of the same inputs and prints the
per-layer metrics (see ``fold.py`` and ``README.md``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import math
import os
import pstats
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

if HERE not in sys.path:
    sys.path.insert(0, HERE)

from fold import LAYERS, call_count, cumulative, fold_self_times  # noqa: E402

#: The default seed, and the seed held back for checking a claim made
#: while tuning on the default one.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7

TECHNIQUES = ("ER", "AT", "SC", "SC-offline", "BEST")
SPLASH2 = (
    "barnes",
    "fmm",
    "ocean",
    "raytrace",
    "volrend",
    "water-nsquared",
    "water-spatial",
)

#: The eight flush categories whose sum must equal a thread's flushes.
FLUSH_CATEGORIES = (
    "eviction_flushes",
    "fase_end_flushes",
    "eager_flushes",
    "log_flushes",
    "final_flushes",
    "clean_flushes",
    "bypass_flushes",
    "victim_flushes",
)

#: Fresh interpreters timed from start to "ready"; ``setup_s`` is their median.
SETUP_PROBES = 9
#: How far the folded layer self-times may stray from the traced wall time.
FOLD_TOLERANCE = 0.10
#: Units of the numbers printed in the detail (not gated).
DETAIL_UNITS = {
    "sim_stores_per_s": "1/s",
    "crashes_per_s": "1/s",
    "crash_s.p50": "s",
    "crash_s.p95": "s",
    "crash_s.samples": "count",
    "crash_s.beyond_p95": "count",
    "sim_speedup_sc": "x",
    "sim_flush_ratio_sc": "ratio",
    "fold_total_s": "s",
    "traced_wall_s": "s",
    "fold_coverage": "fraction",
    "fold_tolerance": "fraction",
    "traced_rounds": "count",
    "rounds": "count",
    "ops": "count",
    "ops_failed": "count",
    "wall_s": "s",
    "work_per_s": "1/s",
    "calibration_s": "s",
    "calibration_samples": "count",
}
#: Iterations of the reference kernel (8-12 ms on the tuning host).
REF_N = 20_000
#: The reference kernel's fastest time on the host the benchmark was
#: tuned on (2 shared vCPUs, Python 3.11).  Normalised seconds are
#: seconds on a host that runs the kernel in exactly this.
REF_KERNEL_S = 0.0075
#: One reference sample is due per this many seconds of work.
REF_PERIOD = 0.08
#: Most samples taken at one step point, to catch up after a long cell.
REF_BURST = 4


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridWorkload:
    """Programs x TECHNIQUES at one thread count, then one artifact."""

    name: str
    programs: Tuple[str, ...]
    threads: int
    scale: float
    artifact: str               # generator name in repro.experiments.tables
    labels: Tuple[str, ...]     # one artifact row per label, in its text
    paper_speedup: Optional[float] = None  # published SC speedup, if any


@dataclass(frozen=True)
class CampaignWorkload:
    """Sampled crash campaigns on one program under one technique.

    A round runs ``campaigns`` campaigns, each on its own seed drawn
    from the run's seed (:func:`campaign_seeds`): the seed picks the
    program's keys and the sampled sites, and one seed's replays can
    cost a tenth more or less than another's.
    """

    name: str
    program: str
    technique: str
    scale: float
    max_sites: int
    campaigns: int
    min_latencies: int          # p95 needs >= 10 samples beyond it


WORKLOADS = {
    "table2-mdb": GridWorkload(
        name="table2-mdb",
        programs=("mdb",),
        threads=8,
        scale=0.03,
        artifact="table2",
        labels=TECHNIQUES,
        paper_speedup=5.07,
    ),
    "splash-grid": GridWorkload(
        name="splash-grid",
        programs=SPLASH2,
        threads=1,
        scale=0.1,
        artifact="table1",
        labels=SPLASH2 + ("average",),
    ),
    "crash-hash": CampaignWorkload(
        name="crash-hash",
        program="hash",
        technique="SC",
        scale=0.05,
        max_sites=16,
        campaigns=4,
        min_latencies=200,
    ),
}


def campaign_seeds(seed: int, count: int) -> List[int]:
    """``seed`` itself, then ``count - 1`` seeds drawn from it."""
    rng = random.Random(seed)
    return [seed] + [rng.randrange(1 << 31) for _ in range(count - 1)]


def prepare_environment() -> str:
    """Point temp files and the run ledger inside the checkout.

    Returns the temp dir, which the caller removes.  Must run before
    ``repro`` is imported (the ledger reads its location from the
    environment).
    """
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise FileNotFoundError(f"program source not found under {SRC}")
    base = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(base, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=base)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    os.environ["REPRO_LEDGER"] = os.path.join(tmp, "ledger")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return tmp


def setup(wl) -> None:
    """Import everything a round needs (the set-up ``setup_s`` times)."""
    if isinstance(wl, GridWorkload):
        import repro.experiments.harness  # noqa: F401
        import repro.experiments.tables  # noqa: F401
    else:
        import repro.faults  # noqa: F401
        import repro.nvram.failure  # noqa: F401
        from repro.workloads.registry import get_workload

        get_workload(wl.program, scale=wl.scale)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def cell_failures(result, best) -> int:
    """1 if a cell breaks an accounting identity, else 0.

    Per thread, ``flushes`` must equal the sum of the eight flush
    categories; the cell must not have crashed and must have simulated
    exactly the persistent stores of the BEST cell of the same program
    and thread count (the program must not depend on the technique).
    """
    if result.crashed or result.persistent_stores <= 0:
        return 1
    for t in result.threads:
        if t.flushes != sum(getattr(t, c) for c in FLUSH_CATEGORIES):
            return 1
    return int(result.persistent_stores != best.persistent_stores)


def render_failures(artifact, labels: Sequence[str]) -> int:
    """1 unless the artifact renders one row per label, as the CLI prints it."""
    text = f"{artifact.title}\n\n{artifact.text}"
    ok = len(artifact.rows) == len(labels) and all(label in text for label in labels)
    return int(not ok)


def digest_of(payload: object) -> str:
    """sha256 of a canonical JSON form of simulated counters."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class _Counter:
    __slots__ = ("hits", "table")

    def __init__(self) -> None:
        self.hits = 0
        self.table: Dict[int, int] = {}

    def hit(self, key: int) -> int:
        self.hits += 1
        self.table[key] = self.table.get(key, 0) + 1
        return self.hits


def reference_kernel(n: int = REF_N) -> int:
    """A fixed pure-Python loop: method calls, dict and list traffic.

    It stands for the interpreter work the simulator does, and none of
    the program's code runs in it, so a change to the program leaves
    its time alone.  The collector is off while it runs, so garbage the
    program left behind is not collected on the kernel's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        counter, window, acc = _Counter(), [], 0
        for i in range(n):
            acc = (acc * 31 + i) & 0xFFFF
            counter.hit(acc & 511)
            window.append(acc)
            if len(window) > 64:
                window.pop(0)
        return acc + len(counter.table)
    finally:
        if enabled:
            gc.enable()


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


class HostClock:
    """Tracks the host's speed, and moves the process between CPUs.

    The host is shared: a vCPU runs up to 1.7x slower while a neighbour
    keeps its SMT sibling busy, in phases of tens of milliseconds to
    minutes.  Raw round times follow those phases, so 30-second medians
    differ by a fifth from run to run.  At step points (between cells,
    between crashes) the clock times :func:`reference_kernel` once per
    ``REF_PERIOD`` seconds since its last sample, up to ``REF_BURST``
    times at once.  A round's normalised time is its wall
    time divided by the mean kernel time sampled during it, times
    ``REF_KERNEL_S``: host slowdowns hit both and cancel.

    It also steps through the allowed CPUs every ``period`` seconds, so
    that no run is left on one slow vCPU and every round gets the same
    mix of them.
    """

    def __init__(self, period: float = 0.25) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.period = period
        self.turn = 0
        self.moved = time.perf_counter()
        self.sampled = 0.0
        self.sampling = True
        self.samples: List[float] = []
        self.spent = 0.0            # seconds spent in reference samples

    def sample(self) -> None:
        dt = time_reference()
        self.samples.append(dt)
        self.spent += dt
        self.sampled = time.perf_counter()

    def step(self) -> None:
        now = time.perf_counter()
        if len(self.cpus) > 1 and now - self.moved >= self.period:
            self.pin(self.turn + 1)
            self.moved = now
        if self.sampling:
            due = int((now - self.sampled) / REF_PERIOD)
            for _ in range(min(due, REF_BURST)):
                self.sample()

    def pin(self, turn: int) -> None:
        self.turn = turn % len(self.cpus)
        os.sched_setaffinity(0, {self.cpus[self.turn]})

    def begin(self) -> Tuple[int, float]:
        """Sample once and mark the start of a timed stretch."""
        if self.sampling:
            self.sample()
        return len(self.samples) - 1, self.spent

    def end(self, mark: Tuple[int, float], elapsed: float) -> Tuple[float, float]:
        """(elapsed less the sampling inside it, mean reference sample).

        Samples once more, so the mean covers both ends of the stretch.
        The mean is 0.0 when sampling is off.
        """
        first, spent = mark
        inner = elapsed - (self.spent - spent)
        if not self.sampling:
            return inner, 0.0
        self.sample()
        return inner, statistics.mean(self.samples[first:])

    def restore(self) -> None:
        os.sched_setaffinity(0, set(self.cpus))


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------


@dataclass
class Round:
    """One artifact regeneration or one campaign, with its judgement."""

    wall_s: float              # host seconds, reference samples left out
    ref_s: float               # mean reference-kernel time during the round
    ops: int
    failed: int
    digest: str
    work: int                  # simulated stores (grids) or crashes judged
    cell_s: Dict[str, float] = field(default_factory=dict)
    results: Dict[Tuple[str, str], object] = field(default_factory=dict)
    summaries: Dict[str, object] = field(default_factory=dict)
    latencies: List[float] = field(default_factory=list)
    violated: int = 0

    @property
    def norm_s(self) -> float:
        """The round's time on a host that runs the kernel in REF_KERNEL_S."""
        return self.wall_s / self.ref_s * REF_KERNEL_S


def grid_round(wl: GridWorkload, seed: int, clock: HostClock) -> Round:
    """Profile, run every cell, render the artifact; then judge it."""
    from repro.experiments import tables
    from repro.experiments.harness import Harness, HarnessConfig

    harness = Harness(HarnessConfig(scale=wl.scale, seed=seed))
    results: Dict[Tuple[str, str], object] = {}
    summaries = {}
    cell_s = dict.fromkeys(TECHNIQUES, 0.0)
    mark = clock.begin()
    start = time.perf_counter()
    for program in wl.programs:
        clock.step()
        summaries[program] = harness.profile_summary(program)
        for tech in TECHNIQUES:
            clock.step()
            t0 = time.perf_counter()
            results[program, tech] = harness.run(program, tech, wl.threads)
            cell_s[tech] += time.perf_counter() - t0
    artifact = getattr(tables, wl.artifact)(harness)
    wall, ref = clock.end(mark, time.perf_counter() - start)

    failed = sum(
        cell_failures(r, results[program, "BEST"])
        for (program, _tech), r in results.items()
    )
    failed += render_failures(artifact, wl.labels)
    digest = digest_of(
        {
            "summaries": {p: asdict(s) for p, s in summaries.items()},
            "cells": {f"{p}/{t}": r.to_dict() for (p, t), r in results.items()},
        }
    )
    return Round(
        wall_s=wall,
        ref_s=ref,
        ops=len(results) + 1,
        failed=failed,
        digest=digest,
        work=sum(r.persistent_stores for r in results.values()),
        cell_s=cell_s,
        results=results,
        summaries=summaries,
    )


def campaign_round(wl: CampaignWorkload, seed: int, clock: HostClock) -> Round:
    """Sampled campaigns; every crash's oracle verdict must be clean."""
    from repro.faults import FaultCampaignSpec, run_campaign
    from repro.nvram.failure import FAULT_MODELS

    # The first crash of a campaign's interval also holds the golden
    # replay and the site enumeration, so it is not a crash latency.  A
    # crash's interval starts after the previous crash's step point.
    latencies: List[float] = []
    last: List[Optional[float]] = [None]
    crashes = [0]
    violated = [0]

    def progress(done, total, info):
        now = time.perf_counter()
        if last[0] is not None:
            latencies.append(now - last[0])
        crashes[0] += 1
        violated[0] += bool(info["violated"])
        clock.step()
        last[0] = time.perf_counter()

    matrices, inconsistent = [], 0
    mark = clock.begin()
    start = time.perf_counter()
    for campaign_seed in campaign_seeds(seed, wl.campaigns):
        spec = FaultCampaignSpec(
            fault_models=FAULT_MODELS,
            max_sites=wl.max_sites,
            sample_seed=campaign_seed,
        )
        last[0], crashes[0] = None, 0
        matrix = run_campaign(
            wl.program,
            technique=wl.technique,
            scale=wl.scale,
            seed=campaign_seed,
            spec=spec,
            progress=progress,
        )
        rendered = matrix.to_markdown()
        inconsistent += not (
            matrix.ok
            and "zero violations" in rendered
            and crashes[0] == matrix.injected > 0
        )
        matrices.append(matrix)
    wall, ref = clock.end(mark, time.perf_counter() - start)

    injected = sum(m.injected for m in matrices)
    return Round(
        wall_s=wall,
        ref_s=ref,
        ops=injected + len(matrices),
        failed=violated[0] + inconsistent,
        digest=digest_of([m.to_dict() for m in matrices]),
        work=injected,
        latencies=latencies,
        violated=violated[0],
    )


def run_round(wl, seed: int, clock: HostClock) -> Round:
    if isinstance(wl, GridWorkload):
        return grid_round(wl, seed, clock)
    return campaign_round(wl, seed, clock)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


@dataclass
class Measurement:
    rounds: List[Round]                 # untraced
    traced: List[Round]                 # cProfiled repeats (trace mode)
    outer_s: List[float]                # untraced rounds incl. judging,
                                        # less the reference samples
    traced_outer_s: List[float]         # traced rounds incl. judging
    stats: Optional[pstats.Stats]
    ref_samples: List[float]            # every reference-kernel time

    @property
    def all_rounds(self) -> List[Round]:
        return self.rounds + self.traced


def measure(wl, seed: int, seconds: float, trace: bool) -> Measurement:
    """Repeat rounds for about ``seconds`` (and until there are enough samples)."""
    rounds: List[Round] = []
    traced: List[Round] = []
    outer: List[float] = []
    traced_outer: List[float] = []
    profiler = cProfile.Profile() if trace else None
    clock = HostClock()
    deadline = time.perf_counter() + seconds
    try:
        while True:
            t0 = t_round = time.perf_counter()
            spent = clock.spent
            rounds.append(run_round(wl, seed, clock))
            outer.append(time.perf_counter() - t0 - (clock.spent - spent))
            if profiler is not None:
                # No reference samples inside the profile: the fold
                # would charge them to ``other``.
                clock.sampling = False
                t0 = time.perf_counter()
                profiler.enable()
                traced.append(run_round(wl, seed, clock))
                profiler.disable()
                traced_outer.append(time.perf_counter() - t0)
                clock.sampling = True
            samples = sum(len(r.latencies) for r in rounds)
            enough = trace or samples >= getattr(wl, "min_latencies", 0)
            # Stop at the round end nearest the deadline, so that a run
            # of long rounds does not overrun it by most of a round.
            now = time.perf_counter()
            if now + (now - t_round) / 2 >= deadline and enough:
                break
    finally:
        clock.restore()
    stats = pstats.Stats(profiler) if profiler is not None else None
    return Measurement(rounds, traced, outer, traced_outer, stats, clock.samples)


def nearest_rank(values: Sequence[float], q: float) -> Tuple[float, int]:
    """The nearest-rank ``q`` quantile and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def probe_setup_s(wl_name: str) -> float:
    """Seconds from launching a fresh interpreter until a round can start.

    The child inherits the environment :func:`prepare_environment` set.
    """
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--probe-setup", "--workload", wl_name,
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def sim_metrics(wl, rounds: List[Round], seed: int) -> Dict[str, object]:
    """Modelled SC speedup over ER and SC flush ratio, beside the paper's.

    Grids take them from their own cells; the campaign workload runs its
    program's ER and SC cells once, untimed, at the campaign's scale and
    seed.  Exact: they repeat bit for bit for one seed.
    """
    from repro.experiments.tables import PAPER_TABLE3

    if isinstance(wl, GridWorkload):
        programs, results = wl.programs, rounds[0].results
        paper_speedup = wl.paper_speedup
    else:
        from repro.experiments.harness import Harness, HarnessConfig

        harness = Harness(HarnessConfig(scale=wl.scale, seed=seed))
        programs = (wl.program,)
        results = {
            (wl.program, t): harness.run(wl.program, t) for t in ("ER", "SC")
        }
        paper_speedup = None
    sc = [results[p, "SC"] for p in programs]
    speedup = geomean([results[p, "ER"].time / results[p, "SC"].time for p in programs])
    stores = sum(r.persistent_stores for r in sc)
    flush_ratio = sum(r.flushes for r in sc) / stores
    # The published ratio applied to the same stores, program by program.
    paper_ratio = sum(
        PAPER_TABLE3[p]["sc"] * results[p, "SC"].persistent_stores for p in programs
    ) / stores

    def error(value: float, paper: Optional[float]) -> Optional[float]:
        return None if paper is None else (value - paper) / paper

    return {
        "sim_speedup_sc": speedup,
        "sim_flush_ratio_sc": flush_ratio,
        "reference": {
            "sim_speedup_sc": {
                "paper": paper_speedup,
                "rel_error": error(speedup, paper_speedup),
            },
            "sim_flush_ratio_sc": {
                "paper": paper_ratio,
                "rel_error": error(flush_ratio, paper_ratio),
            },
            "note": (
                "recorded, not gated; the model is otherwise unvalidated"
                + ("" if paper_speedup else "; the repo holds no published speedup here")
            ),
        },
    }


def end_to_end(wl, m: Measurement, seed: int, setup_s: float) -> Tuple[dict, dict]:
    """(metrics, detail) for an untraced run.

    Round times are normalised (see :class:`HostClock`); their raw
    host-time medians are in the detail.  Set-up is raw host time: a
    fresh interpreter's start-up is process and import work, which the
    reference kernel does not track.
    """
    rounds = m.rounds
    rate = statistics.median(r.work / r.norm_s for r in rounds)
    metrics = {
        "setup_s": (setup_s, "s"),
        "norm_wall_s": (statistics.median(r.norm_s for r in rounds), "s"),
        "norm_work_per_s": (rate, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = sim_metrics(wl, rounds, seed)
    detail.update(
        {
            "wall_s": statistics.median(r.wall_s for r in rounds),
            "work_per_s": statistics.median(r.work / r.wall_s for r in rounds),
        }
    )
    if isinstance(wl, GridWorkload):
        detail["sim_stores_per_s"] = rate
    else:
        latencies = [x for r in rounds for x in r.latencies]
        p50, _ = nearest_rank(latencies, 0.50)
        p95, beyond = nearest_rank(latencies, 0.95)
        detail.update(
            {
                "crashes_per_s": rate,
                "crash_s.p50": p50,
                "crash_s.p95": p95,
                "crash_s.samples": len(latencies),
                "crash_s.beyond_p95": beyond,
            }
        )
    return metrics, detail


def drain_streams(wl, seed: int) -> Tuple[float, int, set]:
    """Generate every input stream of one round once, untimed by rounds.

    Returns (seconds, events, batched configs).  Uses a fresh harness so
    the rounds' workloads keep their own cold batch caches.
    """
    from repro.experiments.harness import Harness, HarnessConfig

    if isinstance(wl, GridWorkload):
        configs = sorted(
            {(p, t, seed) for p in wl.programs for t in (1, wl.threads)}
        )
    else:
        configs = [(wl.program, 1, s) for s in campaign_seeds(seed, wl.campaigns)]
    harness = Harness(HarnessConfig(scale=wl.scale, seed=seed))
    events, batched, elapsed = 0, set(), 0.0
    for program, threads, stream_seed in configs:
        workload = harness.workload(program)
        t0 = time.perf_counter()
        # Crash replays track values, which batches do not carry.
        batches = (
            workload.batch_streams(threads, stream_seed)
            if isinstance(wl, GridWorkload)
            else None
        )
        if batches is not None:
            batched.add((program, threads))
            events += sum(len(b) for stream in batches for b in stream)
        else:
            events += sum(
                sum(1 for _ in stream)
                for stream in workload.streams(threads, stream_seed)
            )
        elapsed += time.perf_counter() - t0
    return elapsed, events, batched


def locality_spans(programs: Sequence[str], scale: float, seed: int) -> Tuple[float, float, int]:
    """Time the MRC and knee on each program's profile trace.

    Returns (mrc seconds, knee seconds, mismatches): the knee must equal
    the offline size the harness's profile summary selected.
    """
    from repro.experiments.harness import Harness, HarnessConfig
    from repro.locality.knee import select_cache_size
    from repro.locality.mrc import mrc_from_trace

    harness = Harness(HarnessConfig(scale=scale, seed=seed))
    mrc_s = knee_s = 0.0
    mismatches = 0
    for program in programs:
        summary = harness.profile_summary(program)
        trace = harness.trace(program)
        t0 = time.perf_counter()
        mrc = mrc_from_trace(trace)
        t1 = time.perf_counter()
        size = select_cache_size(mrc, harness.config.selection)
        t2 = time.perf_counter()
        mrc_s += t1 - t0
        knee_s += t2 - t1
        mismatches += int(size != summary.offline_size)
    return mrc_s, knee_s, mismatches


def per_layer(wl, m: Measurement, seed: int) -> Tuple[dict, dict, int]:
    """(metrics, detail, failed checks) for a traced run."""
    n = len(m.traced)
    selfs = fold_self_times(m.stats, SRC)
    fold_total = sum(selfs.values())
    traced_wall = sum(m.traced_outer_s)
    metrics: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (selfs[layer] / n, "s")
        metrics[f"{layer}.share"] = (selfs[layer] / fold_total, "fraction")

    programs = wl.programs if isinstance(wl, GridWorkload) else (wl.program,)
    gen_s, events, batched = drain_streams(wl, seed)
    builds = call_count(
        m.stats, SRC, "workloads", ("streams", "batch_streams"),
        exclude_suffix="repro/workloads/base.py",
    )
    metrics["workloads.gen_s"] = (gen_s, "s")
    metrics["workloads.events"] = (events, "count")
    metrics["workloads.stream_builds"] = (builds / n / len(programs), "count")

    first = m.rounds[0]
    for tech in TECHNIQUES:
        cells = [r for (_p, t), r in first.results.items() if t == tech]
        stores = sum(r.persistent_stores for r in cells)
        metrics[f"cache.cell_s.{tech}"] = (
            statistics.median(r.cell_s.get(tech, 0.0) for r in m.rounds), "s"
        )
        metrics[f"cache.flush_ratio.{tech}"] = (
            sum(r.flushes for r in cells) / stores if stores else 0.0, "ratio"
        )
    cells = list(first.results.values())
    accesses = sum(r.l1_accesses for r in cells)
    threads = wl.threads if isinstance(wl, GridWorkload) else 1
    metrics["nvram.machine.batched_cells"] = (
        sum(1 for (p, _t) in first.results if (p, threads) in batched), "count"
    )
    metrics["nvram.hwcache.l1_miss_ratio"] = (
        sum(r.l1_misses for r in cells) / accesses if accesses else 0.0, "ratio"
    )
    metrics["nvram.flushqueue.flushes"] = (sum(r.flushes for r in cells), "count")
    metrics["nvram.flushqueue.stall_cycles"] = (
        sum(r.stall_cycles for r in cells), "cycles"
    )

    mrc_s, knee_s, mismatches = locality_spans(programs, wl.scale, seed)
    sc_sizes = [
        sizes[-1]
        for (_p, t), r in first.results.items() if t == "SC"
        for sizes in r.selected_sizes.values() if sizes
    ]
    offline = [s.offline_size for s in first.summaries.values()]
    metrics["locality.mrc_s"] = (mrc_s, "s")
    metrics["locality.knee_s"] = (knee_s, "s")
    metrics["locality.selected_size"] = (
        statistics.mean(sc_sizes) if sc_sizes else 0.0, "lines"
    )
    metrics["locality.offline_size"] = (
        statistics.mean(offline) if offline else 0.0, "lines"
    )

    metrics["faults.golden_s"] = (
        cumulative(m.stats, "repro/faults/driver.py", "golden") / n, "s"
    )
    metrics["faults.replay_s"] = (
        cumulative(m.stats, "repro/faults/driver.py", "crash_at") / n, "s"
    )
    metrics["faults.oracle_s"] = (
        cumulative(m.stats, "repro/faults/oracle.py", "check_crash") / n, "s"
    )
    metrics["faults.injected"] = (
        first.work if isinstance(wl, CampaignWorkload) else 0, "count"
    )
    metrics["faults.violations"] = (
        sum(r.violated for r in m.all_rounds), "count"
    )
    metrics["obs.trace_overhead"] = (traced_wall / sum(m.outer_s), "x")

    coverage = fold_total / traced_wall
    detail = {
        "fold_total_s": fold_total,
        "traced_wall_s": traced_wall,
        "fold_coverage": coverage,
        "fold_tolerance": FOLD_TOLERANCE,
        "traced_rounds": n,
    }
    failed = mismatches + int(abs(coverage - 1.0) > FOLD_TOLERANCE)
    return metrics, detail, failed


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run(wl, seed: int, seconds: float, trace: bool, probes: int = SETUP_PROBES) -> dict:
    """Measure one workload; return the result object (last output line)."""
    if not trace:
        setup_s = statistics.median(
            probe_setup_s(wl.name) for _ in range(probes)
        )
    setup(wl)
    m = measure(wl, seed, seconds, trace)
    digests = {r.digest for r in m.all_rounds}
    attempted = sum(r.ops for r in m.all_rounds)
    # Every round replays the same inputs: a digest that disagrees with
    # the first round's is a non-deterministic (failed) round.
    failed = sum(r.failed for r in m.all_rounds) + sum(
        r.digest != m.rounds[0].digest for r in m.all_rounds
    )
    if trace:
        metrics, detail, layer_failed = per_layer(wl, m, seed)
        failed += layer_failed
    else:
        metrics, detail = end_to_end(wl, m, seed, setup_s)
    detail.update(
        {
            "workload": wl.name,
            "seed": seed,
            "held_out_seed": HELD_OUT_SEED,
            "scale": wl.scale,
            "rounds": len(m.rounds),
            "ops": attempted,
            "ops_failed": failed,
            "counter_sha256": m.rounds[0].digest,
            "digests_agree": len(digests) == 1,
            "calibration_s": statistics.median(m.ref_samples),
            "calibration_samples": len(m.ref_samples),
            "modelled_caches": "start empty in every cell (no warm-up)",
        }
    )
    if isinstance(wl, CampaignWorkload):
        detail["campaign_seeds"] = campaign_seeds(seed, wl.campaigns)
    return {
        "detail": detail,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        },
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.probe_setup:
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        setup(wl)
        print("ready", flush=True)
        return 0
    try:
        tmp = prepare_environment()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    try:
        out = run(wl, args.seed, max(1.0, args.seconds), bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for name, entry in out["result"]["metrics"].items():
        print(f"{name:36s} {entry['value']:>16.6g} {entry['unit']}")
    detail = dict(out["detail"])
    units = dict(DETAIL_UNITS)
    for name, ref in detail.pop("reference", {}).items():
        if isinstance(ref, dict):
            detail[f"{name}.paper"] = ref["paper"]
            detail[f"{name}.rel_error"] = ref["rel_error"]
            units[f"{name}.paper"] = units[name]
            units[f"{name}.rel_error"] = "fraction"
        else:
            detail[f"reference.{name}"] = ref
    for name, value in detail.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            print(f"{name:36s} {value:>16.6g} {units.get(name, '')}")
        else:
            print(f"{name:36s} {value}")
    print(json.dumps({"detail": out["detail"]}, sort_keys=True))
    print(json.dumps(out["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
