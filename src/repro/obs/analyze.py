"""Offline trace analytics: turn recorded events into typed profiles.

PR 2's recorder captures *what happened*; this module answers *why it
cost what it cost* (DESIGN.md §11).  :func:`analyze` folds a trace's
parallel event arrays once — no per-event objects — into a
:class:`TraceProfile` holding:

- **flush provenance** — every ``evict_flush``/``drain`` attributed to
  its cause (capacity eviction, resize eviction, FASE-boundary drain,
  end-of-program drain, stall-forced hardware write-back), aggregated
  per line, per FASE and per thread, with a write-amplification figure
  (evict flushes ÷ distinct flushed lines) and a top-K hottest-lines
  ranking;
- **FASE latency** — spans reconstructed from ``fase_begin``/``fase_end``
  pairs, with nearest-rank p50/p95/p99/max durations and the share of
  span cycles spent in the commit drain;
- **adaptive-controller diagnostics** — the
  ``burst_start``/``mrc_computed``/``knee_candidate``/``size_selected``
  narrative replayed per thread, emitting typed :class:`Diagnosis`
  records (knee oscillation, resize storms, selections matching no knee
  candidate, knee fallbacks, unbalanced FASEs).

:func:`reconcile` cross-checks a profile against the matching
:class:`~repro.nvram.stats.RunResult` — the provenance totals are exact
counters, not estimates, so any mismatch is a bug.  :func:`diff_profiles`
aligns two profiles and reports deltas under configurable tolerances,
with the same verdict/notes shape as ``tools/bench_compare.py``.

Everything here is a pure function of the trace, so profiles — and the
reports rendered from them — are byte-deterministic across repeated
runs of one configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.trace import (
    EV_BURST_START,
    EV_DRAIN,
    EV_EVICT_FLUSH,
    EV_FASE_BEGIN,
    EV_FASE_END,
    EV_KNEE_CANDIDATE,
    EV_MRC_COMPUTED,
    EV_SIZE_SELECTED,
    EV_STALL,
    TRACE_SCHEMA_VERSION,
    TraceRecorder,
)

#: Diagnosis severities, least to most severe.
SEVERITIES = ("info", "warning", "error")

_SEVERITY_RANK = {s: i for i, s in enumerate(SEVERITIES)}


@dataclass(frozen=True)
class AnalyzerConfig:
    """Thresholds for the controller diagnostics.

    The defaults are deliberate round numbers tuned to the seed
    workloads: each seed thread adapts at most once (its sampler
    hibernates), so none of them can trip an oscillation or storm —
    the acceptance baseline the thresholds are calibrated against.
    """

    #: Hottest-lines ranking length.
    top_k: int = 10
    #: A flip-flop is ``sizes[i] == sizes[i-2] != sizes[i-1]``; this many
    #: flips on one thread is a warning, :attr:`oscillation_error_flips`
    #: an error.
    oscillation_warning_flips: int = 2
    oscillation_error_flips: int = 4
    #: This many selections inside :attr:`storm_window_cycles` model
    #: cycles on one thread is a resize storm (warning).
    storm_count: int = 8
    storm_window_cycles: int = 1_000_000


@dataclass(frozen=True)
class Diagnosis:
    """One typed finding from the controller/FASE narrative replay."""

    code: str
    severity: str
    thread_id: int
    message: str
    data: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {
            "code": self.code,
            "severity": self.severity,
            "thread_id": self.thread_id,
            "message": self.message,
            "data": dict(sorted(self.data.items())),
        }


def max_severity(diagnoses: List[Diagnosis]) -> Optional[str]:
    """The most severe level present, or ``None`` for a clean bill."""
    if not diagnoses:
        return None
    return max((d.severity for d in diagnoses), key=_SEVERITY_RANK.__getitem__)


@dataclass
class FlushProvenance:
    """Where the flushes came from (exact counters, not estimates)."""

    capacity_evictions: int = 0
    resize_evictions: int = 0
    #: Policy-stage flushes (schema-3 cause codes; zero on base runs).
    clean_flushes: int = 0
    bypass_flushes: int = 0
    victim_flushes: int = 0
    dirty_evict_flushes: int = 0
    fase_drains: int = 0
    fase_drain_stall_cycles: int = 0
    fase_drain_outstanding: int = 0
    final_drains: int = 0
    final_drain_stall_cycles: int = 0
    final_drain_outstanding: int = 0
    issue_stall_cycles: int = 0
    writeback_stall_cycles: int = 0
    #: Per-line evict-flush counts and the top-K ranking derived from it.
    line_flushes: Dict[int, int] = field(default_factory=dict)
    top_lines: List[Tuple[int, int]] = field(default_factory=list)
    #: thread id -> {capacity, resize, fase_drains, drain_stall}.
    per_thread: Dict[int, Dict[str, int]] = field(default_factory=dict)
    #: FASE uid -> commit-drain stall cycles.
    fase_drain_stall_by_fase: Dict[int, int] = field(default_factory=dict)

    @property
    def evict_flushes(self) -> int:
        """All software-cache eviction flushes, whatever forced them."""
        return self.capacity_evictions + self.resize_evictions

    @property
    def attributed_flushes(self) -> int:
        """Every cause-attributed software-cache flush: evictions plus
        the policy-stage categories (clean / bypass / victim).  Equal to
        :attr:`evict_flushes` on base-technique traces."""
        return (
            self.evict_flushes
            + self.clean_flushes
            + self.bypass_flushes
            + self.victim_flushes
        )

    @property
    def distinct_lines(self) -> int:
        """How many distinct lines those attributed flushes touched."""
        return len(self.line_flushes)

    @property
    def write_amplification(self) -> float:
        """Attributed flushes per distinct flushed line (1.0 = no
        re-flush).  Identical to the historical eviction-only ratio on
        traces without policy stages."""
        n = self.distinct_lines
        return self.attributed_flushes / n if n else 0.0

    def to_dict(self) -> Dict:
        return {
            "capacity_evictions": self.capacity_evictions,
            "resize_evictions": self.resize_evictions,
            "evict_flushes": self.evict_flushes,
            "clean_flushes": self.clean_flushes,
            "bypass_flushes": self.bypass_flushes,
            "victim_flushes": self.victim_flushes,
            "dirty_evict_flushes": self.dirty_evict_flushes,
            "distinct_lines": self.distinct_lines,
            "write_amplification": round(self.write_amplification, 6),
            "fase_drains": self.fase_drains,
            "fase_drain_stall_cycles": self.fase_drain_stall_cycles,
            "fase_drain_outstanding": self.fase_drain_outstanding,
            "final_drains": self.final_drains,
            "final_drain_stall_cycles": self.final_drain_stall_cycles,
            "final_drain_outstanding": self.final_drain_outstanding,
            "issue_stall_cycles": self.issue_stall_cycles,
            "writeback_stall_cycles": self.writeback_stall_cycles,
            "top_lines": [list(t) for t in self.top_lines],
            "per_thread": {
                str(tid): dict(sorted(d.items()))
                for tid, d in sorted(self.per_thread.items())
            },
        }


@dataclass
class FaseLatencyProfile:
    """Reconstructed outermost-FASE spans and their latency shape."""

    count: int = 0
    p50: int = 0
    p95: int = 0
    p99: int = 0
    max: int = 0
    total_cycles: int = 0
    #: Commit-drain stall cycles attributed to a FASE via the drain's
    #: ``fase_id``.
    drain_stall_cycles: int = 0
    per_thread_count: Dict[int, int] = field(default_factory=dict)

    @property
    def stall_share(self) -> float:
        """Fraction of total span cycles spent in the commit drain."""
        return (
            self.drain_stall_cycles / self.total_cycles if self.total_cycles else 0.0
        )

    def to_dict(self) -> Dict:
        return {
            "count": self.count,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.max,
            "total_cycles": self.total_cycles,
            "drain_stall_cycles": self.drain_stall_cycles,
            "stall_share": round(self.stall_share, 6),
            "per_thread_count": {
                str(tid): n for tid, n in sorted(self.per_thread_count.items())
            },
        }


@dataclass
class AdaptationProfile:
    """The adaptive controller's replayed decision narrative."""

    bursts: int = 0
    analyses: int = 0
    knee_candidates: int = 0
    selections: int = 0
    #: Selections made without a preceding MRC on the thread — a thread
    #: adopting a group-published size (the shared-size extension).
    adoptions: int = 0
    fallbacks: int = 0
    analysis_cost_cycles: int = 0
    #: thread id -> [(cycle, size), ...] in selection order.
    trajectories: Dict[int, List[Tuple[int, int]]] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {
            "bursts": self.bursts,
            "analyses": self.analyses,
            "knee_candidates": self.knee_candidates,
            "selections": self.selections,
            "adoptions": self.adoptions,
            "fallbacks": self.fallbacks,
            "analysis_cost_cycles": self.analysis_cost_cycles,
            "trajectories": {
                str(tid): [list(p) for p in pts]
                for tid, pts in sorted(self.trajectories.items())
            },
        }


@dataclass
class TraceProfile:
    """Everything :func:`analyze` extracts from one trace."""

    schema: int
    events: int
    event_counts: Dict[str, int]
    threads: List[int]
    provenance: FlushProvenance
    fase: FaseLatencyProfile
    adaptation: AdaptationProfile
    diagnoses: List[Diagnosis]

    def to_dict(self) -> Dict:
        return {
            "schema": self.schema,
            "events": self.events,
            "event_counts": dict(sorted(self.event_counts.items())),
            "threads": list(self.threads),
            "provenance": self.provenance.to_dict(),
            "fase": self.fase.to_dict(),
            "adaptation": self.adaptation.to_dict(),
            "diagnoses": [d.to_dict() for d in self.diagnoses],
            "max_severity": max_severity(self.diagnoses),
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n"


# Nearest-rank percentile, shared with the fleet aggregator and the
# registry's series helpers (one implementation, one definition of p95).
from repro.obs.metrics import nearest_rank as _percentile  # noqa: E402


class _ThreadFold:
    """Per-thread accumulator state for the one-pass fold (internal)."""

    __slots__ = (
        "open_uid",
        "open_time",
        "cand",
        "expected_cands",
        "awaiting_selection",
        "sizes",
        "sel_times",
        "unmatched",
        "fallbacks",
        "adoptions",
        "unbalanced_ends",
    )

    def __init__(self) -> None:
        self.open_uid = -1
        self.open_time = -1
        self.cand: List[int] = []
        self.expected_cands = 0
        self.awaiting_selection = False
        self.sizes: List[int] = []
        self.sel_times: List[int] = []
        self.unmatched: List[Tuple[int, int]] = []
        self.fallbacks = 0
        self.adoptions = 0
        self.unbalanced_ends = 0


class ProfileFold:
    """Incremental accumulator behind :func:`analyze`.

    Feed the trace's parallel columns in any number of chunks (whole
    trace at once for the offline path, one cycle-window at a time for
    :class:`repro.obs.live.StreamingProfile`), then :meth:`finalize`.
    Because chunked feeding walks the exact same per-event fold as the
    one-shot path, a stream split at arbitrary boundaries finalizes to
    the identical profile — the equivalence the live layer's tests pin.

    The cumulative counters (``prov``, ``fase``, ``adapt``, ``counts``,
    ``events``) are readable mid-stream; :meth:`finalize` only adds the
    order-independent post-processing (percentiles, top-K ranking,
    diagnosis generation) and is idempotent.
    """

    __slots__ = (
        "cfg",
        "prov",
        "fase",
        "adapt",
        "counts",
        "events",
        "_durations",
        "_folds",
    )

    def __init__(self, config: Optional[AnalyzerConfig] = None) -> None:
        self.cfg = config or AnalyzerConfig()
        self.prov = FlushProvenance()
        self.fase = FaseLatencyProfile()
        self.adapt = AdaptationProfile()
        self.counts: Dict[str, int] = {}
        self.events = 0
        self._durations: List[int] = []
        self._folds: Dict[int, _ThreadFold] = {}

    def feed_columns(
        self,
        kinds: List[str],
        tids: List[int],
        times: List[int],
        a_col: List[int],
        b_col: List[int],
        c_col: List[int],
    ) -> None:
        """Fold one chunk of parallel event columns into the profile."""
        n = len(kinds)
        self.events += n
        prov = self.prov
        fase = self.fase
        adapt = self.adapt
        counts = self.counts
        durations = self._durations
        folds = self._folds
        line_flushes = prov.line_flushes
        per_thread = prov.per_thread

        def thread_fold(tid: int) -> _ThreadFold:
            f = folds.get(tid)
            if f is None:
                f = folds[tid] = _ThreadFold()
                per_thread[tid] = {
                    "capacity": 0,
                    "resize": 0,
                    "clean": 0,
                    "bypass": 0,
                    "victim": 0,
                    "fase_drains": 0,
                    "drain_stall": 0,
                }
            return f

        for i in range(n):
            kind = kinds[i]
            counts[kind] = counts.get(kind, 0) + 1
            tid = tids[i]
            f = thread_fold(tid)
            if kind == EV_EVICT_FLUSH:
                line = a_col[i]
                line_flushes[line] = line_flushes.get(line, 0) + 1
                if b_col[i]:
                    prov.dirty_evict_flushes += 1
                cause = c_col[i]
                if cause == 0:
                    prov.capacity_evictions += 1
                    per_thread[tid]["capacity"] += 1
                elif cause == 1:
                    prov.resize_evictions += 1
                    per_thread[tid]["resize"] += 1
                elif cause == 2:
                    prov.clean_flushes += 1
                    per_thread[tid]["clean"] += 1
                elif cause == 3:
                    prov.bypass_flushes += 1
                    per_thread[tid]["bypass"] += 1
                else:
                    prov.victim_flushes += 1
                    per_thread[tid]["victim"] += 1
            elif kind == EV_STALL:
                if b_col[i]:
                    prov.writeback_stall_cycles += a_col[i]
                else:
                    prov.issue_stall_cycles += a_col[i]
            elif kind == EV_DRAIN:
                stall = a_col[i]
                fase_id = c_col[i]
                if fase_id >= 0:
                    prov.fase_drains += 1
                    prov.fase_drain_stall_cycles += stall
                    prov.fase_drain_outstanding += b_col[i]
                    per_thread[tid]["fase_drains"] += 1
                    per_thread[tid]["drain_stall"] += stall
                    prov.fase_drain_stall_by_fase[fase_id] = (
                        prov.fase_drain_stall_by_fase.get(fase_id, 0) + stall
                    )
                    fase.drain_stall_cycles += stall
                else:
                    prov.final_drains += 1
                    prov.final_drain_stall_cycles += stall
                    prov.final_drain_outstanding += b_col[i]
            elif kind == EV_FASE_BEGIN:
                f.open_uid = a_col[i]
                f.open_time = times[i]
            elif kind == EV_FASE_END:
                if f.open_time < 0 or f.open_uid != a_col[i]:
                    f.unbalanced_ends += 1
                else:
                    durations.append(times[i] - f.open_time)
                    fase.count += 1
                    fase.total_cycles += times[i] - f.open_time
                    fase.per_thread_count[tid] = fase.per_thread_count.get(tid, 0) + 1
                f.open_uid = -1
                f.open_time = -1
            elif kind == EV_BURST_START:
                adapt.bursts += 1
            elif kind == EV_MRC_COMPUTED:
                adapt.analyses += 1
                adapt.analysis_cost_cycles += a_col[i]
                f.cand = []
                f.expected_cands = b_col[i]
                f.awaiting_selection = True
            elif kind == EV_KNEE_CANDIDATE:
                adapt.knee_candidates += 1
                f.cand.append(a_col[i])
            elif kind == EV_SIZE_SELECTED:
                size = a_col[i]
                adapt.selections += 1
                f.sizes.append(size)
                f.sel_times.append(times[i])
                if f.awaiting_selection:
                    if f.expected_cands == 0:
                        f.fallbacks += 1
                        adapt.fallbacks += 1
                    elif size not in f.cand:
                        f.unmatched.append((times[i], size))
                    f.awaiting_selection = False
                else:
                    f.adoptions += 1
                    adapt.adoptions += 1

    def finalize(self, schema: int = TRACE_SCHEMA_VERSION) -> TraceProfile:
        """Post-process the accumulated state into a :class:`TraceProfile`.

        Safe to call more than once (and to keep feeding afterwards):
        every derived field is recomputed from scratch here.
        """
        cfg = self.cfg
        prov = self.prov
        fase = self.fase
        adapt = self.adapt
        durations = self._durations
        folds = self._folds

        durations.sort()
        fase.p50 = _percentile(durations, 0.50)
        fase.p95 = _percentile(durations, 0.95)
        fase.p99 = _percentile(durations, 0.99)
        fase.max = durations[-1] if durations else 0

        # Top-K hottest flushed lines: count desc, line asc for ties.
        prov.top_lines = sorted(
            prov.line_flushes.items(), key=lambda kv: (-kv[1], kv[0])
        )[: cfg.top_k]

        diagnoses: List[Diagnosis] = []
        for tid in sorted(folds):
            f = folds[tid]
            if f.sizes:
                adapt.trajectories[tid] = list(zip(f.sel_times, f.sizes))
            if f.open_time >= 0:
                diagnoses.append(
                    Diagnosis(
                        code="unbalanced_fase",
                        severity="error",
                        thread_id=tid,
                        message=(
                            f"thread {tid}: fase_begin (uid {f.open_uid}) never "
                            f"closed — truncated trace or a crashed run"
                        ),
                        data={"open_uid": f.open_uid},
                    )
                )
            if f.unbalanced_ends:
                diagnoses.append(
                    Diagnosis(
                        code="unbalanced_fase",
                        severity="error",
                        thread_id=tid,
                        message=(
                            f"thread {tid}: {f.unbalanced_ends} fase_end event(s) "
                            f"with no matching fase_begin"
                        ),
                        data={"count": f.unbalanced_ends},
                    )
                )
            if f.unmatched:
                cycle, size = f.unmatched[0]
                diagnoses.append(
                    Diagnosis(
                        code="unmatched_selection",
                        severity="error",
                        thread_id=tid,
                        message=(
                            f"thread {tid}: {len(f.unmatched)} selection(s) match "
                            f"no knee candidate of the preceding MRC (first: size "
                            f"{size} at cycle {cycle})"
                        ),
                        data={
                            "count": len(f.unmatched),
                            "first_cycle": cycle,
                            "size": size,
                        },
                    )
                )
            if f.fallbacks:
                diagnoses.append(
                    Diagnosis(
                        code="knee_fallback",
                        severity="info",
                        thread_id=tid,
                        message=(
                            f"thread {tid}: {f.fallbacks} MRC(s) yielded no knee; "
                            f"the controller fell back to the maximum size"
                        ),
                        data={"count": f.fallbacks},
                    )
                )
            # Knee oscillation: A -> B -> A flip-flops in the size sequence.
            flips = 0
            sizes = f.sizes
            for i in range(2, len(sizes)):
                if sizes[i] == sizes[i - 2] != sizes[i - 1]:
                    flips += 1
            if flips >= cfg.oscillation_warning_flips:
                sev = "error" if flips >= cfg.oscillation_error_flips else "warning"
                diagnoses.append(
                    Diagnosis(
                        code="knee_oscillation",
                        severity=sev,
                        thread_id=tid,
                        message=(
                            f"thread {tid}: selected size flip-flopped {flips} "
                            f"time(s) over {len(sizes)} selections"
                        ),
                        data={"flips": flips, "selections": len(sizes)},
                    )
                )
            # Resize storm: storm_count selections inside one cycle window.
            st = f.sel_times
            k = cfg.storm_count
            for i in range(len(st) - k + 1):
                if st[i + k - 1] - st[i] <= cfg.storm_window_cycles:
                    diagnoses.append(
                        Diagnosis(
                            code="resize_storm",
                            severity="warning",
                            thread_id=tid,
                            message=(
                                f"thread {tid}: {k} resizes within "
                                f"{st[i + k - 1] - st[i]} cycles (window "
                                f"{cfg.storm_window_cycles})"
                            ),
                            data={
                                "count": k,
                                "span_cycles": st[i + k - 1] - st[i],
                                "start_cycle": st[i],
                            },
                        )
                    )
                    break

        diagnoses.sort(
            key=lambda d: (-_SEVERITY_RANK[d.severity], d.code, d.thread_id)
        )
        return TraceProfile(
            schema=schema,
            events=self.events,
            event_counts=self.counts,
            threads=sorted(folds),
            provenance=prov,
            fase=fase,
            adaptation=adapt,
            diagnoses=diagnoses,
        )


def analyze(
    trace: TraceRecorder, config: Optional[AnalyzerConfig] = None
) -> TraceProfile:
    """Fold a trace into a :class:`TraceProfile` in one pass.

    Walks the recorder's parallel arrays directly (no per-event tuple
    per event); cost is linear in the trace and independent of the
    model's size.
    """
    fold = ProfileFold(config)
    fold.feed_columns(*trace.columns())
    return fold.finalize(schema=trace.schema)


def reconcile(profile: TraceProfile, result: object) -> List[str]:
    """Cross-check a profile against its run's ``RunResult`` counters.

    Returns a list of mismatch descriptions (empty = exact agreement).
    The identities checked are definitional — the trace records the same
    increments the counters accumulate — so any entry is a bug in the
    recorder, the analyzer or the machine, never measurement noise.
    """
    problems: List[str] = []
    threads = result.threads

    def check(name: str, from_trace: int, from_result: int) -> None:
        if from_trace != from_result:
            problems.append(
                f"{name}: trace says {from_trace}, RunResult says {from_result}"
            )

    check(
        "eviction flushes",
        profile.provenance.evict_flushes,
        sum(t.eviction_flushes for t in threads),
    )
    check(
        "clean flushes",
        profile.provenance.clean_flushes,
        sum(t.clean_flushes for t in threads),
    )
    check(
        "bypass flushes",
        profile.provenance.bypass_flushes,
        sum(t.bypass_flushes for t in threads),
    )
    check(
        "victim flushes",
        profile.provenance.victim_flushes,
        sum(t.victim_flushes for t in threads),
    )
    check("FASE count", profile.fase.count, sum(t.fase_count for t in threads))
    prov = profile.provenance
    check(
        "stall cycles",
        prov.fase_drain_stall_cycles
        + prov.final_drain_stall_cycles
        + prov.issue_stall_cycles
        + prov.writeback_stall_cycles,
        sum(t.stall_cycles for t in threads),
    )
    check(
        "size selections",
        profile.adaptation.selections,
        sum(len(t.selected_sizes) for t in threads),
    )
    for t in threads:
        traj = [s for _, s in profile.adaptation.trajectories.get(t.thread_id, [])]
        if traj != list(t.selected_sizes):
            problems.append(
                f"thread {t.thread_id} selected-size trajectory: trace says "
                f"{traj}, RunResult says {list(t.selected_sizes)}"
            )
    return problems


@dataclass(frozen=True)
class DiffTolerances:
    """How much two profiles may differ and still be "the same run".

    ``ratio_pct`` bounds relative drift of counts and latencies (0.5 =
    half a percent); ``share_abs`` bounds absolute drift of the stall
    share (a fraction in [0, 1]).  Exact-match metrics (event counts,
    selected-size trajectories) ignore both.
    """

    ratio_pct: float = 0.5
    share_abs: float = 0.01


def _diff_entry(metric: str, va: float, vb: float, tol_pct: float) -> Dict:
    if va == vb:
        ratio = 1.0
    elif va == 0:
        ratio = float("inf")
    else:
        ratio = vb / va
    ok = va == vb or (ratio != float("inf") and abs(ratio - 1.0) * 100.0 <= tol_pct)
    return {
        "metric": metric,
        "a": va,
        "b": vb,
        "delta": vb - va,
        "ratio": round(ratio, 6) if ratio != float("inf") else None,
        "ok": ok,
    }


def diff_profiles(
    a: TraceProfile,
    b: TraceProfile,
    tolerances: Optional[DiffTolerances] = None,
) -> Dict:
    """Align two profiles and report their deltas.

    Returns ``{"verdict", "entries", "notes"}`` in the
    ``bench_compare`` idiom: verdict ``"ok"`` when every compared metric
    is within tolerance, ``"different"`` otherwise, ``"incomparable"``
    when the runs cannot be meaningfully aligned (different thread
    sets).  Notes call out structural differences (diverging
    trajectories) that tolerances do not cover.
    """
    tol = tolerances or DiffTolerances()
    notes: List[str] = []
    if a.threads != b.threads:
        return {
            "verdict": "incomparable",
            "entries": [],
            "notes": [
                f"thread sets differ: {a.threads} vs {b.threads} — "
                f"not the same experiment"
            ],
        }

    entries: List[Dict] = []
    pa, pb = a.provenance, b.provenance
    fa, fb = a.fase, b.fase
    for metric, va, vb in (
        ("events", a.events, b.events),
        ("evict_flushes", pa.evict_flushes, pb.evict_flushes),
        ("capacity_evictions", pa.capacity_evictions, pb.capacity_evictions),
        ("resize_evictions", pa.resize_evictions, pb.resize_evictions),
        ("clean_flushes", pa.clean_flushes, pb.clean_flushes),
        ("bypass_flushes", pa.bypass_flushes, pb.bypass_flushes),
        ("victim_flushes", pa.victim_flushes, pb.victim_flushes),
        ("distinct_lines", pa.distinct_lines, pb.distinct_lines),
        ("write_amplification", pa.write_amplification, pb.write_amplification),
        ("fase_drains", pa.fase_drains, pb.fase_drains),
        ("fase_count", fa.count, fb.count),
        ("fase_p50", fa.p50, fb.p50),
        ("fase_p95", fa.p95, fb.p95),
        ("fase_p99", fa.p99, fb.p99),
        ("fase_max", fa.max, fb.max),
        ("selections", a.adaptation.selections, b.adaptation.selections),
    ):
        entries.append(_diff_entry(metric, va, vb, tol.ratio_pct))
    share_entry = {
        "metric": "stall_share",
        "a": round(fa.stall_share, 6),
        "b": round(fb.stall_share, 6),
        "delta": round(fb.stall_share - fa.stall_share, 6),
        "ratio": None,
        "ok": abs(fb.stall_share - fa.stall_share) <= tol.share_abs,
    }
    entries.append(share_entry)

    ta, tb = a.adaptation.trajectories, b.adaptation.trajectories
    traj_a = {tid: [s for _, s in pts] for tid, pts in ta.items()}
    traj_b = {tid: [s for _, s in pts] for tid, pts in tb.items()}
    if traj_a != traj_b:
        notes.append(
            "selected-size trajectories differ: "
            + "; ".join(
                f"t{tid}: {traj_a.get(tid, [])} vs {traj_b.get(tid, [])}"
                for tid in sorted(set(traj_a) | set(traj_b))
                if traj_a.get(tid, []) != traj_b.get(tid, [])
            )
        )

    ok = all(e["ok"] for e in entries) and not any(
        n.startswith("selected-size") for n in notes
    )
    return {
        "verdict": "ok" if ok else "different",
        "entries": entries,
        "notes": notes,
    }
