"""Process-parallel execution of experiment grids.

The harness's unit of work — one ``(workload, technique, threads)`` cell
under a frozen :class:`HarnessConfig` — is a pure, deterministic
function (``execute_cell``), so cells can run in any order in any
process and produce bit-identical results.  Earlier versions fanned a
grid over ``ProcessPoolExecutor`` with one future per group and a hard
barrier between the profiling and cell phases; this module replaces that
with fork-once workers over a shared work queue
(:class:`~repro.experiments.transport.WorkerPool`):

- **Fork once, reuse everywhere.**  ``jobs`` workers spawn once per
  sweep with the frozen config preloaded; each builds its ``Harness``
  a single time and keeps it across tasks, so a workload's materialized
  batch columns amortize over *every* group that worker pulls, not just
  one.
- **Work stealing, no phase barrier.**  ``(workload, threads)`` groups
  sit in one shared queue — whichever worker drains first pulls the next
  group, so imbalanced groups level out by construction.  Summary
  (profiling) tasks are enqueued first and *only the groups that need
  them* wait; everything else starts immediately, and a group blocked on
  a summary is released the moment that summary lands.
- **Shared-memory transport.**  Small control tuples cross the queues;
  bulk event data (recorded profile traces) crosses as
  ``multiprocessing.shared_memory`` manifests
  (:mod:`repro.experiments.transport`) — no pickling of event data.
  Profile traces shipped back this way let the parent adopt the worker's
  profiling run, making trace-consuming artifacts (figure2/figure7) free
  after an ``--artifact all`` sweep.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.harness import (
    Cell,
    Harness,
    HarnessConfig,
    ProfileSummary,
    record_grid,
)
from repro.experiments.transport import (
    WorkerPool,
    attach_traces,
    share_traces,
    unlink_segment,
)
from repro.nvram.stats import RunResult

#: Base techniques whose cells require a profiling pass first.
_NEEDS_SUMMARY = ("SC", "SC-offline")


def _needs_summary(technique: str) -> bool:
    """Whether a technique spec's *base* needs a profiling pass."""
    from repro.cache.spec import TechniqueSpec

    return TechniqueSpec.parse(technique).base in _NEEDS_SUMMARY


# ---------------------------------------------------------------------------
# Worker-side task handlers
# ---------------------------------------------------------------------------


def describe_task(kind: str, payload) -> str:
    """A short human label for one pool task (fleet-bus event text)."""
    try:
        if kind == "summary":
            return f"summary:{payload[0]}"
        if kind == "cells":
            cells = payload[1]
            name, _technique, threads = cells[0]
            return f"{name}/t{threads}×{len(cells)}"
        if kind == "crash":
            workload, chunk = payload[1], payload[3]
            return f"crash:{getattr(workload, 'name', '?')}×{len(chunk)}"
    except (IndexError, TypeError):
        pass
    return kind


def make_task_handlers(
    config: Optional[HarnessConfig],
    cache_dir: Optional[str],
    emitter=None,
) -> Dict[str, object]:
    """Build one worker's task handlers around its once-built state.

    Called exactly once per worker process by the pool's worker loop.
    The harness is created lazily on the first harness-needing task (a
    pool running only ``"crash"`` tasks never builds one) and then kept
    for the worker's lifetime — the fork-once discipline that lets batch
    materializations amortize across every task the worker pulls.

    ``emitter`` is the worker's :class:`repro.obs.fleet.FleetEmitter`
    when the pool carries telemetry; handlers with sub-task progress
    (crash chunks) stream it through ``emitter.task_progress``.
    """
    state: Dict[str, object] = {}

    def get_harness() -> Harness:
        harness = state.get("harness")
        if harness is None:
            harness = Harness(config, cache_dir=cache_dir)
            state["harness"] = harness
        return harness

    def handle_summary(payload) -> Tuple:
        """(name, want_trace) -> (name, summary, profile_doc, trace_manifest).

        ``profile_doc``/``trace_manifest`` ship the profiling run's
        counters and recorded traces (via shared memory) when the
        summary was computed here rather than loaded from disk; the
        parent adopts them so later trace requests cost nothing.
        """
        name, want_trace = payload
        harness = get_harness()
        summary = harness.profile_summary(name)
        profile_doc = None
        trace_manifest = None
        if want_trace:
            profile = harness._profiles.get((name, 1))
            if profile is not None and profile.traces:
                profile_doc = profile.to_dict()
                trace_manifest = share_traces(profile.traces)
        return (name, summary, profile_doc, trace_manifest)

    def handle_cells(payload) -> List[Tuple[Cell, Dict]]:
        """(summaries, cells) -> [(cell, result_doc), ...].

        A group shares one ``(workload, threads)`` pair, so the worker's
        harness materializes the batch columns once and replays them for
        every technique — and, because the harness persists across
        tasks, for every *later* group of the same workload too.
        """
        summaries, cells = payload
        harness = get_harness()
        harness.preload_summaries(summaries)
        return [(cell, harness.run(*cell).to_dict()) for cell in cells]

    def handle_crash(payload) -> List[List[Dict]]:
        """One crash-campaign chunk; the driver caches in worker state."""
        from repro.faults.campaign import execute_crash_chunk

        return execute_crash_chunk(state, payload, emitter=emitter)

    return {
        "summary": handle_summary,
        "cells": handle_cells,
        "crash": handle_crash,
    }


# ---------------------------------------------------------------------------
# Grid execution
# ---------------------------------------------------------------------------


def run_grid_parallel(
    harness: Harness,
    cells: Sequence[Cell],
    jobs: int,
    progress=None,
    telemetry=None,
):
    """Fan ``cells`` over ``jobs`` fork-once worker processes.

    Cells already in the harness's memory cache are served from it;
    everything computed by workers is folded back in, so the calling
    harness ends up in the same state as after a sequential sweep —
    including profiling runs: summaries *and* their recorded traces are
    adopted from workers.

    ``progress``, if given, is called as ``progress(done, total, cell)``
    after every completed cell — the per-cell heartbeat long parallel
    sweeps print so a stalled worker is visible before the pool joins.
    A four-parameter callback additionally receives the cell's metric
    snapshot (:func:`repro.obs.live.snapshot_from_result`), computed
    parent-side from the worker's shipped result — no extra IPC.

    ``telemetry`` (:class:`repro.obs.fleet.FleetTelemetry`) attaches the
    fleet bus to the pool and, if a span path is configured, exports the
    deterministic scheduler timeline afterwards: every summary task and
    cell group is registered in a :class:`repro.obs.spans.SchedulePlan`
    up front in deterministic submission order, blocked groups carrying
    their summary's release edge, and costs are filled in from the
    (deterministic) results — persistent stores for summaries, modeled
    cycles for cell groups.
    """
    from repro.obs.live import resolve_grid_progress

    notify = resolve_grid_progress(progress)
    started = time.monotonic()
    cells = list(dict.fromkeys(cells))
    results: Dict[Cell, RunResult] = {}
    pending: List[Cell] = []
    for cell in cells:
        cached = harness._runs.get(cell)
        if cached is not None:
            results[cell] = cached
            if notify is not None:
                notify(len(results), len(cells), cell, cached)
        else:
            pending.append(cell)
    if not pending:
        record_grid(
            harness, results, jobs=jobs, wall_s=time.monotonic() - started
        )
        return results

    # Group cells sharing a (workload, threads) pair: the worker that
    # pulls a group materializes that stream's batch columns once for
    # all of the group's techniques.
    groups: Dict[Tuple[str, int], List[Cell]] = {}
    for cell in pending:
        name, _technique, threads = cell
        groups.setdefault((name, threads), []).append(cell)

    need_summary = {
        name
        for (name, technique, _threads) in pending
        if _needs_summary(technique) and name not in harness._summaries
    }

    def group_summaries(key: Tuple[str, int]) -> Dict[str, ProfileSummary]:
        name = key[0]
        if any(_needs_summary(t) for (_n, t, _th) in groups[key]):
            return {name: harness._summaries[name]}
        return {}

    def group_blocked(key: Tuple[str, int]) -> bool:
        return key[0] in need_summary and any(
            _needs_summary(t) for (_n, t, _th) in groups[key]
        )

    # Largest groups first, so stragglers start early and small groups
    # backfill — the usual longest-processing-time heuristic.
    by_size = sorted(
        groups, key=lambda key: (-len(groups[key]) * key[1], key)
    )
    plan = None
    if telemetry is not None:
        from repro.obs.spans import SchedulePlan

        # Register the whole plan up front, in deterministic submission
        # order — blocked groups at the position the scheduler considered
        # them, with a release edge, not at the racy moment the release
        # landed.  That keeps the span export a pure function of the grid.
        plan = SchedulePlan()
        for name in sorted(need_summary):
            plan.add(f"summary:{name}", "summary", f"summary:{name}")
        for key in by_size:
            plan.add(
                f"cells:{key[0]}:t{key[1]}",
                "cells",
                f"{key[0]}/t{key[1]}×{len(groups[key])}",
                release_after=f"summary:{key[0]}" if group_blocked(key) else None,
            )
        if telemetry.aggregator.tasks_total is None:
            telemetry.aggregator.tasks_total = len(need_summary) + len(by_size)
    blocked: Dict[str, List[Tuple[str, int]]] = {}
    with WorkerPool(
        jobs, (harness.config, harness.cache_dir), telemetry=telemetry
    ) as pool:
        task_kind: Dict[int, str] = {}
        for name in sorted(need_summary):
            task_kind[pool.submit("summary", (name, True))] = "summary"
        for key in by_size:
            if group_blocked(key):
                blocked.setdefault(key[0], []).append(key)
            else:
                task_id = pool.submit("cells", (group_summaries(key), groups[key]))
                task_kind[task_id] = "cells"
        while pool.outstanding:
            task_id, payload = pool.next_result()
            if task_kind.pop(task_id) == "summary":
                name, summary, profile_doc, trace_manifest = payload
                harness._summaries[name] = summary
                if trace_manifest is not None:
                    try:
                        profile = RunResult.from_dict(profile_doc)
                        profile.traces = attach_traces(trace_manifest)
                    finally:
                        unlink_segment(trace_manifest)
                    harness._profiles.setdefault((name, 1), profile)
                for key in blocked.pop(name, ()):
                    task_id = pool.submit(
                        "cells", (group_summaries(key), groups[key])
                    )
                    task_kind[task_id] = "cells"
            else:
                for cell, doc in payload:
                    result = RunResult.from_dict(doc)
                    harness._runs[cell] = result
                    results[cell] = result
                    if notify is not None:
                        notify(len(results), len(cells), cell, result)
    if plan is not None:
        # Deterministic costs, now that every result is in hand: a
        # summary "runs" for its workload's persistent stores, a cell
        # group for the sum of its cells' modeled cycles.
        for name in need_summary:
            plan.set_cost(
                f"summary:{name}", harness._summaries[name].persistent_stores
            )
        for key in by_size:
            plan.set_cost(
                f"cells:{key[0]}:t{key[1]}",
                sum(
                    max((t.cycles for t in results[cell].threads), default=1)
                    for cell in groups[key]
                ),
            )
        telemetry.export_spans(plan, jobs)
    record_grid(harness, results, jobs=jobs, wall_s=time.monotonic() - started)
    return results


# ---------------------------------------------------------------------------
# Artifact grids
# ---------------------------------------------------------------------------


def grid_for(harness: Harness, artifact: str) -> List[Cell]:
    """The cells one artifact generator will request, in request order.

    Mirrors the loops in ``tables.py`` / ``figures.py`` so a parallel
    sweep can pre-warm the harness before the (sequential) generator
    renders.  Artifacts that only do MRC analysis (figure2, figure7)
    need profile traces, not runs, and contribute no cells.
    """
    splash2 = list(harness.splash2_workloads())
    everything = list(harness.all_workloads())
    cells: List[Cell] = []
    if artifact == "table1":
        for name in splash2:
            cells += [(name, "ER", 1), (name, "BEST", 1)]
    elif artifact == "table2":
        cells += [("mdb", t, 8) for t in ("ER", "AT", "SC", "SC-offline", "BEST")]
    elif artifact == "table3":
        for name in everything:
            cells += [(name, t, 1) for t in ("ER", "LA", "AT", "SC-offline", "SC")]
    elif artifact == "table4":
        for n in (1, 2, 4, 8, 16, 32):
            cells += [("water-spatial", t, n) for t in ("AT", "SC", "BEST")]
    elif artifact == "figure4":
        for name in everything:
            n = 8 if name == "mdb" else 1
            cells += [(name, t, n) for t in ("ER", "AT", "SC", "SC-offline", "BEST")]
    elif artifact == "figure5":
        for name in splash2:
            for n in (1, 2, 4, 8, 16, 32):
                cells += [(name, "AT", n), (name, "SC", n), (name, "SC-offline", n)]
    elif artifact == "figure6":
        for name in splash2:
            for n in (1, 2, 4, 8, 16, 32):
                cells += [(name, "SC", n), (name, "BEST", n)]
    elif artifact == "figure8":
        for name in splash2 + ["mdb"]:
            for n in (1, 8):
                cells += [(name, "SC", n), (name, "SC-offline", n)]
    elif artifact == "adaptation":
        cells += [(name, "SC", 1) for name in everything]
    elif artifact == "policyzoo":
        from repro.experiments.tables import POLICY_ZOO_SPECS, POLICY_ZOO_WORKLOADS

        for name in POLICY_ZOO_WORKLOADS:
            cells += [(name, spec, 1) for spec in POLICY_ZOO_SPECS]
    elif artifact in ("figure2", "figure7"):
        pass
    elif artifact == "all":
        seen = dict.fromkeys(
            cell
            for art in (
                "table1", "table2", "table3", "table4", "adaptation",
                "policyzoo", "figure4", "figure5", "figure6", "figure8",
            )
            for cell in grid_for(harness, art)
        )
        cells = list(seen)
    else:
        raise KeyError(f"no grid known for artifact {artifact!r}")
    return list(dict.fromkeys(cells))
