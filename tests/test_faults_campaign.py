"""Fault-injection campaigns end to end: driver, enumerator, oracle, matrix.

The load-bearing properties:

- *soundness of the implementation* — exhaustive campaigns over the real
  workloads find zero violations under every fault model;
- *soundness of the oracle* — deliberately breaking the Atlas write
  ordering (commit record before data drain) IS detected;
- *determinism* — site enumeration, sampled selection and parallel
  fan-out all reproduce bit-identically for a fixed seed.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.events import FaseBegin, FaseEnd, Load, Store, Work
from repro.faults import (
    AtlasReplayDriver,
    CrashMatrix,
    CrashPointEnumerator,
    FaultCampaignSpec,
    check_crash,
    expected_image_at,
    run_campaign,
)
from repro.nvram.failure import FAULT_MODELS, SITE_CLASSES
from repro.nvram.memory import NVRAM_BASE
from repro.workloads.base import Workload
from repro.workloads.hashtable import HashTableWorkload
from repro.workloads.linkedlist import LinkedListWorkload

PA = NVRAM_BASE


class ListWorkload(Workload):
    """Replays fixed per-thread event lists (same shape as test_machine's)."""

    name = "list"

    def __init__(self, *streams):
        self._streams = [list(s) for s in streams]

    def supports_threads(self, num_threads):
        return num_threads == len(self._streams)

    def streams(self, num_threads, seed):
        return [iter(s) for s in self._streams]


def exhaustive_campaign(workload, **kwargs):
    kwargs.setdefault("spec", FaultCampaignSpec(max_sites=100_000))
    return run_campaign(workload, **kwargs)


# ---------------------------------------------------------------------------
# Exhaustive positive campaigns: atomicity survives every crash point
# ---------------------------------------------------------------------------


def test_linkedlist_two_threads_exhaustive_zero_violations():
    matrix = exhaustive_campaign(
        LinkedListWorkload(elements=16), technique="SC", threads=2
    )
    assert matrix.exhaustive
    assert matrix.ok, matrix.violations[:3]
    assert matrix.injected == matrix.total_sites > 0
    # Every site class fires in this workload (eviction flushes only
    # under cache pressure, so they are optional here).
    classes = {cls for (cls, _model) in matrix.cells}
    assert {"store", "log_append", "commit", "drain"} <= classes


def test_hashtable_exhaustive_zero_violations():
    matrix = exhaustive_campaign("hash", technique="SC", threads=2, scale=0.02)
    # The hash benchmark is single-threaded by construction; the
    # campaign falls back rather than erroring.
    assert matrix.threads == 1
    assert matrix.exhaustive
    assert matrix.ok, matrix.violations[:3]


@pytest.mark.parametrize("model", sorted(FAULT_MODELS))
def test_fault_models_zero_violations(model):
    # A 2-line direct-mapped L1 forces dirty hardware evictions, so the
    # reordered_flush model actually has in-flight write-backs to drop.
    matrix = run_campaign(
        LinkedListWorkload(elements=12),
        technique="SC",
        threads=1,
        spec=FaultCampaignSpec(fault_models=(model,), max_sites=100_000),
        l1_capacity_lines=2,
        l1_ways=1,
    )
    assert matrix.exhaustive
    assert matrix.ok, matrix.violations[:3]


def test_reordered_flush_model_is_not_vacuous():
    """With a tiny L1 some crashes must actually drop in-flight lines."""
    driver = AtlasReplayDriver(
        LinkedListWorkload(elements=12),
        technique="SC",
        l1_capacity_lines=2,
        l1_ways=1,
    )
    golden = driver.golden()
    dropped = 0
    for site in range(0, len(golden.sites), 7):
        state, _layout = driver.crash_at(
            site, fault_model="reordered_flush", fault_seed=site
        )
        dropped += state.dropped_writebacks
    assert dropped > 0


def test_torn_line_model_tears_lines():
    driver = AtlasReplayDriver(LinkedListWorkload(elements=16), technique="SC")
    golden = driver.golden()
    torn = 0
    for site in range(0, len(golden.sites), 5):
        state, _layout = driver.crash_at(
            site, fault_model="torn_line", fault_seed=site
        )
        torn += len(state.torn_lines)
    assert torn > 0


# ---------------------------------------------------------------------------
# Negative control: a broken write ordering must be detected
# ---------------------------------------------------------------------------


def test_commit_before_drain_is_detected():
    matrix = exhaustive_campaign(
        LinkedListWorkload(elements=16),
        technique="SC",
        threads=1,
        commit_before_drain=True,
    )
    assert not matrix.ok
    kinds = {v["kind"] for v in matrix.violations}
    assert "missing_committed" in kinds
    # The violations appear exactly where the ordering bites: after a
    # commit record became durable with data still volatile.
    assert any(v["site_class"] == "commit" for v in matrix.violations)


def test_correct_ordering_has_no_commit_window():
    """The same workload with proper ordering is clean (paired control)."""
    matrix = exhaustive_campaign(
        LinkedListWorkload(elements=16), technique="SC", threads=1
    )
    assert matrix.ok


# ---------------------------------------------------------------------------
# Property: every crash point of a random program recovers to golden
# ---------------------------------------------------------------------------


@st.composite
def small_programs(draw):
    """A random single-thread program of FASEs over a few lines."""
    events = []
    n_fases = draw(st.integers(1, 4))
    for _ in range(n_fases):
        events.append(FaseBegin())
        for _ in range(draw(st.integers(1, 5))):
            line = draw(st.integers(0, 5))
            events.append(Store(PA + 64 * line, 8, draw(st.integers(0, 99))))
            if draw(st.booleans()):
                events.append(Work(draw(st.integers(1, 50))))
            if draw(st.booleans()):
                events.append(Load(PA + 64 * draw(st.integers(0, 5)), 8))
        events.append(FaseEnd())
    return events


@settings(max_examples=15, deadline=None)
@given(small_programs(), st.sampled_from(sorted(FAULT_MODELS)))
def test_every_crash_point_recovers_to_golden(events, model):
    driver = AtlasReplayDriver(
        ListWorkload(events), technique="SC", l1_capacity_lines=2, l1_ways=1
    )
    golden = driver.golden()
    for site in range(len(golden.sites)):
        state, layout = driver.crash_at(site, fault_model=model, fault_seed=site)
        violations = check_crash(golden, site, state, layout)
        assert not violations, (site, model, [v.to_dict() for v in violations])


def test_expected_image_overlays_in_commit_order():
    events = [
        FaseBegin(), Store(PA, 8, "a"), FaseEnd(),
        FaseBegin(), Store(PA, 8, "b"), FaseEnd(),
    ]
    driver = AtlasReplayDriver(ListWorkload(events), technique="SC")
    golden = driver.golden()
    first, second = golden.commit_order
    at_first = expected_image_at(golden, golden.fases[first].commit_site)
    at_second = expected_image_at(golden, golden.fases[second].commit_site)
    addr = next(iter(golden.fases[first].writes))
    assert at_first[addr] == "a"
    assert at_second[addr] == "b"


# ---------------------------------------------------------------------------
# Enumerator: exhaustive vs sampled, determinism, class coverage
# ---------------------------------------------------------------------------


def _synthetic_sites(n, seed=0):
    rng = random.Random(seed)
    return [
        (i, rng.choice(SITE_CLASSES), rng.randrange(2), i * 10)
        for i in range(n)
    ]


def test_enumerator_exhaustive_below_threshold():
    sites = _synthetic_sites(50)
    e = CrashPointEnumerator(sites, max_sites=64)
    assert e.exhaustive
    assert e.select() == sites


def test_enumerator_sampled_selection_is_pinned():
    """The strided-sampled pick for a fixed seed is a regression surface:
    changing it silently changes which crashes every sampled campaign
    injects, so the exact selection is pinned here."""
    sites = _synthetic_sites(400, seed=3)
    e = CrashPointEnumerator(sites, max_sites=24, sample_seed=11)
    assert not e.exhaustive
    picked = [s[0] for s in e.select()]
    assert len(picked) <= 24
    assert picked == sorted(picked)
    assert picked == [s[0] for s in e.select()]  # stable across calls
    pinned = [
        s[0]
        for s in CrashPointEnumerator(
            sites, max_sites=24, sample_seed=11
        ).select()
    ]
    assert picked == pinned
    # Different seed, different interior picks (boundaries still kept).
    other = [
        s[0]
        for s in CrashPointEnumerator(
            sites, max_sites=24, sample_seed=12
        ).select()
    ]
    assert other != picked


def test_enumerator_keeps_class_boundaries():
    sites = _synthetic_sites(400, seed=3)
    picked = CrashPointEnumerator(sites, max_sites=24, sample_seed=0).select()
    by_class = {}
    for s in sites:
        by_class.setdefault(s[1], []).append(s[0])
    picked_idx = {s[0] for s in picked}
    for cls, members in by_class.items():
        assert members[0] in picked_idx, f"{cls} first site dropped"
        assert members[-1] in picked_idx, f"{cls} last site dropped"


def test_enumerator_class_filter_and_validation():
    sites = _synthetic_sites(50)
    only = CrashPointEnumerator(sites, site_classes=("commit",)).select()
    assert only and all(s[1] == "commit" for s in only)
    with pytest.raises(ConfigurationError):
        CrashPointEnumerator(sites, site_classes=("bogus",))
    with pytest.raises(ConfigurationError):
        CrashPointEnumerator(sites, max_sites=0)


# ---------------------------------------------------------------------------
# Campaign plumbing: parallel equivalence, caching, serialization
# ---------------------------------------------------------------------------


def test_parallel_campaign_matches_sequential():
    workload = LinkedListWorkload(elements=12)
    seq = run_campaign(
        workload, technique="SC", spec=FaultCampaignSpec(max_sites=40)
    )
    par = run_campaign(
        workload, technique="SC", spec=FaultCampaignSpec(max_sites=40, jobs=2)
    )
    assert par.to_dict() == seq.to_dict()


def test_parallel_and_sequential_fold_violations_in_job_order():
    """Both paths fold verdicts in job order (fault model, then site), so
    a campaign with violations serializes identically at any ``jobs``
    (the result cache key ignores ``jobs`` and serves either)."""
    spec = dict(fault_models=FAULT_MODELS, max_sites=40)
    kwargs = dict(scale=0.01, commit_before_drain=True)
    judged = []
    seq = run_campaign(
        "linked-list",
        spec=FaultCampaignSpec(**spec),
        progress=lambda done, total: judged.append(done),
        **kwargs,
    )
    par = run_campaign(
        "linked-list", spec=FaultCampaignSpec(jobs=2, **spec), **kwargs
    )
    assert not seq.ok
    assert len({v["fault_model"] for v in seq.violations}) > 1
    order = [FAULT_MODELS.index(v["fault_model"]) for v in seq.violations]
    assert order == sorted(order)
    assert par.to_dict() == seq.to_dict()
    assert judged == list(range(1, seq.injected + 1))


def test_campaign_result_caches(tmp_path):
    kwargs = dict(
        technique="SC",
        scale=0.02,
        spec=FaultCampaignSpec(max_sites=16),
        cache_dir=str(tmp_path),
    )
    first = run_campaign("linked-list", **kwargs)
    calls = []
    second = run_campaign(
        "linked-list", progress=lambda d, t: calls.append(d), **kwargs
    )
    assert second.to_dict() == first.to_dict()
    assert not calls  # served from the cache: no crashes re-injected


def test_matrix_roundtrip_and_markdown():
    matrix = exhaustive_campaign(
        LinkedListWorkload(elements=12), technique="SC", threads=1
    )
    again = CrashMatrix.from_dict(matrix.to_dict())
    assert again.to_dict() == matrix.to_dict()
    md = matrix.to_markdown()
    assert "zero violations" in md
    assert "| commit |" in md.replace("| commit ", "| commit ")
    with pytest.raises(ConfigurationError):
        CrashMatrix.from_dict({"schema": -1})


def test_crash_at_unreachable_site_errors():
    driver = AtlasReplayDriver(ListWorkload([FaseBegin(), Store(PA, 8, 1), FaseEnd()]))
    golden = driver.golden()
    with pytest.raises(SimulationError):
        driver.crash_at(len(golden.sites) + 10)


# ---------------------------------------------------------------------------
# One capture pass == one replay per crash
# ---------------------------------------------------------------------------


def _cleaning_program():
    """One thread whose long, work-padded FASEs leave the flush queue
    idle with buffered lines at quantum boundaries, so ``clean:2``
    actually issues background clean flushes (``evict_flush`` sites)."""
    events = []
    for fase in range(3):
        events.append(FaseBegin())
        for k in range(36):
            events.append(Store(PA + 64 * ((7 * k + fase) % 23), 8, 100 * fase + k))
            events.append(Work(200))
        events.append(FaseEnd())
    return ListWorkload(events)


_CAPTURE_FIELDS = (
    "nvram",
    "lost_lines",
    "at_store",
    "site_class",
    "torn_lines",
    "dropped_writebacks",
    "at_site",
    "fault_model",
)


@pytest.mark.parametrize(
    "workload, technique, threads, l1_lines",
    [
        (LinkedListWorkload(elements=12), "SC", 2, 512),
        (HashTableWorkload(elements=16), "SC+clean:2+victim:4", 1, 512),
        (_cleaning_program(), "SC+clean:2+victim:4", 1, 512),
        # A 2-line L1 gives reordered_flush in-flight write-backs to drop.
        (LinkedListWorkload(elements=12), "SC", 1, 2),
    ],
    ids=["linked-list-T2-SC", "hash-clean-victim", "clean-flushes", "tiny-l1"],
)
def test_capture_pass_matches_per_site_replays(
    workload, technique, threads, l1_lines
):
    """Every (site, fault model) state one capture pass takes equals, field
    for field, the state of a replay stopped dead at that one site."""
    driver = AtlasReplayDriver(
        workload,
        technique=technique,
        num_threads=threads,
        l1_capacity_lines=l1_lines,
        l1_ways=min(8, l1_lines // 2),
    )
    golden = driver.golden()
    if isinstance(workload, ListWorkload):
        assert any(s[1] == "evict_flush" for s in golden.sites)
    # Model-major, like a campaign's jobs: one site's models are spread
    # over the job list, so the per-site job order is exercised too.
    jobs = [
        (site, model, site)
        for model in FAULT_MODELS
        for site in range(len(golden.sites))
    ]
    captured = {}

    def sink(i, state, layout):
        assert i not in captured
        assert [(r.base, r.size) for r in layout.log_regions] == [
            (r.base, r.size) for r in golden.layout.log_regions
        ]
        captured[i] = state

    driver.crash_states(jobs, sink)
    assert sorted(captured) == list(range(len(jobs)))
    for i, (site, model, seed) in enumerate(jobs):
        alone, _layout = driver.crash_at(site, fault_model=model, fault_seed=seed)
        for name in _CAPTURE_FIELDS:
            assert getattr(captured[i], name) == getattr(alone, name), (
                site,
                model,
                name,
            )
    if l1_lines == 2:
        assert any(state.dropped_writebacks for state in captured.values())


def test_crash_states_names_unreachable_sites():
    driver = AtlasReplayDriver(ListWorkload([FaseBegin(), Store(PA, 8, 1), FaseEnd()]))
    golden = driver.golden()
    beyond = len(golden.sites) + 10
    judged = []
    with pytest.raises(SimulationError, match=rf"\[{beyond}\]"):
        driver.crash_states(
            [(0, "clean", 0), (beyond, "clean", 0)],
            lambda i, state, layout: judged.append(i),
        )
    assert judged == [0]  # reachable sites are still captured


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        FaultCampaignSpec(fault_models=("bogus",))
    with pytest.raises(ConfigurationError):
        FaultCampaignSpec(jobs=0)


# ---------------------------------------------------------------------------
# Composed policy specs under crash injection
# ---------------------------------------------------------------------------


def test_composed_spec_campaign_zero_violations():
    """Background cleaning stays crash-safe: clean flushes are
    injectable sites, and recovery still restores every FASE."""
    matrix = exhaustive_campaign(
        LinkedListWorkload(elements=12),
        technique="SC-offline+clean:2+victim:4",
        threads=1,
        technique_options={"sc_fixed_size": 2},
    )
    assert matrix.technique == "SC-offline+clean:2+victim:4"
    assert matrix.exhaustive
    assert matrix.ok, matrix.violations[:3]
    assert matrix.injected == matrix.total_sites > 0
