"""Extension features: clwb flushing, thread-group adaptation,
periodic re-adaptation, composed phase-change workloads.

These go beyond the paper's evaluated system, covering what it discusses
but does not evaluate (§II-A's clwb trade-off, §III-C's thread-grouping
future work, finite hibernation).
"""

import pytest

from repro.cache.adaptive import AdaptiveConfig
from repro.cache.spec import technique_factory
from repro.common.errors import ConfigurationError
from repro.nvram.machine import Machine, MachineConfig
from repro.workloads.base import ComposedWorkload
from repro.workloads.generators import TilePatternConfig, TilePatternWorkload


def tile_workload(name, tile_lines, passes=8.0, tiles=4, fases=10, burst=4.0):
    return TilePatternWorkload(
        name,
        TilePatternConfig(
            tile_lines=tile_lines,
            burst=burst,
            passes=passes,
            tiles_per_fase=tiles,
            num_fases=fases,
        ),
    )


def run(workload, technique, threads=1, **kw):
    machine = Machine(MachineConfig())
    return machine.run(workload, technique_factory(technique, **kw), num_threads=threads, seed=0)


# ---------------------------------------------------------------------------
# clwb (§II-A: "clwb flushes without invalidating a cache line")
# ---------------------------------------------------------------------------


def test_clwb_same_flush_count_fewer_misses():
    w = tile_workload("t", tile_lines=6)
    clflush = run(w, "SC-offline", sc_fixed_size=7)
    clwb = run(w, "SC-offline", sc_fixed_size=7, use_clwb=True)
    # Flush counts agree: the policy decides what to flush, not how.
    assert clwb.flushes == clflush.flushes
    # No invalidation -> fewer hardware misses -> less time.
    assert clwb.l1_misses <= clflush.l1_misses
    assert clwb.time <= clflush.time


def test_clwb_on_eager_like_rewrite_pattern():
    """Repeated rewrites of a flushed line: clflush pays a re-fill each
    time, clwb does not — the §II-A indirect cost, isolated."""
    w = tile_workload("t", tile_lines=2, passes=40.0, tiles=1, fases=4)
    clflush = run(w, "SC-offline", sc_fixed_size=1)
    clwb = run(w, "SC-offline", sc_fixed_size=1, use_clwb=True)
    assert clwb.l1_misses < clflush.l1_misses / 2


# ---------------------------------------------------------------------------
# Thread-group adaptation (§III-C future work)
# ---------------------------------------------------------------------------


def test_shared_adaptation_propagates_size():
    w = tile_workload("t", tile_lines=12, passes=12.0, tiles=8, fases=12)
    cfg = AdaptiveConfig(burst_length=1024)
    res = run(w, "SC", threads=4, adaptive_config=cfg, shared_adaptation=True)
    sizes = res.selected_sizes
    # Thread 0 sampled and decided ...
    assert sizes[0], "the sampling thread never decided"
    decision = sizes[0][0]
    # ... and the other threads adopted the group decision.
    for tid in range(1, 4):
        assert sizes[tid] == [decision], sizes


def test_shared_adaptation_matches_private_on_homogeneous_threads():
    w = tile_workload("t", tile_lines=10, passes=10.0, tiles=8, fases=12)
    cfg = AdaptiveConfig(burst_length=1024)
    private = run(w, "SC", threads=4, adaptive_config=cfg)
    shared = run(w, "SC", threads=4, adaptive_config=cfg, shared_adaptation=True)
    # Homogeneous threads: one MRC is as good as four.
    assert shared.flush_ratio == pytest.approx(private.flush_ratio, rel=0.35)
    # ... at a fraction of the sampling cost.
    shared_cost = sum(t.adaptation_cycles for t in shared.threads)
    private_cost = sum(t.adaptation_cycles for t in private.threads)
    assert shared_cost < private_cost / 2


# ---------------------------------------------------------------------------
# Periodic re-adaptation (finite hibernation) on phase changes
# ---------------------------------------------------------------------------


def test_composed_workload_validation():
    with pytest.raises(ConfigurationError):
        ComposedWorkload([])


def test_composed_workload_chains_phases():
    a = tile_workload("a", tile_lines=4, fases=5)
    b = tile_workload("b", tile_lines=20, fases=5)
    w = ComposedWorkload([a, b], name="phases")
    res = run(w, "BEST")
    expected = a.config.approx_total_stores + b.config.approx_total_stores
    assert res.persistent_stores == pytest.approx(expected, rel=0.05)
    assert res.fase_count == 10


def test_readaptation_follows_phase_change():
    """One-shot sampling locks in the first phase's small knee; periodic
    re-sampling discovers the second phase's larger one."""
    small = tile_workload("small", tile_lines=4, passes=20.0, tiles=6, fases=8)
    wide = tile_workload("wide", tile_lines=24, passes=20.0, tiles=2, fases=8)
    w = ComposedWorkload([small, wide], name="shift")

    once = run(
        w, "SC",
        adaptive_config=AdaptiveConfig(burst_length=2048, hibernation=None),
    )
    periodic = run(
        w, "SC",
        adaptive_config=AdaptiveConfig(burst_length=2048, hibernation=6144),
    )
    assert once.selected_sizes[0][-1] < 10          # stuck with phase 1
    assert periodic.selected_sizes[0][-1] >= 20     # followed phase 2
    assert periodic.flushes < once.flushes


def test_mixed_thread_composition_supports_threads():
    a = tile_workload("a", tile_lines=4)
    w = ComposedWorkload([a, a])
    assert w.supports_threads(3)
    res = run(w, "LA", threads=3)
    assert res.num_threads == 3
