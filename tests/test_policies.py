"""Unit behaviour of the six persistence techniques (§IV-A)."""

import pytest

from repro.cache.adaptive import AdaptiveConfig, AdaptiveController
from repro.cache.policies import (
    TECHNIQUES,
    AtlasTechnique,
    BestTechnique,
    EagerTechnique,
    LazyTechnique,
    SoftwareCacheTechnique,
)
from repro.cache.spec import technique_factory
from repro.common.errors import ConfigurationError


class FakePort:
    """Records the flush calls a technique makes."""

    def __init__(self):
        self.async_calls = []     # (line, category)
        self.sync_calls = []      # (lines tuple, category)
        self.adaptation = 0
        self.sizes = []
        self.events = []          # (kind, a, b) structured trace events
        self.current_fase_id = 0
        self.thread_id = 0

    def flush_async(self, line, category="eviction", invalidate=True):
        self.async_calls.append((line, category))

    def flush_sync(self, lines, category="fase_end", invalidate=True):
        self.sync_calls.append((tuple(lines), category))

    def add_overhead(self, cycles, instructions=0):
        pass

    def add_adaptation_cost(self, cycles):
        self.adaptation += cycles

    def record_selected_size(self, size):
        self.sizes.append(size)

    def record_event(self, kind, a=0, b=0):
        self.events.append((kind, a, b))


def bind(technique):
    port = FakePort()
    technique.bind(port)
    return port


def test_eager_flushes_every_store():
    t = EagerTechnique()
    port = bind(t)
    for line in (1, 1, 2):
        t.on_store(line)
    assert port.async_calls == [(1, "eager"), (1, "eager"), (2, "eager")]
    t.on_fase_end()
    t.finish()
    assert port.sync_calls == []


def test_lazy_flushes_once_per_line_at_fase_end():
    t = LazyTechnique()
    port = bind(t)
    for line in (1, 2, 1, 3, 2):
        t.on_store(line)
    assert port.async_calls == []
    t.on_fase_end()
    assert port.sync_calls == [((1, 2, 3), "fase_end")]
    t.on_fase_end()                       # nothing pending: no drain
    assert len(port.sync_calls) == 1


def test_lazy_finish_flushes_leftovers():
    t = LazyTechnique()
    port = bind(t)
    t.on_store(9)
    t.finish()
    assert port.sync_calls == [((9,), "final")]


def test_atlas_conflict_and_drain():
    t = AtlasTechnique(table_size=4)
    port = bind(t)
    t.on_store(1)
    t.on_store(5)       # 5 % 4 == 1: conflict
    assert port.async_calls == [(1, "eviction")]
    t.on_fase_end()
    assert port.sync_calls == [((5,), "fase_end")]


def test_software_cache_eviction_and_drain():
    t = SoftwareCacheTechnique(initial_size=2)
    port = bind(t)
    t.on_store(1)
    t.on_store(2)
    t.on_store(1)       # combined
    t.on_store(3)       # evicts LRU (2)
    assert port.async_calls == [(2, "eviction")]
    t.on_fase_end()
    assert port.sync_calls == [((1, 3), "fase_end")]


def test_software_cache_adapts_and_resizes():
    cfg = AdaptiveConfig(burst_length=60)
    t = SoftwareCacheTechnique(initial_size=4, controller=AdaptiveController(config=cfg))
    port = bind(t)
    for _ in range(12):
        for line in range(6):
            t.on_store(line)
    assert port.sizes, "controller never decided"
    assert port.sizes[0] >= 6
    assert t.cache.capacity == port.sizes[0]
    assert port.adaptation > 0


def test_software_cache_shrink_resize_flushes_evicted():
    t = SoftwareCacheTechnique(initial_size=4)
    port = bind(t)
    for line in (1, 2, 3, 4):
        t.on_store(line)
    evicted = t.cache.resize(2)
    assert evicted == [1, 2]


def test_best_never_flushes():
    t = BestTechnique()
    port = bind(t)
    for line in range(10):
        t.on_store(line)
    t.on_fase_end()
    t.finish()
    assert port.async_calls == [] and port.sync_calls == []


def test_factory_known_names():
    for name in TECHNIQUES:
        kwargs = {"sc_fixed_size": 8} if name == "SC-offline" else {}
        technique = technique_factory(name, **kwargs)(0)
        assert technique.name in (name, "SC")


def test_factory_per_thread_instances_are_independent():
    factory = technique_factory("SC")
    a, b = factory(0), factory(1)
    assert a is not b
    assert a.cache is not b.cache
    assert a.controller is not b.controller


def test_factory_rejects_unknown_and_missing_args():
    with pytest.raises(ConfigurationError):
        technique_factory("nope")
    with pytest.raises(ConfigurationError):
        technique_factory("SC-offline")


def test_cost_ordering_matches_table4():
    """Instruction overhead ordering: BEST < ER < LA < AT < SC."""
    costs = [
        BestTechnique.cost_per_store,
        EagerTechnique.cost_per_store,
        LazyTechnique.cost_per_store,
        AtlasTechnique.cost_per_store,
        SoftwareCacheTechnique.cost_per_store,
    ]
    assert costs == sorted(costs)
    assert len(set(costs)) == len(costs)
