"""The typed facade, and the keyword-only signatures beneath it.

The one property that matters: a ``RunSpec``-driven run is bit-identical
to a hand-wired ``Machine`` run — the facade changes spelling, never
results.
"""

import dataclasses

import pytest

from repro import api
from repro.cache.adaptive import AdaptiveConfig, AdaptiveController
from repro.cache.spec import technique_factory
from repro.common.errors import ConfigurationError
from repro.common.events import FaseBegin, FaseEnd, Store
from repro.experiments.harness import Harness, HarnessConfig
from repro.nvram.machine import Machine, MachineConfig
from repro.nvram.memory import NVRAM_BASE
from repro.workloads.base import Workload
from repro.workloads.registry import get_workload

PA = NVRAM_BASE


class OneFase(Workload):
    name = "one-fase"

    def streams(self, num_threads, seed):
        return [iter([FaseBegin(), Store(PA, 8, 1), FaseEnd()])]


# ---------------------------------------------------------------------------
# RunSpec: validation and equivalence with the hand-wired path
# ---------------------------------------------------------------------------


def test_runspec_is_frozen_and_hashable():
    spec = api.RunSpec(workload="linked-list")
    assert hash(spec) == hash(api.RunSpec(workload="linked-list"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.threads = 2


def test_runspec_validation():
    with pytest.raises(ConfigurationError):
        api.RunSpec(workload="linked-list", threads=0)
    with pytest.raises(ConfigurationError):
        api.RunSpec(workload="linked-list", scale=0)
    with pytest.raises(ConfigurationError):
        api.run(api.RunSpec(workload="no-such-workload"))


def test_run_is_bit_identical_to_hand_wired_machine():
    """api.run vs the raw Machine + technique_factory spelling, LA
    technique (no profile-derived kwargs, so the hand-wired path is fully
    explicit)."""
    spec = api.RunSpec(workload="linked-list", technique="LA", scale=0.02, seed=3)
    via_api = api.run(spec)

    workload = get_workload("linked-list", scale=0.02)
    machine = Machine(spec.machine_config())
    legacy = machine.run(
        workload, technique_factory("LA"), num_threads=1, seed=3
    )
    assert dataclasses.asdict(via_api) == dataclasses.asdict(legacy)


def test_run_is_bit_identical_to_harness_path():
    """api.run vs the harness spelling for SC (profile-derived sizing)."""
    spec = api.RunSpec(workload="linked-list", technique="SC", threads=2, scale=0.02)
    via_api = api.run(spec)
    legacy = Harness(HarnessConfig(scale=0.02)).run("linked-list", "SC", 2)
    assert dataclasses.asdict(via_api) == dataclasses.asdict(legacy)


def test_shared_harness_rejects_mismatched_spec():
    spec = api.RunSpec(workload="linked-list", scale=0.02)
    harness = api.harness_for(spec)
    other = api.RunSpec(workload="linked-list", scale=0.05)
    with pytest.raises(ConfigurationError):
        api.run(other, harness=harness)
    # The matching spec reuses the harness's memoized cells.
    assert api.run(spec, harness=harness) is api.run(spec, harness=harness)


def test_traced_run_matches_plain_run():
    spec = api.RunSpec(workload="linked-list", technique="SC", scale=0.02)
    plain = api.run(spec)
    traced, recorder, metrics = api.traced_run(spec)
    assert dataclasses.asdict(traced) == dataclasses.asdict(plain)
    assert recorder.counts()  # the trace actually recorded events
    assert metrics is None    # no sampling interval requested


def test_campaign_facade_smoke():
    spec = api.RunSpec(workload="linked-list", technique="SC", scale=0.02)
    matrix = api.campaign(spec, api.FaultSpec(max_sites=12))
    assert matrix.injected > 0
    assert matrix.ok
    broken = api.campaign(
        spec, api.FaultSpec(max_sites=24), commit_before_drain=True
    )
    assert not broken.ok


def test_top_level_lazy_exports():
    import repro

    assert repro.RunSpec is api.RunSpec
    assert repro.run is api.run
    assert repro.campaign is api.campaign
    assert repro.FaultSpec is api.FaultSpec
    with pytest.raises(AttributeError):
        repro.no_such_name


def test_runspec_canonicalizes_spec_strings():
    from repro.cache.spec import TechniqueSpec

    spec = api.RunSpec(workload="queue", technique="SC+clean", scale=0.05)
    assert spec.technique == "SC+clean:4"
    spec = api.RunSpec(
        workload="queue",
        technique=TechniqueSpec.parse("SC+victim:8"),
        scale=0.05,
    )
    assert spec.technique == "SC+victim:8"


def test_runspec_rejects_bad_specs_at_construction():
    with pytest.raises(ConfigurationError, match="unknown policy stage"):
        api.RunSpec(workload="queue", technique="SC+bogus")


# ---------------------------------------------------------------------------
# Keyword-only signatures: the old positional spellings are errors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "call",
    [
        lambda: Machine(MachineConfig(), None),
        lambda: Machine(MachineConfig()).run(OneFase(), technique_factory("LA"), 1, 0),
        lambda: AdaptiveController(AdaptiveConfig(burst_length=32)),
    ],
    ids=["machine_init", "machine_run", "adaptive_controller"],
)
def test_positional_spellings_raise_type_error(call):
    with pytest.raises(TypeError):
        call()
