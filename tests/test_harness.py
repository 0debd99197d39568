"""The experiment harness: caching, profiling, technique plumbing."""

import pytest

from repro.common.errors import ConfigurationError
from repro.experiments.harness import Harness
from repro.workloads.registry import WORKLOAD_NAMES, get_workload


def test_registry_covers_table3():
    assert len(WORKLOAD_NAMES) == 12
    for name in WORKLOAD_NAMES:
        assert get_workload(name, scale=0.02).name == name


def test_registry_rejects_unknown():
    with pytest.raises(ConfigurationError):
        get_workload("nope")
    with pytest.raises(ConfigurationError):
        get_workload("barnes", scale=0)


def test_run_caching(tiny_harness):
    a = tiny_harness.run("queue", "LA")
    b = tiny_harness.run("queue", "LA")
    assert a is b
    c = tiny_harness.run("queue", "LA", threads=2)
    assert c is not a


def test_unknown_technique_rejected(tiny_harness):
    with pytest.raises(ConfigurationError):
        tiny_harness.run("queue", "nope")


@pytest.mark.parametrize("name", ("hash", "persistent-array"))
def test_unsupported_thread_count_rejected(tiny_harness, name):
    """One typed error for every single-threaded workload, naming it."""
    with pytest.raises(ConfigurationError, match=rf"{name}.*2 threads"):
        tiny_harness.run(name, "BEST", threads=2)


def test_profile_records_traces(tiny_harness):
    prof = tiny_harness.profile("persistent-array")
    assert prof.traces is not None
    assert prof.traces[0].n == prof.persistent_stores


def test_offline_size_persistent_array(tiny_harness):
    # The 26-line working set must be selected at any scale.
    assert tiny_harness.offline_size("persistent-array") == 26


def test_burst_length_proportional(tiny_harness):
    n = tiny_harness.profile("persistent-array").persistent_stores
    burst = tiny_harness.burst_length("persistent-array")
    assert 512 <= burst <= 65536
    assert burst <= max(512, n)
    # Per-thread sampling: the burst shrinks with the thread count.
    assert tiny_harness.burst_length("persistent-array", threads=8) <= burst


def test_sc_offline_uses_profiled_size(tiny_harness):
    res = tiny_harness.run("persistent-array", "SC-offline")
    # 1 flag eviction + 26-line drain at any scale.
    assert res.flushes == 27


def test_workload_names_listing():
    assert Harness.all_workloads() == WORKLOAD_NAMES
    assert len(Harness.splash2_workloads()) == 7


def test_scale_changes_problem_size():
    small = get_workload("queue", scale=0.01)
    large = get_workload("queue", scale=0.1)
    assert large.operations > small.operations
