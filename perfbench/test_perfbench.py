"""Self-test of the benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py

Tiny inputs throughout: this proves the plumbing (every declared metric
prints with a unit, corrupted counters count as failed ops, the layer
fold accounts for the traced time), not the figures.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import statistics
import subprocess
import tempfile
import time

import pytest

import run

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

TINY = {
    "grid": run.GridWorkload(
        name="table2-mdb",
        programs=("mdb",),
        threads=8,
        scale=0.005,
        artifact="table2",
        labels=run.TECHNIQUES,
        paper_speedup=5.07,
    ),
    "campaign": run.CampaignWorkload(
        name="crash-hash",
        program="hash",
        technique="SC",
        scale=0.005,
        max_sites=6,
        campaigns=2,
        min_latencies=10,
    ),
}


@pytest.fixture
def bench_env():
    """The benchmark's environment, restored afterwards."""
    saved_env = dict(os.environ)
    saved_tempdir = tempfile.tempdir
    path = run.prepare_environment()
    try:
        yield
    finally:
        shutil.rmtree(path, ignore_errors=True)
        os.environ.clear()
        os.environ.update(saved_env)
        tempfile.tempdir = saved_tempdir


def _check_metrics(result: dict, declared: list) -> None:
    assert set(result["metrics"]) == {m["name"] for m in declared}
    units = {m["name"]: m["unit"] for m in declared}
    for name, entry in result["metrics"].items():
        assert entry["unit"] == units[name], name
        assert isinstance(entry["value"], (int, float)), name
        assert math.isfinite(entry["value"]), name


def test_workloads_match_declaration():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("kind", sorted(TINY))
def test_tiny_run_prints_every_declared_metric(bench_env, kind):
    wl = TINY[kind]
    for trace, declared in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
        out = run.run(wl, seed=3, seconds=0.01, trace=trace, probes=1)
        result = out["result"]
        _check_metrics(result, declared)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert out["detail"]["ops_failed"] == 0
        assert len(out["detail"]["counter_sha256"]) == 64
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25


def test_layer_self_times_sum_to_traced_wall(bench_env):
    out = run.run(TINY["grid"], seed=3, seconds=0.01, trace=True, probes=1)
    detail, metrics = out["detail"], out["result"]["metrics"]
    assert abs(detail["fold_coverage"] - 1.0) <= run.FOLD_TOLERANCE
    shares = sum(metrics[f"{layer}.share"]["value"] for layer in run.LAYERS)
    assert shares == pytest.approx(1.0)
    selfs = sum(metrics[f"{layer}.self_s"]["value"] for layer in run.LAYERS)
    assert selfs * detail["traced_rounds"] == pytest.approx(detail["fold_total_s"])


def test_corrupted_run_result_counts_as_failed_op(bench_env):
    from repro.experiments.harness import Harness, HarnessConfig

    harness = Harness(HarnessConfig(scale=0.005, seed=3))
    best = harness.run("barnes", "BEST")
    er = harness.run("barnes", "ER")
    assert run.cell_failures(er, best) == 0

    torn = dataclasses.replace(er, threads=[dataclasses.replace(er.threads[0])])
    torn.threads[0].flushes += 1
    assert run.cell_failures(torn, best) == 1

    short = dataclasses.replace(er, threads=[dataclasses.replace(er.threads[0])])
    short.threads[0].persistent_stores -= 1
    assert run.cell_failures(short, best) == 1


def test_reference_samples_are_left_out_of_round_time():
    clock = run.HostClock()
    try:
        mark = clock.begin()
        t0 = time.perf_counter()
        clock.sample()
        elapsed = time.perf_counter() - t0
        inner, ref = clock.end(mark, elapsed)
    finally:
        clock.restore()
    # One sample at each end of the stretch, one inside it.
    assert len(clock.samples) == 3
    assert inner == pytest.approx(elapsed - clock.samples[1])
    assert ref == pytest.approx(statistics.mean(clock.samples))
    slow = run.Round(wall_s=3.0, ref_s=2 * run.REF_KERNEL_S, ops=1,
                     failed=0, digest="", work=1)
    assert slow.norm_s == pytest.approx(1.5)


def test_campaign_seeds_start_with_the_run_seed():
    seeds = run.campaign_seeds(7, 4)
    assert seeds[0] == 7 and len(set(seeds)) == 4
    assert seeds == run.campaign_seeds(7, 4)


def test_fails_without_the_program(tmp_path):
    """In a directory with only the benchmark, it exits nonzero, silently."""
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "table2-mdb", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
