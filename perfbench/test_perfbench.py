"""Smoke test of the benchmark on tiny configurations (a few seconds).

Checks the output schema against BENCHMARK.json, that the computed counts of
the traced run repeat exactly, and that a broken projection is caught.
"""

import json
import math
import os

import pytest

import run

run.import_library()

import harness  # noqa: E402  (harness, workloads and maxgain need import_library's path)
import maxgain.optim  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNTS = ("layers.cache_mb", "layers.conv2d.gflop_per_step", "gain.power_iter_iters", "checkpoint.bytes")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def tiny(workload, trace):
    return harness.measure(workload, seed=3, seconds=0, trace=trace, size="tiny", setup_probes=1)


def check_schema(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_schema_and_repeatable_counts(spec, workload):
    result, report, notes = tiny(workload, trace=0)
    check_schema(result, spec["end_to_end"])
    assert result["correct"] and result["failed"] == 0, notes
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["failed_frac"][0] == 0.0

    first, _, notes = tiny(workload, trace=1)
    second, _, _ = tiny(workload, trace=1)
    check_schema(first, spec["per_layer"])
    assert first["correct"], notes
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def never_rescales(w, gamma_hat, gamma):
    return w


def always_one(gamma_hat, gamma):
    return 1.0


@pytest.mark.parametrize("name, broken", [("project", never_rescales),
                                          ("projection_scale", always_one)])
def test_broken_projection_shows_in_failed_frac(monkeypatch, name, broken):
    monkeypatch.setattr(maxgain.optim, name, broken)
    result, report, _ = tiny("spiral_mlp", trace=0)
    assert not result["correct"]
    assert result["failed"] > 0
    assert report["failed_frac"][0] > 0.0
