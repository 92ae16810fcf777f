"""Smoke test of the benchmark at reduced input sizes.

    python -m pytest bench/test_smoke.py

Runs every workload of BENCHMARK.json plain and traced with ``--smoke``
and checks that the result line names every metric with its unit, that
all checks passed, and that each per-layer metric is nonzero on the
workloads that bench/layer_map.json says exercise it. Takes about a
minute on two cores.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((BENCH / "layer_map.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        for group in LAYER_MAP["groups"]:
            if workload in group["exercised_by"]:
                for name in group["metrics"]:
                    assert values[name] > 0, name
    else:
        assert all(v > 0 for v in values.values()), values


def test_layer_map_covers_the_per_layer_metrics():
    mapped = [m for g in LAYER_MAP["groups"] for m in g["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    workloads = {w["name"] for w in SPEC["workloads"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for group in LAYER_MAP["groups"]:
        assert set(group["exercised_by"]) <= workloads
        for move in group["moves"]:
            assert move["metric"] in e2e and move["workload"] in workloads


def test_refuses_a_directory_without_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "train_a5",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
