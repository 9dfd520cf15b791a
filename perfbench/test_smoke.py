"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest perfbench

Each workload runs untraced and traced for a fraction of a second and
must emit exactly the metrics BENCHMARK.json declares, with their units,
with every check passing.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
from workloads import scratch_directory  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, cwd=ROOT, tiny=True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.2", "--trace", str(trace)] + (["--tiny"] if tiny else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_declared_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, meta_line, result_line = proc.stdout.strip().splitlines()
    meta = json.loads(meta_line)["meta"]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], meta["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    assert meta["absent_layers"] == []
    for key in ("nproc", "blas", "blas_threads", "numpy", "python", "backend", "git_sha",
                "seed", "ops", "setup_s"):
        assert key in meta


def test_exits_nonzero_without_package_source():
    with scratch_directory(ROOT) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(WORKLOADS[0], 0, cwd=bare, tiny=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_missing_names_are_absent_layers_not_errors():
    def image_to_float(pixels):
        return pixels

    modules = {
        "models": SimpleNamespace(),
        "training": SimpleNamespace(LOSSES={}),
        "heatmap": SimpleNamespace(image_to_float=image_to_float),
    }
    t = tracer.Tracer({})
    restore, absent = tracer.install(t, modules)
    assert "models.conv2d_forward" in absent
    assert "training.LOSSES['hinge']" in absent
    assert "heatmap.image_to_float" not in absent
    assert modules["heatmap"].image_to_float(7) == 7
    assert t.calls["data.image_to_float"] == 1
    restore()
    assert modules["heatmap"].image_to_float is image_to_float
