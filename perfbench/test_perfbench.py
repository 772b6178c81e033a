"""Tests of the benchmark itself: python3 -m pytest perfbench

They run every workload in smoke mode (tiny inputs, all correctness
checks), one traced smoke run, and the benchmark in a directory without
the program's sources, where it must fail without printing a result.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from run import END_TO_END, WORKLOADS  # noqa: E402
from spans import per_layer_names  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_names_what_run_py_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == per_layer_names()


def test_smoke_runs_every_workload_and_its_checks():
    proc = bench("--smoke", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = {f"{w}.{m}" for w in WORKLOADS for m, _ in END_TO_END}
    assert set(result["metrics"]) == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "FAILED" not in proc.stdout


def test_traced_smoke_run_reports_every_per_layer_metric():
    proc = bench("--smoke", "--seconds", "1", "--workload", "classifier-train", "--trace", "1")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    trace = json.loads((ROOT / "perfbench_out" / "trace-classifier-train-0.json").read_text())
    names = {span[0] for span in trace["spans"]}
    assert {"cli.train-classifier", "nn.classifier_forward", "nn.backward", "nn.adam_step"} <= names
    assert "render.geometry_ms_per_seq" in trace["from_smoke"]


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "wgan-train", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_reference_convolution_matches_a_direct_sum():
    rng = np.random.default_rng(0)
    x, w, b = rng.normal(size=(2, 9, 3)), rng.normal(size=(3, 3, 4)), rng.normal(size=4)
    for stride, spacing in ((1, 0), (2, 0), (1, 1)):
        reach = 2 * (1 + spacing)
        xp = np.pad(x, ((0, 0), (reach // 2, reach - reach // 2), (0, 0)))
        t_out = -(-9 // stride)
        want = np.array([[sum(xp[n, t * stride + k * (1 + spacing)] @ w[k] for k in range(3)) + b
                          for t in range(t_out)] for n in range(2)])
        np.testing.assert_allclose(oracle.conv1d(x, w, b, stride, spacing), want, rtol=1e-12)


def test_geometry_check_rejects_a_moved_sphere():
    points = np.random.default_rng(1).normal(size=(16, 3))
    nodes = np.vstack([points, points[oracle.WAIST].mean(0), points[oracle.HEAD].mean(0)])
    bones = [(0, 1), (1, 3), (3, 2), (2, 0), (4, 6), (5, 6), (6, 16), (7, 8), (8, 10), (10, 9), (9, 7),
             (11, 4), (12, 5), (13, 7), (14, 8)]
    cylinders = []
    for a, b in bones:
        delta = nodes[b] - nodes[a]
        length = float(np.linalg.norm(delta))
        cylinders.append({"c": list((nodes[a] + nodes[b]) / 2), "axis": list(delta / length), "len": length})
    frame = {"frame": 0, "spheres": [{"c": list(p)} for p in nodes], "cylinders": cylinders}
    assert oracle.check_geometry_frame(frame, points) is None
    frame["spheres"][17]["c"] = list(nodes[17] + 1e-6)
    assert "spheres" in oracle.check_geometry_frame(frame, points)
