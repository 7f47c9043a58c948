"""Self-test of the benchmark: its correctness gates fire, and it keeps its contract.

    python3 -m pytest perfbench/test_gates.py -q

Each fault run injects a defect the gates must catch (a perturbed fused
weight, a non-finite input) and expects failed operations, `correct: false`
and a non-zero exit.  The clean runs check the printed metric names and
units against BENCHMARK.json, and that op spans cover the traced forward.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("workload,fault", [
    ("infer_ti_b1", "weight"),
    ("infer_ti_b1", "nonfinite"),
    ("train_micro", "nonfinite"),
    ("export_load", "weight"),
    ("export_load", "nonfinite"),
])
def test_gates_count_injected_faults(workload, fault):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "2", "--inject", fault)
    assert proc.returncode == 1, proc.stderr
    res = last_json(proc)
    assert res["correct"] is False
    assert 1 <= res["failed"] <= res["attempted"]


def test_untraced_run_prints_every_end_to_end_metric():
    proc = bench("--workload", "export_load", "--seed", "3", "--seconds", "2", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    res = last_json(proc)
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in res["metrics"].values())
    for name in ("setup_s", "latency_p50_ms", "latency_p90_ms", "cycles_per_s",
                 "peak_rss_mb", "error_rate"):
        assert f"  {name} " in proc.stdout


def test_traced_run_prints_every_per_layer_metric():
    proc = bench("--workload", "infer_ti_b1", "--seed", "3", "--seconds", "3", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    res = last_json(proc)
    assert res["correct"] is True and res["failed"] == 0
    metrics = res["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared("per_layer")
    assert metrics["model.forward.op_coverage"]["value"] >= 0.95
    assert metrics["ops.conv2d.calls"]["value"] == 73
    assert os.path.isfile(os.path.join(HERE, "out", "trace-infer_ti_b1-seed3.json"))


def test_refuses_to_run_without_program_sources():
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(HERE, "out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
        proc = bench("--workload", "train_micro", "--seed", "1", "--seconds", "1",
                     cwd=bare, script=os.path.join(bare, "perfbench", "run.py"))
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
