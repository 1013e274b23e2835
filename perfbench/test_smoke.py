"""Smoke tests of the benchmark itself, at a size that runs in seconds.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), "--size", "smoke", "--seconds", "1",
                           "--seed", "0", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def details_of(proc) -> dict:
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    return next(line["details"] for line in lines if "details" in line)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    res = result_of(run("--workload", workload, "--trace", str(trace)))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in res["metrics"].items()
    }
    for name, m in res["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if not trace:
            assert m["value"] > 0, name


def test_wrong_reference_counts_as_failure(tmp_path):
    refs = tmp_path / "refs.json"
    refs.write_text(json.dumps({"verify --nmax3 3 --nmax4 2": "0" * 64}))
    proc = run("--workload", "oracle", "--trace", "0", "--references", str(refs))
    res = result_of(proc)
    assert res["correct"] is False and res["failed"] >= 1
    assert details_of(proc)["failed_ratio"] == res["failed"] / res["attempted"] > 0
    assert {m["name"] for m in SPEC["end_to_end"]} == set(res["metrics"])


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = run("--workload", "prob", "--trace", "0", cwd=tmp_path,
               script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_same_seed_gives_same_requests():
    sys.path.insert(0, str(ROOT / "src"))
    for w in workloads.WORKLOADS:
        assert workloads.generate(w, 7, "smoke") == workloads.generate(w, 7, "smoke")
    assert workloads.generate("prob", 7, "smoke") != workloads.generate("prob", 8, "smoke")
