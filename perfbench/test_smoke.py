"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench

Runs every workload once untraced and once traced with --tiny, and checks
that each run passes its checks and reports exactly the metrics that
BENCHMARK.json declares for its mode, with the declared units.
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_bench(cwd, workload, trace, *extra):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = run_bench(ROOT, workload, trace, "--tiny")
            assert done.returncode == 0, done.stdout + done.stderr
            out[workload, trace] = json.loads(done.stdout.splitlines()[-1])
    return out


def declared(trace):
    return {m["name"]: m["unit"]
            for m in BENCH["per_layer" if trace else "end_to_end"]}


def test_benchmark_json_shape():
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert BENCH["paths"] == ["perfbench"]
    assert 2 <= len(WORKLOADS) <= 8
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in BENCH["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_run_is_correct_and_declared(results, workload, trace):
    result = results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    units = declared(trace)
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert units[name] == metric["unit"], name
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_checkout_without_sources_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    done = run_bench(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    assert done.stdout == ""
