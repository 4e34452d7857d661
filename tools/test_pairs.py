"""Tests of tools/pairs.py: its summary of synthetic pairs, and one --tiny
pair against HEAD.

    python3 -m pytest tools
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from pairs import summarize  # noqa: E402

GATED = {m["name"] for m in
         json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def worktrees():
    return subprocess.run(["git", "-C", str(ROOT), "worktree", "list"],
                          capture_output=True, text=True,
                          check=True).stdout.splitlines()


def test_summarize_flags_unresolved_metrics():
    # "steady": tight on both sides. "wide": the change's spread is wider
    # than its bound. "apart": as wide, but every change run beats every
    # parent run. "slow": tight, and the change's median breaks its bound.
    gated = [{"name": name, "better": "lower", "bound": 0.25}
             for name in ("steady", "wide", "apart")]
    gated.append({"name": "slow", "better": "higher", "bound": 0.25})
    parent = {"steady": [1.0, 1.01, 0.99, 1.0, 1.02],
              "wide": [1.0, 1.0, 1.0, 1.0, 1.0],
              "apart": [10.0, 10.5, 11.0, 10.2, 10.8],
              "slow": [100.0, 101.0, 99.0, 100.0, 100.5]}
    change = {"steady": [1.0, 1.02, 0.98, 1.01, 1.0],
              "wide": [0.6, 1.4, 0.7, 1.3, 1.0],
              "apart": [1.0, 5.0, 2.0, 4.0, 3.0],
              "slow": [70.0, 70.5, 69.5, 70.2, 69.8]}
    pairs = [{"seed": i + 1,
              "parent": {m: v[i] for m, v in parent.items()},
              "change": {m: v[i] for m, v in change.items()}}
             for i in range(5)]
    report = summarize(pairs, gated)
    assert report["unresolved"] == ["wide"]
    assert report["broken"] == ["slow"]
    assert report["wins"]["apart"] == 5
    assert report["ratio"]["wide"] == 1.0


def test_one_tiny_pair_against_head(tmp_path):
    before = worktrees()
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pairs.py"), "--against",
         "HEAD", "--workload", "serve-ldbc", "--pairs", "1", "--tiny"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert worktrees() == before
    [path] = tmp_path.glob("BENCH_*-serve-ldbc.json")
    report = json.loads(path.read_text())
    assert report["failed"] == 0 and report["tiny"]
    [pair] = report["pairs"]
    assert pair["seed"] == 1
    for side in ("parent", "change"):
        assert set(pair[side]) == GATED
        assert report["env"][side]["workload"] == "serve-ldbc"
    assert set(report["ratio"]) == set(report["wins"]) == GATED
    assert all(ratio > 0 for ratio in report["ratio"].values())


def test_failed_runs_exit_1(tmp_path):
    before = worktrees()
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pairs.py"), "--against",
         "HEAD", "--workload", "no-such-workload", "--pairs", "1", "--tiny"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert done.returncode == 1
    assert worktrees() == before
    [path] = tmp_path.glob("BENCH_*.json")
    report = json.loads(path.read_text())
    assert report["failed"] == 2
    assert report["ratio"] == {name: None for name in GATED}
