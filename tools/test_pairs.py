"""Smoke test of tools/pairs.py: one --tiny pair against HEAD.

    python3 -m pytest tools
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GATED = {m["name"] for m in
         json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def worktrees():
    return subprocess.run(["git", "-C", str(ROOT), "worktree", "list"],
                          capture_output=True, text=True,
                          check=True).stdout.splitlines()


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
