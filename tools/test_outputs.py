"""Tests of tools/outputs.py --against, with the set writer stubbed so that
no CLI run starts.

    python3 -m pytest tools
"""
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import outputs  # noqa: E402
from pairs import git  # noqa: E402


def head_of(checkout: Path) -> str:
    return subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True,
                          check=True).stdout.strip()


@pytest.mark.parametrize("changed", [False, True])
def test_against_lists_the_files_that_differ(tmp_path, monkeypatch, capsys,
                                             changed):
    head = git("rev-parse", "HEAD")
    checkouts = []

    def write_set(checkout, out):
        # REV's side runs in a worktree of REV, the other in the repo.
        checkouts.append((checkout, head_of(checkout)))
        out.mkdir()
        (out / "same.csv").write_text("1\n")
        if changed and checkout == ROOT:
            (out / "new.csv").write_text("")
        (out / "moved.csv").write_text(str(changed and checkout == ROOT))

    monkeypatch.setattr(outputs, "write_set", write_set)
    before = git("worktree", "list")
    code = outputs.compare_with("HEAD", tmp_path)
    assert git("worktree", "list") == before
    [(tree, tree_head), (repo, _)] = checkouts
    assert tree != ROOT and tree_head == head and not tree.exists()
    assert repo == ROOT
    lines = capsys.readouterr().out.splitlines()
    if changed:
        assert code == 1
        assert lines == ["differs: moved.csv", "differs: new.csv",
                         f"2 of 3 files differ from {head[:7]}"]
    else:
        assert code == 0
        assert lines == [f"0 of 2 files differ from {head[:7]}"]
