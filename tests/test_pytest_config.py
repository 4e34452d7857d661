"""The repository's pytest configuration reports a failing Hypothesis test
as a failure with its falsifying example."""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"


def test_failing_given_test_reports_its_example(tmp_path):
    (tmp_path / "pyproject.toml").write_bytes(PYPROJECT.read_bytes())
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 5\n")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(tmp_path / "pyproject.toml"), str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
