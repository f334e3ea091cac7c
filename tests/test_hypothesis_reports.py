"""A failing Hypothesis test keeps its report under this repository's pytest
settings.

``filterwarnings = ["error"]`` turns every warning into an error, and on a
failure Hypothesis's pytest hook triggers ``mypy_extensions``' deprecation of
its ``TypedDict``, which pytest would then print as an ``INTERNALERROR`` in
place of the falsifying example. One narrow filter ignores that warning.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers(0, 10))
def test_below_five(x):
    assert x < 5
'''


def test_a_failing_given_test_prints_its_falsifying_example(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_failing.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    report = result.stdout + result.stderr
    assert result.returncode == 1, report
    assert "INTERNALERROR" not in report
    assert "Falsifying example" in report
    assert "x=5" in report
    assert "FAILED test_failing.py::test_below_five" in report
