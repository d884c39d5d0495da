"""The project's pytest settings, run on a throwaway test file in a subprocess."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, max_examples=20, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_next():
    pass
'''


def test_a_failing_property_test_prints_its_example_and_the_run_goes_on(tmp_path):
    """Warnings are errors, yet Hypothesis's failure report must not abort the session."""
    probe = tmp_path / "test_probe.py"
    probe.write_text(FAILING_PROPERTY, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1
