"""The test configuration: warnings are errors, and a failing property test
still reports its falsifying example."""

import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

GENERATED = '''
import warnings

from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_a_failing_property(x):
    assert x < 10


def test_a_warning_is_an_error():
    warnings.warn("still an error", DeprecationWarning)


def test_a_later_test():
    pass
'''


def test_a_failing_property_shows_its_example_and_later_tests_run(tmp_path):
    # On failure Hypothesis's pytest plugin may import libcst, which warns
    # that mypy_extensions.TypedDict is deprecated; as an error inside the
    # plugin's hook that warning ends the whole run with INTERNALERROR.
    pytest.importorskip("hypothesis")
    (tmp_path / "test_generated.py").write_text(GENERATED)
    command = [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path)]
    command += ["-p", "no:cacheprovider", str(tmp_path / "test_generated.py")]
    run = subprocess.run(command, capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "Falsifying example: test_a_failing_property(" in run.stdout
    assert "2 failed, 1 passed" in run.stdout
