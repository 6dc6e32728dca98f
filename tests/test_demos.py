"""Each demo script runs cleanly in a fresh interpreter on the tree under test."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kchi

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(Path(kchi.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
