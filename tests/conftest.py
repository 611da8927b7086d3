"""Shared test configuration.

Hypothesis runs derandomized with a bounded example count and no per-example
deadline, so the suite is deterministic and its run time predictable.
"""

import os
import subprocess
import sys
from pathlib import Path

import genrabi
import pytest
from hypothesis import settings

settings.register_profile("genrabi", derandomize=True, deadline=None,
                          max_examples=100)
settings.load_profile("genrabi")


@pytest.fixture
def run_python(tmp_path):
    """Run a Python script in a fresh interpreter that imports this
    genrabi, in tmp_path; returns the CompletedProcess with text output."""
    src = str(Path(genrabi.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}

    def run(script, *args):
        return subprocess.run([sys.executable, "-c", script, *args],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=300)
    return run
