"""Fixtures shared by the test modules."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import linemaps


@pytest.fixture(scope="session")
def fresh_python():
    """Run `python -c code *args` in a new interpreter that imports linemaps
    from the same sources as the tests, and return its stdout."""
    env = dict(os.environ)
    src = str(Path(linemaps.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))

    def run(code, *args):
        done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                              text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run
