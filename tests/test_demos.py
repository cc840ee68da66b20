"""Smoke test: every script under demos/ runs to completion and prints."""

import os
import pathlib
import subprocess
import sys

import pytest

import ppovm

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(script):
    # run with the imported package's source tree on the path
    src = str(pathlib.Path(ppovm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(DEMOS / script)],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
