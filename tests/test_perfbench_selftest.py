"""Smoke test: the benchmark's input self-test passes, so a change to
``ic_check`` that breaks its d=3/d=5 completeness gates fails here."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    # the self-test puts the source tree's src/ on its own path
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "FAIL" not in done.stdout
