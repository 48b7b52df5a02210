"""tools/colstream_cells.py: the rejected alternatives still run and still
give the shipped kernels' answers (their timings are not asserted here)."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_cell_runs_and_agrees():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "colstream_cells.py")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert run.returncode in (0, 1), run.stderr
    for header in (
        "FileDedupState.from_occurrences factorize strategies",
        "ProfileStore.to_dataset factorization strategies",
        "extract_insights before/after vectorization",
    ):
        assert header in run.stdout
    assert "disagree" not in run.stdout and "differs" not in run.stdout, run.stdout
    assert "dense path" not in run.stdout, run.stdout
