"""tools/calibrate.py: it runs, renders every figure and prints the band
verdict from ``PAPER_BANDS``, so the tool cannot drift from the table."""

import os
import subprocess
import sys
from pathlib import Path

from repro.core.paper_targets import BAND_SEEDS, PAPER_BANDS

ROOT = Path(__file__).resolve().parent.parent


def calibrate(*argv: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "calibrate.py"), *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_tiny_has_no_bands_and_says_so():
    run = calibrate("--scale", "tiny")
    assert run.returncode == 0, run.stderr
    assert "fig29  " in run.stdout
    assert run.stdout.splitlines()[-1] == "verdict: no bands at tiny (bands hold at bench, small)"


def test_small_at_a_band_seed_is_all_in_band():
    seed = BAND_SEEDS["small"][0]
    run = calibrate("--scale", "small", "--seed", str(seed))
    assert run.returncode == 0, run.stdout + run.stderr
    n_rows = sum(len(rows) for rows in PAPER_BANDS.values())
    assert run.stdout.splitlines()[-1] == (
        f"verdict: {n_rows}/{n_rows} banded metrics in band at small seed {seed}"
    )
    assert "[out]" not in run.stdout
