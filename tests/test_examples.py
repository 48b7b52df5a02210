"""Smoke tests: every shipped example runs clean end to end.

Examples are the public face of the library; a refactor that breaks one
should fail the suite, not a user. Run as subprocesses so import paths and
argument parsing are exercised exactly as documented.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
SRC = Path(__file__).resolve().parent.parent / "src"


def _env() -> dict[str, str]:
    """The subprocess env: PYTHONPATH made absolute so examples import
    ``repro`` regardless of their working directory."""
    env = os.environ.copy()
    inherited = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env

#: (script, extra args, strings that must appear in stdout)
CASES = [
    ("quickstart.py", ["--seed", "3"], ["fig24", "Fig 3(a)"]),
    ("crawl_and_analyze.py", ["--seed", "3"], ["crawler", "downloader", "analyzer"]),
    ("dedup_study.py", ["--seed", "3", "--images", "120"], ["file-level dedup", "Fig. 27"]),
    ("popularity_caching.py", ["--seed", "3"], ["A1", "A2"]),
    ("cache_simulation.py", ["--seed", "3", "--requests", "4000"], ["gdsf", "hit", "proxy hit ratio"]),
    ("version_study.py", ["--seed", "3"], ["version pairs", "file dedup across versions"]),
    ("compression_study.py", ["--seed", "3"], ["gzip-6", "best on"]),
    ("restructure_study.py", ["--seed", "3"], ["carved layout", "file-level dedup"]),
    ("growth_projection.py", ["--seed", "3", "--days", "180"], ["repos", "file dedup"]),
    ("loadtest_study.py", ["--seed", "3", "--requests", "400"], ["req/s", "p99", "proxy hit ratio"]),
]


@pytest.mark.parametrize("script,args,expected", CASES, ids=[c[0] for c in CASES])
def test_example_runs(script, args, expected, tmp_path):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=tmp_path,
        env=_env(),
    )
    assert result.returncode == 0, result.stderr[-2000:]
    for token in expected:
        assert token in result.stdout, f"{script}: missing {token!r}"


def test_run_all_experiments_writes_markdown(tmp_path):
    out = tmp_path / "EXP.md"
    result = subprocess.run(
        [
            sys.executable,
            str(EXAMPLES / "run_all_experiments.py"),
            "--seed", "3",
            "--scale", "small",
            "--out", str(out),
        ],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=tmp_path,
        env=_env(),
    )
    assert result.returncode == 0, result.stderr[-2000:]
    body = out.read_text()
    assert "## fig29" in body and "measured/paper" in body
