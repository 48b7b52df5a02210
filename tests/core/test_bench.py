"""``repro bench`` reports the faults it exists to catch.

Each fault-injection test breaks one thing in an otherwise healthy run
and asserts the gate fails that cell: a profile cache that forgets, a
pool that never starts a second worker, and a streaming engine that
drops a chunk. ``MODES`` is narrowed where fewer modes prove the point.
"""

import re

import pytest

from repro.analyzer.cache import ProfileCache
from repro.cli.main import main
from repro.core import bench
from repro.exercise import SeededHub
from repro.parallel.pool import ParallelConfig


@pytest.fixture(scope="module")
def tiny_hub():
    return SeededHub(bench.scale_config("tiny", 2017), failures=True)


def cells(checks):
    return {check.cell: check for check in checks}


class ForgetfulCache(ProfileCache):
    """Counts every lookup of a stored entry as a hit, then returns nothing."""

    def get(self, digest):
        super().get(digest)
        return None


def test_forgetful_cache_fails_the_warm_cell(monkeypatch, tiny_hub):
    monkeypatch.setattr(bench, "MODES", ("serial",))
    monkeypatch.setattr(bench, "ProfileCache", ForgetfulCache)
    got = cells(bench.check_pipeline("tiny", tiny_hub))
    assert got["serial/cold"].ok
    # the dataset is still right; only the analyzer's own counter shows
    # that every layer was extracted again
    assert not got["serial/warm"].ok
    assert got["serial/warm"].detail == "206 cache misses on a warm cache"


def test_one_worker_pool_fails_every_parallel_cell(monkeypatch, tiny_hub):
    monkeypatch.setattr(bench, "MODES", ("thread", "process"))
    monkeypatch.setattr(
        ParallelConfig, "effective_workers", lambda self, n_tasks=None: 1
    )
    pipeline = cells(bench.check_pipeline("tiny", tiny_hub))
    columnar = cells(bench.check_columnar("tiny"))
    for cell in (pipeline["thread/cold"], pipeline["process/cold"],
                 columnar["thread"], columnar["process"]):
        assert not cell.ok
        assert cell.detail == "ran on 1 worker"
    assert pipeline["thread/warm"].ok and pipeline["process/warm"].ok
    assert columnar["serial"].ok


def test_dropped_chunk_fails_the_columnar_gate(monkeypatch, capsys):
    real = bench.streaming_report

    def drop_last_chunk_in_thread_mode(specs, *, parallel, **kwargs):
        if parallel.mode == "thread":
            specs = specs[:-1]
        return real(specs, parallel=parallel, **kwargs)

    monkeypatch.setattr(bench, "streaming_report", drop_last_chunk_in_thread_mode)
    assert main(["bench", "--columnar", "--scales", "tiny"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] columnar/tiny thread: MISMATCH with serial" in out
    assert "[ok ] columnar/tiny process:" in out
    assert "2/3 checks ok" in out


def test_columnar_tiny_passes_over_at_least_min_chunks():
    got = bench.check_columnar("tiny")
    assert [check.cell for check in got] == ["serial", "thread", "process"]
    assert all(check.ok for check in got)
    n_chunks = re.fullmatch(r"identical to in-memory over (\d+) chunks", got[0].detail)
    assert int(n_chunks[1]) >= bench.MIN_CHUNKS


def test_unknown_scale_rejected():
    with pytest.raises(ValueError, match="bench scale"):
        bench.scale_config("galactic", 1)
    with pytest.raises(ValueError, match="expected some of"):
        bench.run_bench(("10m",))  # chunked-only: never materialized
    with pytest.raises(ValueError, match="expected some of"):
        bench.run_bench(())
    assert "10m" in bench.COLUMNAR_SCALES


def test_render_checks_tallies_failures():
    checks = [
        bench.Check("scan", "tiny", "warm", True, "cold findings"),
        bench.Check("columnar", "mid", "thread", False, "ran on 1 worker"),
    ]
    assert bench.render_checks(checks).splitlines() == [
        "  [ok ] scan/tiny warm: cold findings",
        "  [FAIL] columnar/mid thread: ran on 1 worker",
        "1/2 checks ok",
    ]
