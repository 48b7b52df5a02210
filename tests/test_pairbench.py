"""tools/pairbench.py: the paired-run summary, on canned result lines."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def pairbench():
    spec = importlib.util.spec_from_file_location("pairbench", ROOT / "tools" / "pairbench.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["pairbench"] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules["pairbench"]


def record(side: str, pair: int, *, rss: float, items: float, failed: int = 0) -> dict:
    """One logged run as ``run.py``'s last line carries it, tagged."""
    units = {"setup_s": "s", "items_per_s": "items/s", "cpu_us_per_item": "us/item",
             "peak_rss_mb": "MB", "op_p50_ms": "ms"}  # fmt: skip
    values = {"setup_s": 3.0, "items_per_s": items, "cpu_us_per_item": 1e6 / items,
              "peak_rss_mb": rss, "op_p50_ms": 0.4}  # fmt: skip
    return {
        "side": side, "pair": pair, "workload": "serve-push", "seed": 5,
        "correct": failed == 0, "attempted": 100, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }  # fmt: skip


def canned() -> list[dict]:
    parent_rss = [200, 204, 208, 212, 206, 210]
    change_rss = [180, 183, 181, 184, 209, 182]  # pair 4: the change is behind
    records = []
    for pair, (p, c) in enumerate(zip(parent_rss, change_rss)):
        records.append(record("parent", pair, rss=p, items=1500 + pair))
        records.append(record("change", pair, rss=c, items=1700 - pair))
    return records


class TestSummary:
    def test_rows_follow_benchmark_metrics_and_directions(self, pairbench):
        rows, failed = pairbench.summarize(canned())
        assert [row.metric for row in rows] == [
            "setup_s", "items_per_s", "cpu_us_per_item", "peak_rss_mb", "op_p50_ms"
        ]
        assert failed == 0
        by = {row.metric: row for row in rows}
        assert by["peak_rss_mb"].better == "lower"
        assert by["items_per_s"].better == "higher"

    def test_rss_pairs_ahead_iqr_and_ratio(self, pairbench):
        rows, _ = pairbench.summarize(canned())
        rss = {row.metric: row for row in rows}["peak_rss_mb"]
        assert rss.parent == [200, 204, 208, 212, 206, 210]
        assert rss.ahead == 5  # lower is better; pair 4 lost
        q1, _, q3 = __import__("statistics").quantiles(rss.parent, n=4)
        assert rss.parent_iqr == pytest.approx(q3 - q1)
        assert rss.ratio == pytest.approx(182.5 / 207.0)
        assert rss.beyond_iqr

    def test_a_tie_is_not_ahead_and_not_beyond_the_iqr(self, pairbench):
        rows, _ = pairbench.summarize(canned())
        for metric in ("setup_s", "op_p50_ms"):
            row = {r.metric: r for r in rows}[metric]
            assert row.ahead == 0
            assert row.ratio == 1.0
            assert not row.beyond_iqr

    def test_only_complete_pairs_count_but_every_failure_does(self, pairbench):
        records = canned() + [record("parent", 6, rss=1.0, items=1.0, failed=3)]
        rows, failed = pairbench.summarize(records)
        assert all(len(row.parent) == len(row.change) == 6 for row in rows)
        assert failed == 3

    def test_render_names_each_metric_with_its_pair_count(self, pairbench):
        text = pairbench.render(*pairbench.summarize(canned()))
        assert text.splitlines()[0] == "6 pairs; failed ops over all runs: 0"
        rss_line = next(line for line in text.splitlines() if line.startswith("peak_rss_mb"))
        assert "207 [200-212]" in rss_line
        assert "182.5 [180-209]" in rss_line
        assert "5/6" in rss_line and "(gap > IQR)" in rss_line

    def test_summarize_mode_reads_a_log_and_starts_no_process(
        self, pairbench, tmp_path, monkeypatch, capsys
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the summary must not start a process")

        monkeypatch.setattr(subprocess, "run", refuse)
        monkeypatch.setattr(subprocess, "Popen", refuse)
        log = tmp_path / "runs.jsonl"
        log.write_text("".join(json.dumps(r) + "\n" for r in canned()))
        assert pairbench.main(["--summarize", str(log)]) == 0
        assert "peak_rss_mb" in capsys.readouterr().out
