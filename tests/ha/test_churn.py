"""GC-under-churn exercise tests (repro.ha.churn / ``repro churn``)."""

import json

import pytest

from repro.ha import run_churn
from tests.golden import assert_identity, seeded_core_bytes


@pytest.fixture(scope="module")
def report():
    return run_churn(seed=7, epochs=3, replicas=2, scale="tiny")


class TestReplicatedChurn:
    def test_every_invariant_holds(self, report):
        failed = [inv.name for inv in report.invariants if not inv.ok]
        assert report.ok and not failed

    def test_reclaimed_bytes_match_engine_accounting(self, report):
        assert report.totals["bytes_reclaimed"] == report.totals[
            "bytes_orphaned_expected"
        ]
        assert report.totals["blobs_swept"] == report.totals[
            "blobs_orphaned_expected"
        ]

    def test_availability_never_dipped(self, report):
        assert report.availability["unreadable"] == 0
        assert report.availability["checked"] > 0

    def test_report_roundtrips_to_json(self, report):
        doc = json.loads(report.to_json())
        assert doc["ok"] is True
        assert doc["seed"] == 7 and doc["epochs"] == 3
        assert len(doc["epoch_rows"]) == 3

    def test_render_mentions_the_verdict(self, report):
        text = report.render()
        assert "all invariants hold" in text
        assert "tagged_blobs_always_readable" in text

    def test_seeded_core_is_deterministic(self, report):
        again = run_churn(seed=7, epochs=3, replicas=2, scale="tiny")
        assert again.seeded_core() == report.seeded_core()
        sharded = run_churn(seed=7, epochs=4, sharded=True, k=2)
        assert_identity("sharded_churn", seeded_core_bytes(sharded.seeded_core()))


class TestCrashResume:
    def test_interrupted_sweep_resumes_byte_identical(self):
        report = run_churn(seed=7, epochs=5, kill_after=3)
        assert report.ok
        assert report.crash["exercised"] and report.crash["interrupted"]
        assert report.crash["deletions_before_kill"] == 3
        assert report.crash["byte_identical"]
        names = [inv.name for inv in report.invariants]
        assert "crash_resume_byte_identical" in names
        assert_identity("churn", seeded_core_bytes(report.seeded_core()))
