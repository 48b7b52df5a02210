"""End-to-end tests for the chaos harness (the ``repro chaos`` engine)."""

import pytest

from repro.faults.chaos import run_chaos

CHAOS_KWARGS = dict(seed=7, plan="smoke", scale="tiny", requests=120)


@pytest.fixture(scope="module")
def smoke_report():
    return run_chaos(**CHAOS_KWARGS)


class TestInvariants:
    def test_all_invariants_hold(self, smoke_report):
        assert smoke_report.ok, smoke_report.render()

    def test_at_least_four_fault_kinds_injected(self, smoke_report):
        assert len(smoke_report.faults) >= 4

    def test_no_corrupt_blob_accepted_but_some_seen(self, smoke_report):
        assert smoke_report.quarantined > 0
        names = {inv.name: inv for inv in smoke_report.invariants}
        assert names["no_corrupt_blob_accepted"].ok

    def test_every_pull_reported(self, smoke_report):
        pull = smoke_report.pull
        assert pull["failed_other"] == 0
        assert pull["attempted"] == smoke_report.crawl["distinct_repositories"]

    def test_report_serializes(self, smoke_report):
        doc = smoke_report.to_dict()
        assert doc["ok"] is True
        assert doc["plan"] == "smoke"
        assert "verdict" in smoke_report.render()


class TestDeterminism:
    def test_identical_reports_across_invocations(self, smoke_report):
        again = run_chaos(**CHAOS_KWARGS)
        assert again.to_json() == smoke_report.to_json()

    def test_seed_changes_report(self, smoke_report):
        other = run_chaos(**{**CHAOS_KWARGS, "seed": 8})
        assert other.to_json() != smoke_report.to_json()

    def test_plan_none_injects_nothing(self):
        report = run_chaos(**{**CHAOS_KWARGS, "plan": "none"})
        assert report.ok
        assert report.faults == {}
        assert report.quarantined == 0
        assert report.pull["retries"] == 0


class TestKillResume:
    def test_kill_and_resume_matches_uninterrupted(self, tmp_path, smoke_report):
        killed = run_chaos(**CHAOS_KWARGS, journal_dir=tmp_path, kill_after=7)
        assert killed.partial
        assert sum(killed.outcomes.values()) == 7

        resumed = run_chaos(**CHAOS_KWARGS, journal_dir=tmp_path)
        assert resumed.resumed and not resumed.partial
        # the §III-A and §III-B accounting must be indistinguishable from
        # the uninterrupted run's
        assert resumed.crawl == smoke_report.crawl
        assert resumed.pull == smoke_report.pull
        assert resumed.outcomes == smoke_report.outcomes
        assert resumed.ok, resumed.render()

    def test_finished_journal_rerun_is_stable(self, tmp_path, smoke_report):
        first = run_chaos(**CHAOS_KWARGS, journal_dir=tmp_path)
        again = run_chaos(**CHAOS_KWARGS, journal_dir=tmp_path)
        assert again.crawl == first.crawl
        assert again.pull == first.pull
        assert again.outcomes == first.outcomes
