"""End-to-end tests for the sharded cluster exercise.

Real HTTP servers again, so the exercise runs twice (once per seed-match
check) in a module-scoped fixture with a small trace: the identity
ledger's N=6, k=2 row. N=4 is the smallest shape the exercise accepts:
the seeded event plan needs four pairwise-distinct targets (kill,
corrupt, flap, leave).
"""

import json

import pytest

from repro.ha.shardcluster import run_sharded_cluster
from tests.golden import assert_identity, seeded_core_bytes

EXPECTED_INVARIANTS = {
    "zero_corrupt_served",
    "get_success_after_retries",
    "rot_detected_and_repaired",
    "shards_converged",
    "killed_replica_reinstated",
    "degraded_write_survived",
    "readable_while_owner_lives",
    "placement_matches_ring",
    "rebalance_minimal",
    "capacity_amplified",
}


@pytest.fixture(scope="module")
def reports():
    first = run_sharded_cluster(seed=7, replicas=6, k=2, requests=60)
    second = run_sharded_cluster(seed=7, replicas=6, k=2, requests=60)
    return first, second


class TestShardedClusterExercise:
    def test_all_invariants_hold(self, reports):
        report, _ = reports
        assert report.ok, report.render()
        assert {inv.name for inv in report.invariants} == EXPECTED_INVARIANTS

    def test_report_is_byte_identical_across_reruns(self, reports):
        first, second = reports
        assert first.ok and second.ok
        assert json.dumps(first.seeded_core(), sort_keys=True) == json.dumps(
            second.seeded_core(), sort_keys=True
        )
        assert_identity("sharded_cluster", seeded_core_bytes(first.seeded_core()))

    def test_events_hit_distinct_targets(self, reports):
        report, _ = reports
        targets = {report.killed, report.flapped, report.left}
        corrupt = next(e for e in report.events if e["kind"] == "corrupt")["target"]
        targets.add(corrupt)
        assert len(targets) == 4

    def test_rebalance_moved_only_the_diff(self, reports):
        report, _ = reports
        for kind in ("join", "leave"):
            entry = report.rebalance[kind]
            assert entry["minimal"], entry
            assert 0 < entry["moved"] < report.placement["per_replica"][
                report.killed
            ]["blobs"] * len(report.placement["per_replica"])

    def test_capacity_beats_full_replication(self, reports):
        report, _ = reports
        # k=2 over N=6: ~3x the unique bytes of a full-copy cluster at
        # equal per-replica disk (full replication is 1.0 by definition)
        assert report.placement["capacity_ratio"] > 1.5
        assert report.placement["k"] == 2
        assert len(report.placement["per_replica"]) == 6

    def test_degraded_write_parked_a_hint(self, reports):
        report, _ = reports
        assert report.hints_parked >= 1
        assert report.degraded_write.startswith("sha256:")
        assert report.sync.get("hints_delivered", 0) >= 1

    def test_availability_sweep_covered_the_keyspace(self, reports):
        report, _ = reports
        assert report.availability["checked"] > 100  # the whole tiny hub
        assert report.availability["unreadable"] == 0

    def test_report_surface(self, reports):
        report, _ = reports
        doc = report.to_dict()
        assert doc["k"] == 2
        assert doc["replicas"] == 6
        assert set(report.phases) == {
            "A:healthy", "B:degraded", "C:flapping", "D:resharded"
        }
        assert doc["audit"]["matches_ring"] is True
        rendered = report.render()
        assert "sharded cluster exercise" in rendered
        assert "rebalance" in rendered
        json.loads(report.to_json())


class TestValidation:
    def test_too_few_replicas_rejected(self):
        with pytest.raises(ValueError):
            run_sharded_cluster(replicas=3, k=2)

    def test_k_must_be_smaller_than_n(self):
        with pytest.raises(ValueError):
            run_sharded_cluster(replicas=4, k=4)
