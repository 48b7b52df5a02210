"""End-to-end tests for the cluster exercise and the overload exercise.

These spin up real HTTP servers, so the exercise runs once (module-scoped
fixture, small request count) and the tests assert against the reports.
The heavier configuration runs in CI's cluster-smoke job.

The exercise needs 3 replicas: with fewer, killing one leaves the
corrupted replica as the only live copy and the degraded phase cannot
serve the rotted blob from a healthy peer.
"""

import json
import socket
from contextlib import contextmanager

import pytest

import repro.ha.cluster as cluster_module
from repro.ha.cluster import run_cluster, run_overload
from repro.util.digest import sha256_bytes
from tests.golden import assert_identity, seeded_core_bytes


@pytest.fixture(scope="module")
def reports():
    # the identity ledger's "cluster" row, run twice
    first = run_cluster(seed=7, replicas=3, requests=60)
    second = run_cluster(seed=7, replicas=3, requests=60)
    return first, second


class TestClusterExercise:
    def test_survives_kill_and_corruption(self, reports):
        report, _ = reports
        assert report.ok, report.render()
        names = {inv.name for inv in report.invariants}
        assert "zero_corrupt_served" in names
        assert "rot_detected_and_repaired" in names
        totals = report.totals()
        assert totals["corrupt"] == 0
        assert totals["succeeded"] / max(1, totals["attempted"]) >= 0.99

    def test_report_is_deterministic_for_a_fixed_seed(self, reports):
        first, second = reports
        assert first.ok and second.ok
        assert json.dumps(first.seeded_core(), sort_keys=True) == json.dumps(
            second.seeded_core(), sort_keys=True
        )
        assert_identity("cluster", seeded_core_bytes(first.seeded_core()))

    def test_report_surface(self, reports):
        report, _ = reports
        doc = report.to_dict()
        assert doc["seed"] == 7
        assert doc["replicas"] == 3
        assert set(report.phases) == {"A:healthy", "B:degraded", "C:healed"}
        assert report.degraded_write.startswith("sha256:")
        rendered = report.render()
        assert "cluster exercise" in rendered
        assert "invariants" in rendered
        json.loads(report.to_json())

    def test_placement_section(self, reports):
        """Full replication reports k == N and capacity_ratio ~= 1."""
        report, _ = reports
        placement = report.to_dict()["placement"]
        assert placement["replicas"] == 3 and placement["k"] == 3
        assert len(placement["per_replica"]) == 3
        for stats in placement["per_replica"].values():
            assert stats["blobs"] > 0 and stats["bytes"] > 0
        assert placement["imbalance"] == pytest.approx(1.0)
        assert placement["capacity_ratio"] == pytest.approx(1.0)
        assert "placement" in report.render()


@pytest.fixture
def brought_up(monkeypatch):
    """Every ``serving_cluster`` tuple ``run_cluster`` opens, as it opens."""
    seen = []
    real_serving_cluster = cluster_module.serving_cluster

    @contextmanager
    def recording(*args, **kwargs):
        with real_serving_cluster(*args, **kwargs) as parts:
            seen.append(parts)
            yield parts

    monkeypatch.setattr(cluster_module, "serving_cluster", recording)
    return seen


class TestFailurePaths:
    def test_a_raise_mid_exercise_leaks_no_server(self, brought_up, monkeypatch):
        def exploding_pull_phase(session, ops, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cluster_module, "pull_phase", exploding_pull_phase)
        with pytest.raises(RuntimeError, match="boom"):
            run_cluster(seed=5, replicas=3, requests=12)
        (replica_set, _monitor, frontend, _session, _metrics), = brought_up
        assert [replica.alive for replica in replica_set.replicas] == [False] * 3
        for port in [frontend.port] + [r._port for r in replica_set.replicas]:
            with pytest.raises(OSError):
                socket.create_connection(("127.0.0.1", port), timeout=1.0).close()

    def test_a_lost_degraded_write_fails_its_invariant(self, brought_up, monkeypatch):
        """The write must be *reported* lost (exit 1), not crash the run."""
        digest = sha256_bytes(b"written-while-degraded seed=5")
        real_pull_phase = cluster_module.pull_phase
        phases = []

        def dropping_pull_phase(session, ops, **kwargs):
            phases.append(len(ops))
            if len(phases) == 3:  # phase C: after the write, the heal and sync()
                for replica in brought_up[0][0].replicas:
                    assert replica.registry.blobs.has(digest)
                    replica.registry.blobs.delete(digest)
            return real_pull_phase(session, ops, **kwargs)

        monkeypatch.setattr(cluster_module, "pull_phase", dropping_pull_phase)
        report = run_cluster(seed=5, replicas=3, requests=12, corrupt_count=1)
        assert report.degraded_write == digest
        assert report.ok is False
        failed = [inv for inv in report.invariants if not inv.ok]
        assert [inv.name for inv in failed] == ["degraded_write_survived"]
        assert "BlobNotFoundError" in failed[0].detail
        assert "INVARIANT VIOLATED" in report.render()


class TestOverloadExercise:
    def test_sheds_and_bounds_latency(self):
        report = run_overload(
            seed=2,
            requests=120,
            arrival_rate_rps=600.0,
            workers=16,
            max_concurrent=2,
            max_queue=4,
            queue_timeout_s=0.04,
            service_latency_s=0.02,
        )
        assert report.ok, report.render()
        assert report.shed_server > 0
        assert report.completed > 0
        assert report.server_p99_s <= report.p99_bound_s
        doc = report.to_dict()
        assert doc["ok"] is True
        assert "overload exercise" in report.render()
