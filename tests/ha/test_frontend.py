"""Integration tests for the failover frontend (real sockets)."""

import json
import urllib.error
import urllib.request

import pytest

from repro.exercise import serving_cluster
from repro.ha.frontend import FailoverFrontend
from repro.ha.health import HealthMonitor
from repro.ha.replica import RegistryReplicaSet
from repro.model.manifest import Manifest, ManifestLayerRef
from repro.registry.registry import Registry
from repro.util.digest import sha256_bytes

BLOB = b"the one true layer"


def seeded_registry() -> Registry:
    registry = Registry()
    digest = registry.push_blob(BLOB)
    registry.create_repository("library/app")
    manifest = Manifest(layers=(ManifestLayerRef(digest=digest, size=len(BLOB)),))
    registry.push_manifest("library/app", "latest", manifest)
    return registry


@pytest.fixture
def cluster():
    replica_set = RegistryReplicaSet.from_source(seeded_registry(), 2).start_all()
    monitor = HealthMonitor(replica_set.endpoints(), eject_after=2)
    frontend = FailoverFrontend(
        replica_set.endpoints(), monitor=monitor, timeout_s=2.0
    ).start()
    yield replica_set, monitor, frontend
    frontend.stop()
    replica_set.stop_all()


def get(url: str) -> tuple[int, bytes, dict]:
    try:
        with urllib.request.urlopen(url, timeout=5) as response:
            return response.status, response.read(), dict(response.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read(), dict(exc.headers or {})


class TestHappyPath:
    def test_blob_get_forwards(self, cluster):
        _, _, frontend = cluster
        digest = sha256_bytes(BLOB)
        status, body, _ = get(f"{frontend.base_url}/v2/library/app/blobs/{digest}")
        assert status == 200
        assert body == BLOB

    def test_manifest_get_forwards_with_headers(self, cluster):
        _, _, frontend = cluster
        status, body, headers = get(
            f"{frontend.base_url}/v2/library/app/manifests/latest"
        )
        assert status == 200
        assert "Docker-Content-Digest" in headers
        assert Manifest.from_json(body).layer_digests

    def test_reads_round_robin_across_replicas(self, cluster):
        replica_set, _, frontend = cluster
        for _ in range(4):
            get(f"{frontend.base_url}/v2/")
        counts = [
            replica.server.metrics.to_dict()
            .get("registry_http_requests_total", {})
            .get("series", [])
            for replica in replica_set.replicas
        ]
        served = [sum(row["value"] for row in rows) for rows in counts]
        assert all(n > 0 for n in served)


class TestReadDistribution:
    def test_seeded_offset_spreads_first_choice_uniformly(self):
        """No replica may be the permanent first candidate (the hot spot a
        plain round-robin cursor re-creates after pool-size changes)."""
        frontend = FailoverFrontend(
            [f"http://127.0.0.1:{9000 + i}" for i in range(4)], seed=7
        )
        first = {url: 0 for url in frontend.endpoints}
        for _ in range(400):
            first[frontend._read_candidates()[0]] += 1
        share = [count / 400 for count in first.values()]
        # uniform would be 0.25 each; allow generous sampling slack
        assert min(share) > 0.15, f"hot-spotted distribution: {first}"
        assert max(share) < 0.35, f"hot-spotted distribution: {first}"
        frontend.stop()

    def test_offset_stays_uniform_when_the_pool_shrinks(self):
        """The failure mode of the old cursor: after len(pool) changes the
        modulo can re-synchronize onto one replica. The seeded offset must
        stay uniform over the survivors."""
        endpoints = [f"http://127.0.0.1:{9000 + i}" for i in range(4)]
        frontend = FailoverFrontend(endpoints, seed=7)
        for _ in range(100):
            frontend._read_candidates()
        for url in endpoints[2:]:  # two replicas die: pool 4 -> 2
            for _ in range(frontend.monitor.eject_after):
                frontend.monitor.record_failure(url, "down")
        first = {url: 0 for url in endpoints[:2]}
        for _ in range(200):
            first[frontend._read_candidates()[0]] += 1
        assert all(count > 60 for count in first.values()), first
        frontend.stop()

    def test_same_seed_same_rotation(self):
        endpoints = [f"http://127.0.0.1:{9000 + i}" for i in range(4)]
        a = FailoverFrontend(endpoints, seed=7)
        b = FailoverFrontend(endpoints, seed=7)
        try:
            assert [a._read_candidates() for _ in range(20)] == [
                b._read_candidates() for _ in range(20)
            ]
        finally:
            a.stop()
            b.stop()

    def test_authoritative_404_forwards_without_failover(self, cluster):
        _, _, frontend = cluster
        status, _, _ = get(f"{frontend.base_url}/v2/library/app/manifests/nope")
        assert status == 404
        assert frontend.stats["failovers"] == 0


class TestFailover:
    def test_read_survives_a_killed_replica(self, cluster):
        replica_set, _, frontend = cluster
        replica_set.kill(0)
        digest = sha256_bytes(BLOB)
        for _ in range(4):
            status, body, _ = get(
                f"{frontend.base_url}/v2/library/app/blobs/{digest}"
            )
            assert status == 200
            assert body == BLOB
        assert frontend.stats["failovers"] >= 1

    def test_killed_replica_gets_ejected_passively(self, cluster):
        replica_set, monitor, frontend = cluster
        replica_set.kill(0)
        for _ in range(6):
            get(f"{frontend.base_url}/v2/")
        dead_url = replica_set.replicas[0].base_url
        assert dead_url not in monitor.live()

    def test_all_replicas_down_is_a_503_with_retry_after(self, cluster):
        replica_set, _, frontend = cluster
        replica_set.kill(0)
        replica_set.kill(1)
        status, body, headers = get(f"{frontend.base_url}/v2/")
        assert status == 503
        assert "Retry-After" in headers
        assert json.loads(body)["errors"][0]["code"] == "UNAVAILABLE"

    def test_malformed_digest_is_a_400_and_ejects_no_replica(self):
        """A client's bad digest is the client's fault: each replica answers
        400 DIGEST_INVALID, so no forward fails and every replica stays live."""
        with serving_cluster(seeded_registry(), replicas=3, seed=7) as parts:
            _, monitor, frontend, _, _ = parts
            for _ in range(2):
                status, body, _ = get(
                    f"{frontend.base_url}/v2/library/app/blobs/sha256:0000"
                )
                assert status == 400
                assert json.loads(body)["errors"][0]["code"] == "DIGEST_INVALID"
            assert [r["state"] for r in monitor.snapshot()] == ["live"] * 3


class TestEdgeIntegrity:
    def test_corrupt_blob_is_blocked_and_served_from_the_peer(self, cluster):
        replica_set, _, frontend = cluster
        digest = sha256_bytes(BLOB)
        replica_set.replicas[0].registry.blobs.put_at(digest, b"rotten bytes!")
        for _ in range(4):
            status, body, _ = get(
                f"{frontend.base_url}/v2/library/app/blobs/{digest}"
            )
            assert status == 200
            assert body == BLOB  # never the rot
        assert frontend.stats["corrupt_blocked"] >= 1

    def test_corruption_everywhere_is_a_refusal_not_a_corrupt_body(self, cluster):
        replica_set, _, frontend = cluster
        digest = sha256_bytes(BLOB)
        for replica in replica_set.replicas:
            replica.registry.blobs.put_at(digest, b"rotten bytes!")
        status, body, _ = get(f"{frontend.base_url}/v2/library/app/blobs/{digest}")
        assert status == 503
        assert body != b"rotten bytes!"


class TestWrites:
    def test_push_through_the_frontend_lands_on_the_primary(self, cluster):
        from repro.registry.http import HTTPSession

        replica_set, _, frontend = cluster
        with HTTPSession(frontend.base_url, timeout=5.0) as session:
            digest = session.push_blob(b"fresh upload")
        primary = replica_set.replicas[0]
        assert primary.registry.blobs.has(digest)

    def test_write_without_content_length_is_411(self, cluster):
        import http.client

        _, _, frontend = cluster
        conn = http.client.HTTPConnection("127.0.0.1", frontend.port, timeout=5)
        conn.putrequest("POST", "/v2/library/app/blobs/uploads/")
        conn.endheaders()
        response = conn.getresponse()
        assert response.status == 411
        conn.close()


class TestShardRouting:
    """Blob reads through a route callable (shard-aware frontend)."""

    @pytest.fixture
    def sharded_front(self):
        from repro.ha.sharded import ShardedReplicaSet

        source = Registry()
        blobs = [f"shard blob {i}".encode() for i in range(12)]
        refs = []
        for data in blobs:
            digest = source.push_blob(data)
            refs.append(ManifestLayerRef(digest=digest, size=len(data)))
        source.create_repository("library/app")
        source.push_manifest("library/app", "latest", Manifest(layers=tuple(refs)))
        cluster = ShardedReplicaSet.from_source(source, 4, k=2, seed=7).start_all()
        frontend = FailoverFrontend(
            cluster.endpoints(), seed=7, route=cluster.route, timeout_s=2.0
        ).start()
        yield cluster, frontend, blobs
        frontend.stop()
        cluster.stop_all()

    def test_every_blob_readable_despite_partial_placement(self, sharded_front):
        cluster, frontend, blobs = sharded_front
        # each blob lives on only 2 of 4 replicas; unrouted reads would 404
        # half the time — routing must find the owners every time
        for data in blobs:
            digest = sha256_bytes(data)
            status, body, _ = get(
                f"{frontend.base_url}/v2/library/app/blobs/{digest}"
            )
            assert status == 200
            assert body == data

    def test_blob_readable_while_one_owner_is_down(self, sharded_front):
        cluster, frontend, blobs = sharded_front
        digest = sha256_bytes(blobs[0])
        owner = cluster.owner_names(digest)[0]
        cluster.replica(owner).kill()
        status, body, _ = get(f"{frontend.base_url}/v2/library/app/blobs/{digest}")
        assert status == 200
        assert body == blobs[0]

    def test_missing_everywhere_is_a_404_not_a_503(self, sharded_front):
        _, frontend, _ = sharded_front
        absent = "sha256:" + "0" * 64
        status, _, _ = get(f"{frontend.base_url}/v2/library/app/blobs/{absent}")
        assert status == 404

    def test_owner_miss_fails_over_to_a_holder(self, sharded_front):
        cluster, frontend, blobs = sharded_front
        digest = sha256_bytes(blobs[1])
        first_owner = cluster.owner_names(digest)[0]
        # the first owner lost its copy (say, a botched rebalance) — the
        # 404 it returns must not end the read while a co-owner holds it
        cluster.replica(first_owner).registry.blobs.delete(digest)
        status, body, _ = get(f"{frontend.base_url}/v2/library/app/blobs/{digest}")
        assert status == 200
        assert body == blobs[1]

    def test_manifest_reads_stay_unrouted(self, sharded_front):
        _, frontend, _ = sharded_front
        status, body, _ = get(f"{frontend.base_url}/v2/library/app/manifests/latest")
        assert status == 200
        assert Manifest.from_json(body).layer_digests


class TestSurface:
    def test_needs_at_least_one_endpoint(self):
        with pytest.raises(ValueError):
            FailoverFrontend([])

    def test_context_manager(self):
        replica_set = RegistryReplicaSet.from_source(seeded_registry(), 2).start_all()
        try:
            with FailoverFrontend(replica_set.endpoints()) as frontend:
                status, _, _ = get(f"{frontend.base_url}/v2/")
                assert status == 200
        finally:
            replica_set.stop_all()
