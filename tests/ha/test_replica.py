"""Unit tests for the replica set: cloning, fan-out, anti-entropy.

These use a fake server factory — no sockets. The HTTP path is covered by
the frontend and cluster tests.
"""

import pytest

from repro.ha.replica import RegistryReplicaSet, Replica
from repro.model.manifest import Manifest, ManifestLayerRef
from repro.registry.registry import Registry
from repro.util.digest import sha256_bytes


class FakeServer:
    _next_port = 49000

    def __init__(self, port: int):
        if port == 0:
            FakeServer._next_port += 1
            port = FakeServer._next_port
        self.port = port
        self.killed = False

    def start(self):
        return self

    def stop(self):
        pass

    def kill(self):
        self.killed = True


def fake_factory(registry, port):
    return FakeServer(port)


def seeded_registry() -> Registry:
    registry = Registry()
    blob = b"layer-bytes"
    digest = registry.push_blob(blob)
    registry.create_repository("library/app", pull_count=7, requires_auth=False)
    manifest = Manifest(layers=(ManifestLayerRef(digest=digest, size=len(blob)),))
    registry.push_manifest("library/app", "latest", manifest)
    return registry


class TestCloning:
    def test_from_source_stamps_out_independent_stores(self):
        source = seeded_registry()
        replica_set = RegistryReplicaSet.from_source(
            source, 3, server_factory=fake_factory
        )
        assert len(replica_set.replicas) == 3
        digests = list(source.blobs.digests())
        for replica in replica_set.replicas:
            assert set(replica.registry.blobs.digests()) == set(digests)
            assert replica.registry.catalog() == ["library/app"]
            assert replica.registry.repository("library/app").pull_count == 7
        # stores are independent failure domains: deleting from one
        # replica must not touch another
        replica_set.replicas[0].registry.blobs.delete(digests[0])
        assert replica_set.replicas[1].registry.blobs.has(digests[0])

    def test_needs_at_least_one(self):
        with pytest.raises(ValueError):
            RegistryReplicaSet.from_source(seeded_registry(), 0)
        with pytest.raises(ValueError):
            RegistryReplicaSet([])


class TestLifecycle:
    def test_kill_and_restart_reuse_the_port(self):
        replica_set = RegistryReplicaSet.from_source(
            seeded_registry(), 2, server_factory=fake_factory
        ).start_all()
        replica = replica_set.replicas[0]
        url = replica.base_url
        replica_set.kill(0)
        assert not replica.alive
        assert replica.kills == 1
        replica_set.restart(0)
        assert replica.alive
        assert replica.base_url == url

    def test_base_url_requires_a_start(self):
        replica = Replica("r", seeded_registry(), server_factory=fake_factory)
        with pytest.raises(RuntimeError):
            replica.base_url

    def test_double_start_raises(self):
        replica = Replica("r", seeded_registry(), server_factory=fake_factory)
        replica.start()
        with pytest.raises(RuntimeError):
            replica.start()


class TestWriteFanOut:
    def test_put_blob_reaches_live_replicas_only(self):
        replica_set = RegistryReplicaSet.from_source(
            seeded_registry(), 3, server_factory=fake_factory
        ).start_all()
        replica_set.kill(1)
        digest = replica_set.put_blob(b"new-data")
        assert replica_set.replicas[0].registry.blobs.has(digest)
        assert not replica_set.replicas[1].registry.blobs.has(digest)
        assert replica_set.replicas[2].registry.blobs.has(digest)

    def test_put_blob_with_no_live_replica_raises(self):
        replica_set = RegistryReplicaSet.from_source(
            seeded_registry(), 2, server_factory=fake_factory
        )
        with pytest.raises(RuntimeError):
            replica_set.put_blob(b"data")

    def test_push_manifest_creates_repo_on_first_sight(self):
        replica_set = RegistryReplicaSet.from_source(
            seeded_registry(), 2, server_factory=fake_factory
        ).start_all()
        blob = b"x"
        digest = replica_set.put_blob(blob)
        manifest = Manifest(layers=(ManifestLayerRef(digest=digest, size=len(blob)),))
        replica_set.push_manifest("user/new", "v1", manifest)
        for replica in replica_set.replicas:
            assert "user/new" in replica.registry.catalog()


class TestAntiEntropy:
    def test_sync_converges_a_missed_write(self):
        replica_set = RegistryReplicaSet.from_source(
            seeded_registry(), 3, server_factory=fake_factory
        ).start_all()
        replica_set.kill(2)
        digest = replica_set.put_blob(b"missed-by-replica-2")
        assert replica_set.divergence()["missing_somewhere"] == 1
        stats = replica_set.sync()
        assert stats["blobs"] == 1
        assert replica_set.replicas[2].registry.blobs.has(digest)
        assert replica_set.divergence()["missing_somewhere"] == 0

    def test_sync_refuses_a_corrupt_donor(self):
        replica_set = RegistryReplicaSet.from_source(
            seeded_registry(), 2, server_factory=fake_factory
        ).start_all()
        data = b"precious"
        digest = sha256_bytes(data)
        # replica 0 holds a rotted copy under the digest; replica 1 has
        # nothing — sync must NOT propagate the rot
        replica_set.replicas[0].registry.blobs.put_at(digest, b"rotten!!")
        stats = replica_set.sync()
        assert stats["corrupt_donors_skipped"] == 1
        assert not replica_set.replicas[1].registry.blobs.has(digest)

    def test_sync_prefers_a_healthy_donor(self):
        replica_set = RegistryReplicaSet.from_source(
            seeded_registry(), 3, server_factory=fake_factory
        ).start_all()
        data = b"precious"
        digest = sha256_bytes(data)
        replica_set.replicas[0].registry.blobs.put_at(digest, b"rotten!!")
        replica_set.replicas[1].registry.blobs.put_at(digest, data)
        replica_set.sync()
        # the healthy copy won everywhere it was missing
        assert replica_set.replicas[2].registry.blobs.get(digest) == data

    def test_sync_unions_metadata(self):
        replica_set = RegistryReplicaSet.from_source(
            seeded_registry(), 2, server_factory=fake_factory
        ).start_all()
        only_on_zero = replica_set.replicas[0].registry
        blob = b"solo"
        digest = only_on_zero.push_blob(blob)
        only_on_zero.create_repository("user/solo")
        manifest = Manifest(layers=(ManifestLayerRef(digest=digest, size=len(blob)),))
        only_on_zero.push_manifest("user/solo", "latest", manifest)
        replica_set.sync()
        other = replica_set.replicas[1].registry
        assert "user/solo" in other.catalog()
        assert other.get_manifest("user/solo", "latest").digest() == manifest.digest()
        assert other.blobs.has(digest)


class TickingClock:
    """Strictly monotonic test clock so deletions out-stamp earlier pushes.

    Starts in the future (the `seeded_registry` fixture stamps with real
    wall time) so a deletion always beats the seed pushes — the same trick
    `repro.ha.churn.VIRTUAL_EPOCH_START` plays."""

    def __init__(self, t: float = 2_000_000_000.0):
        self.t = t

    def __call__(self) -> float:
        self.t += 1.0
        return self.t


class TestDeletionWins:
    """Anti-entropy must converge to deletions, not resurrect them."""

    def _set(self, n=2):
        clock = TickingClock()
        replica_set = RegistryReplicaSet.from_source(
            seeded_registry(), n, server_factory=fake_factory, clock=clock
        ).start_all()
        return replica_set, clock

    def test_sync_reconciles_a_tag_deletion(self):
        replica_set, _clock = self._set()
        replica_set.replicas[0].registry.delete_tag("library/app", "latest")
        stats = replica_set.sync()
        assert stats["tags_removed"] >= 1
        for replica in replica_set.replicas:
            assert "latest" not in replica.registry.repository("library/app").tags

    def test_sync_does_not_resurrect_a_swept_blob(self):
        replica_set, clock = self._set()
        r0, r1 = (replica.registry for replica in replica_set.replicas)
        r0.delete_tag("library/app", "latest")
        digest = next(iter(r0.blobs.digests()))
        # GC swept the blob on replica 0; replica 1 slept through it
        r0.blobs.delete(digest)
        r0.blob_tombstones.add(digest, clock())
        stats = replica_set.sync()
        assert stats["resurrections_prevented"] == 1
        for replica in replica_set.replicas:
            assert not replica.registry.blobs.has(digest)
            assert replica.registry.blob_deleted(digest)

    def test_newer_push_beats_the_deletion(self):
        replica_set, clock = self._set()
        r0 = replica_set.replicas[0].registry
        r0.delete_tag("library/app", "latest")
        digest = next(iter(r0.blobs.digests()))
        r0.blobs.delete(digest)
        r0.blob_tombstones.add(digest, clock())
        replica_set.sync()
        # the same bytes are pushed again, later: the push wins now
        assert replica_set.put_blob(b"layer-bytes") == digest
        stats = replica_set.sync()
        assert stats["resurrections_prevented"] == 0
        for replica in replica_set.replicas:
            assert replica.registry.blobs.has(digest)
            assert not replica.registry.blob_deleted(digest)
