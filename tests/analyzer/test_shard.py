"""Unit tests for the layer-work engine: the shard, the never-raises worker
loop, the partitioner and the driver, over both per-layer functions."""

import pickle

import pytest

import repro.analyzer.shard as engine
from repro.analyzer.analyzer import Analyzer
from repro.analyzer.profiles import LayerProfile
from repro.analyzer.shard import (
    LayerShard,
    build_shards,
    map_layers,
    profile_shard,
)
from repro.downloader.downloader import DownloadedImage
from repro.filetypes.catalog import TypeCatalog, default_catalog
from repro.model.manifest import Manifest, ManifestLayerRef
from repro.parallel.pool import ParallelConfig
from repro.registry.blobstore import DiskBlobStore, MemoryBlobStore
from repro.registry.tarball import layer_from_files
from repro.scan.shard import PackageInventory, scan_shard
from repro.synth.lineage import PackageModel
from repro.util.digest import sha256_bytes


def make_store(n: int = 4) -> tuple[MemoryBlobStore, list[str]]:
    store = MemoryBlobStore()
    digests = []
    for i in range(n):
        _, blob = layer_from_files(
            [(f"app/file{i}", b"#!" + bytes([65 + i]) * (50 * (i + 1)))]
        )
        digests.append(store.put(blob))
    return store, digests


def on_disk(tmp_path, n: int = 2) -> tuple[DiskBlobStore, list[str]]:
    mem, digests = make_store(n)
    disk = DiskBlobStore(tmp_path)
    for digest in digests:
        disk.put_at(digest, mem.get(digest))
    return disk, digests


def dies_on_shard_one(shard: LayerShard):
    """Module-level so a process pool could pickle it."""
    if shard.index == 1:
        raise RuntimeError("worker lost")
    return profile_shard(shard)


class TestLayerShard:
    def test_requires_exactly_one_transport(self):
        with pytest.raises(ValueError):
            LayerShard(index=0, digests=("sha256:x",))
        with pytest.raises(ValueError):
            LayerShard(
                index=0, digests=("sha256:x",), blobs=(b"a",), blob_root="/tmp"
            )

    def test_blobs_must_align_with_digests(self):
        with pytest.raises(ValueError):
            LayerShard(index=0, digests=("sha256:x", "sha256:y"), blobs=(b"a",))

    def test_len_is_digest_count(self):
        shard = LayerShard(index=0, digests=("sha256:x",), blobs=(b"a",))
        assert len(shard) == 1


class WorkerCases:
    """Both workers are one call of ``run_shard``: the same cases hold for
    each per-layer function. Subclasses name the worker, the context its
    per-layer function takes, and the type of value it yields."""

    worker = None
    context = None
    value_type = None

    def test_profiles_every_layer_in_order(self):
        store, digests = make_store(3)
        shard = LayerShard(
            index=5,
            digests=tuple(digests),
            blobs=tuple(store.get(d) for d in digests),
            context=self.context,
        )
        result = self.worker(shard)
        assert result.index == 5
        assert list(result.values) == digests
        assert [v.digest for v in result.values.values()] == digests
        assert all(isinstance(v, self.value_type) for v in result.values.values())
        assert result.failures == {}

    def test_bad_layer_is_captured_not_raised(self):
        store, digests = make_store(2)
        # bytes that are neither a gzip stream nor what the digest names:
        # the profiler fails on the first, the scanner on the second
        rotten = sha256_bytes(b"what was pushed")
        shard = LayerShard(
            index=0,
            digests=(digests[0], rotten, digests[1]),
            blobs=(
                store.get(digests[0]),
                b"not a gzip stream at all",
                store.get(digests[1]),
            ),
            context=self.context,
        )
        result = self.worker(shard)
        assert list(result.values) == digests
        assert set(result.failures) == {rotten}
        assert ":" in result.failures[rotten]  # "ExcType: detail" shape

    def test_reads_from_disk_root(self, tmp_path):
        _, digests = on_disk(tmp_path)
        shard = LayerShard(
            index=0,
            digests=tuple(digests),
            blob_root=str(tmp_path),
            context=self.context,
        )
        result = self.worker(shard)
        assert list(result.values) == digests

    def test_shard_and_worker_pickle(self, tmp_path):
        """The whole point: everything crossing the pool boundary pickles."""
        _, digests = on_disk(tmp_path)
        shard = LayerShard(
            index=0,
            digests=tuple(digests),
            blob_root=str(tmp_path),
            context=self.context,
        )
        assert pickle.loads(pickle.dumps(shard)) == shard
        assert pickle.loads(pickle.dumps(self.worker)) is self.worker
        result = self.worker(shard)
        assert pickle.loads(pickle.dumps(result)) == result


class TestProfileShard(WorkerCases):
    worker = staticmethod(profile_shard)
    context = None  # the default catalog, rebuilt worker-side
    value_type = LayerProfile


class TestScanShard(WorkerCases):
    worker = staticmethod(scan_shard)
    context = PackageModel(seed=3)
    value_type = PackageInventory


class TestBuildShards:
    def test_covers_every_digest_exactly_once(self):
        store, digests = make_store(7)
        shards, failures = build_shards(store, digests, 3)
        assert failures == {}
        assert len(shards) <= 3
        shipped = [d for shard in shards for d in shard.digests]
        assert sorted(shipped) == sorted(digests)
        assert [shard.index for shard in shards] == list(range(len(shards)))

    def test_missing_blob_reported_not_shipped(self):
        store, digests = make_store(2)
        ghost = sha256_bytes(b"never stored")
        shards, failures = build_shards(
            store, digests + [ghost, "sha256:malformed"], 2
        )
        assert failures[ghost].startswith("BlobNotFoundError: ")
        assert failures["sha256:malformed"].startswith("DigestError: ")
        shipped = [d for shard in shards for d in shard.digests]
        assert sorted(shipped) == sorted(digests)

    def test_memory_store_ships_bytes(self):
        store, digests = make_store(2)
        shards, _ = build_shards(store, digests, 1)
        assert shards[0].blobs is not None and shards[0].blob_root is None

    def test_disk_store_ships_root_path(self, tmp_path):
        disk, digests = on_disk(tmp_path)
        shards, _ = build_shards(disk, digests, 1)
        assert shards[0].blob_root == str(disk.root)
        assert shards[0].blobs is None

    def test_context_rides_on_every_shard(self):
        store, digests = make_store(4)
        model = PackageModel(seed=3)
        shards, _ = build_shards(store, digests, 2, model)
        assert len(shards) == 2
        assert all(shard.context is model for shard in shards)

    def test_default_catalog_not_shipped(self, monkeypatch):
        """The analyzer ships a catalog only when it is not the process-wide
        default, which every worker can rebuild for itself."""
        store, digests = make_store(2)
        image = DownloadedImage(
            repository="u/app",
            manifest=Manifest(
                layers=tuple(
                    ManifestLayerRef(digest=d, size=store.size(d)) for d in digests
                )
            ),
        )
        shipped = []
        real = engine.build_shards

        def spy(store, digests, n_shards, context=None):
            shipped.append(context)
            return real(store, digests, n_shards, context)

        monkeypatch.setattr(engine, "build_shards", spy)
        custom = TypeCatalog()
        Analyzer(store, catalog=default_catalog()).analyze([image])
        Analyzer(store, catalog=custom).analyze([image])
        assert shipped[0] is None and shipped[1] is custom

    def test_rejects_nonpositive_shard_count(self):
        store, digests = make_store(1)
        with pytest.raises(ValueError):
            build_shards(store, digests, 0)


class TestMapLayers:
    def test_every_digest_lands_in_exactly_one_map(self):
        store, digests = make_store(5)
        ghost = sha256_bytes(b"never stored")
        config = ParallelConfig(mode="serial", chunk_size=2)
        values, failed = map_layers(profile_shard, store, digests + [ghost], config)
        assert sorted(values) == sorted(digests)
        assert set(failed) == {ghost}
        assert all(values[d].digest == d for d in digests)

    @pytest.mark.parametrize("mode", ["serial", "thread"])
    def test_dead_shard_fails_its_layers_and_spares_its_siblings(self, mode):
        store, digests = make_store(6)
        config = ParallelConfig(
            mode=mode, workers=2, chunk_size=2, min_parallel_items=0
        )
        shards, _ = build_shards(store, digests, 3)  # what the driver builds
        assert len(shards) == 3
        doomed = set(shards[1].digests)

        values, failed = map_layers(dies_on_shard_one, store, digests, config)
        assert set(failed) == doomed
        assert all(
            reason.startswith("shard failed: ") and "worker lost" in reason
            for reason in failed.values()
        )
        assert set(values) == set(digests) - doomed
