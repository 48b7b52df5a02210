"""Tests for the deduplicating registry backend."""

import pytest

from repro.dedupstore import DedupBlobStore
from repro.registry.errors import BlobNotFoundError
from repro.registry.registry import Registry
from repro.registry.tarball import build_layer_tarball
from repro.util.digest import sha256_bytes

import random

#: incompressible shared content — a compressible filler would gzip to
#: nothing and make recipe overhead dominate the economics
SHARED = ("usr/lib/libbig.so", b"\x7fELF" + random.Random(0).randbytes(60_000))


class TestContract:
    def test_roundtrip(self):
        store = DedupBlobStore()
        blob = build_layer_tarball([SHARED])
        digest = store.put(blob)
        assert digest == sha256_bytes(blob)
        assert store.get(digest) == blob
        assert store.size(digest) == len(blob)

    def test_non_tarball_falls_back_to_raw(self):
        store = DedupBlobStore()
        digest = store.put(b'{"a manifest": true}')
        assert store.get(digest) == b'{"a manifest": true}'
        assert not store.layers.has_layer(digest)

    def test_delete_and_missing(self):
        store = DedupBlobStore()
        digest = store.put(build_layer_tarball([SHARED]))
        store.delete(digest)
        assert not store.has(digest)
        with pytest.raises(BlobNotFoundError):
            store.get(digest)
        with pytest.raises(BlobNotFoundError):
            store.delete(digest)

    def test_digests_enumeration(self):
        store = DedupBlobStore()
        d1 = store.put(build_layer_tarball([SHARED]))
        d2 = store.put(b"raw blob")
        assert set(store.digests()) == {d1, d2}


class TestSingleDecode:
    def test_put_walks_each_blob_once_and_get_restores_it(self, monkeypatch):
        from repro.dedupstore import store as store_module

        walks = []

        def counting_walk(blob):
            walks.append(sha256_bytes(blob))
            return walker(blob)

        walker = store_module.iter_layer_members
        monkeypatch.setattr(store_module, "iter_layer_members", counting_walk)
        blobs = [
            build_layer_tarball([SHARED, ("etc/conf", b"k=v\n")], extra_dirs=["var/empty"]),
            build_layer_tarball([], extra_dirs=["run/lock", "srv"]),  # directories only
            build_layer_tarball([SHARED]),
            build_layer_tarball([]),
        ]
        store = DedupBlobStore()
        digests = [store.put(blob) for blob in blobs]
        assert walks == digests
        assert all(store.layers.has_layer(d) for d in digests)
        assert store.layers.recipe(digests[1]).extra_dirs == ("run/lock", "srv")
        assert [store.get(d) for d in digests] == blobs
        assert walks == digests  # restoring decodes nothing


class TestDedupEconomics:
    def test_cross_layer_savings(self):
        store = DedupBlobStore()
        for i in range(6):
            store.put(build_layer_tarball([SHARED, (f"etc/own{i}", bytes([i]) * 64)]))
        # six blobs, one shared 60 KB file stored (gzip'd) once
        assert store.savings() > 0.5
        assert store.physical_bytes() < store.logical_bytes()

    def test_chunk_gc_after_delete(self):
        store = DedupBlobStore()
        d1 = store.put(build_layer_tarball([("only/in-one", b"Z" * 40_000)]))
        store.put(build_layer_tarball([SHARED]))
        before = store.layers.chunks.stored_bytes()
        store.delete(d1)
        report = store.collect_garbage()
        assert report["chunks_deleted"] == 1
        assert store.layers.chunks.stored_bytes() < before

    def test_gc_keeps_shared_chunks(self):
        store = DedupBlobStore()
        d1 = store.put(build_layer_tarball([SHARED, ("a", b"1")]))
        store.put(build_layer_tarball([SHARED, ("b", b"2")]))
        store.delete(d1)
        store.collect_garbage()
        # the shared chunk survives; the second blob still restores
        remaining = [d for d in store.digests()]
        assert store.get(remaining[0])


class TestAsRegistryBackend:
    def test_registry_drop_in(self):
        """A Registry over DedupBlobStore behaves identically."""
        from repro.model.manifest import Manifest, ManifestLayerRef
        from repro.registry.tarball import layer_from_files

        registry = Registry(DedupBlobStore())
        registry.create_repository("u/app")
        layer, blob = layer_from_files([SHARED, ("etc/c", b"cfg")])
        registry.push_blob(blob)
        manifest = Manifest(
            layers=(ManifestLayerRef(digest=layer.digest, size=layer.compressed_size),)
        )
        registry.push_manifest("u/app", "latest", manifest)
        fetched = registry.get_manifest("u/app", "latest")
        assert registry.get_blob(fetched.layers[0].digest) == blob

    def test_materialized_registry_on_dedup_backend(self, tiny_dataset, tiny_config):
        """Materialize the whole hub onto the dedup backend; every layer
        restores byte-identically and storage shrinks."""
        from repro.synth import materialize_registry

        backend = DedupBlobStore()
        registry, truth = materialize_registry(
            tiny_dataset, Registry(backend), fail_share=0.0, seed=tiny_config.seed
        )
        for digest in sorted(truth.layers)[:30]:
            assert sha256_bytes(registry.get_blob(digest)) == digest
        assert backend.savings() > 0.2  # gzip'd chunks + recipes vs gzip'd blobs
