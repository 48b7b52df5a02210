"""Unit tests for both blob store backends."""

import os
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.registry.blobstore import DiskBlobStore, MemoryBlobStore
from repro.registry.errors import BlobNotFoundError, DigestMismatchError
from repro.util.digest import sha256_bytes


@pytest.fixture(params=["memory", "disk"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemoryBlobStore()
    return DiskBlobStore(tmp_path / "blobs")


class TestBlobStore:
    def test_put_get_roundtrip(self, store):
        digest = store.put(b"layer-bytes")
        assert digest == sha256_bytes(b"layer-bytes")
        assert store.get(digest) == b"layer-bytes"

    def test_put_idempotent(self, store):
        d1 = store.put(b"same")
        d2 = store.put(b"same")
        assert d1 == d2
        assert store.count() == 1

    def test_missing_blob_raises(self, store):
        with pytest.raises(BlobNotFoundError):
            store.get(sha256_bytes(b"nothing"))

    def test_has(self, store):
        digest = store.put(b"x")
        assert store.has(digest)
        assert not store.has(sha256_bytes(b"y"))

    def test_size_without_get(self, store):
        digest = store.put(b"12345")
        assert store.size(digest) == 5

    def test_size_missing_raises(self, store):
        with pytest.raises(BlobNotFoundError):
            store.size(sha256_bytes(b"nope"))

    def test_digests_enumeration(self, store):
        digests = {store.put(b"a"), store.put(b"b"), store.put(b"c")}
        assert set(store.digests()) == digests

    def test_totals(self, store):
        store.put(b"aa")
        store.put(b"bbb")
        assert store.total_bytes() == 5
        assert store.count() == 2

    def test_get_verified_ok(self, store):
        digest = store.put(b"fine")
        assert store.get_verified(digest) == b"fine"


class TestDiskSpecifics:
    def test_sharded_layout(self, tmp_path):
        store = DiskBlobStore(tmp_path / "blobs")
        digest = store.put(b"content")
        hexpart = digest.split(":")[1]
        assert (tmp_path / "blobs" / "sha256" / hexpart[:2] / hexpart).exists()

    def test_corruption_detected(self, tmp_path):
        store = DiskBlobStore(tmp_path / "blobs")
        digest = store.put(b"original")
        hexpart = digest.split(":")[1]
        (tmp_path / "blobs" / "sha256" / hexpart[:2] / hexpart).write_bytes(b"tampered")
        with pytest.raises(DigestMismatchError):
            store.get_verified(digest)

    def test_no_tmp_leftovers_listed(self, tmp_path):
        store = DiskBlobStore(tmp_path / "blobs")
        store.put(b"a")
        # a stray tmp file must not appear in enumeration
        stray = tmp_path / "blobs" / "sha256" / "zz"
        stray.mkdir(parents=True)
        (stray / "deadbeef.tmp").write_bytes(b"junk")
        assert all(not d.endswith(".tmp") for d in store.digests())

    @pytest.mark.parametrize("op", ["put", "put_at"])
    def test_two_writers_of_one_digest_do_not_share_a_temp_file(
        self, tmp_path, monkeypatch, op
    ):
        """Both writers have written their temp file before either renames:
        with one temp name per digest the second rename finds nothing."""
        store = DiskBlobStore(tmp_path / "blobs")
        data = b"layer bytes " * 4096
        digest = sha256_bytes(data)
        both_written = threading.Barrier(2, timeout=10)

        def held(real):
            def rename(src, dst, **kwargs):
                both_written.wait()
                return real(src, dst, **kwargs)

            return rename

        monkeypatch.setattr(os, "replace", held(os.replace))
        monkeypatch.setattr(os, "rename", held(os.rename))

        errors = []

        def write():
            try:
                if op == "put":
                    store.put(data)
                else:
                    store.put_at(digest, data)
            except Exception as exc:  # noqa: BLE001 — reported by the assert
                errors.append(exc)

        writers = [threading.Thread(target=write) for _ in range(2)]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=20)
        assert not any(writer.is_alive() for writer in writers)
        assert errors == []
        assert sha256_bytes(store.get(digest)) == digest
        assert list(store.digests()) == [digest]
        assert [p.name for p in store._path(digest).parent.iterdir()] == [
            digest.split(":")[1]
        ]

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        store = DiskBlobStore(tmp_path / "blobs")
        digest = sha256_bytes(b"content")

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            store.put(b"content")
        assert not store.has(digest)
        assert list(store._path(digest).parent.iterdir()) == []


@given(st.lists(st.binary(min_size=0, max_size=64), max_size=20))
def test_memory_store_content_addressing(blobs):
    store = MemoryBlobStore()
    digests = [store.put(b) for b in blobs]
    for blob, digest in zip(blobs, digests):
        assert store.get(digest) == blob
    assert store.count() == len(set(blobs))
