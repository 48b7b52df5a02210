"""Unit tests for ProfileStore and its dataset conversion."""

import pytest

from repro.analyzer.profiles import FileRecord, ImageProfile, LayerProfile, ProfileStore
from repro.util.digest import format_digest, sha256_bytes


def _file(content: bytes, path: str = "f", type_code: int = 0) -> FileRecord:
    return FileRecord(
        path=path, digest=sha256_bytes(content), size=len(content), type_code=type_code
    )


def _layer(i: int, files: list[FileRecord], cls: int = 100) -> LayerProfile:
    return LayerProfile.from_records(
        digest=format_digest(i),
        compressed_size=cls,
        files_size=sum(f.size for f in files),
        file_count=len(files),
        directory_count=2,
        max_depth=1,
        files=files,
    )


class TestStore:
    def test_duplicate_layer_rejected_gracefully(self):
        store = ProfileStore()
        layer = _layer(1, [_file(b"a")])
        assert store.add_layer(layer)
        assert not store.add_layer(layer)
        assert store.n_layers == 1

    def test_image_requires_profiled_layers(self):
        store = ProfileStore()
        with pytest.raises(KeyError):
            store.add_image(
                ImageProfile(name="x", layer_digests=[format_digest(9)], compressed_size=1)
            )

    def test_accessors(self):
        store = ProfileStore()
        layer = _layer(1, [_file(b"a")])
        store.add_layer(layer)
        assert store.has_layer(layer.digest)
        assert store.layer(layer.digest) is layer
        assert store.layers() == [layer]


class TestToDataset:
    def test_file_dedup_by_content_digest(self):
        store = ProfileStore()
        shared = _file(b"shared-content", "lib/a")
        store.add_layer(_layer(1, [shared, _file(b"one", "x")]))
        store.add_layer(_layer(2, [shared, _file(b"two", "y")]))
        ds = store.to_dataset()
        assert ds.n_files == 3  # shared file counted once
        assert ds.n_file_occurrences == 4
        assert sorted(ds.file_repeat_counts.tolist()) == [1, 1, 2]

    def test_layer_metrics_transfer(self):
        store = ProfileStore()
        store.add_layer(_layer(1, [_file(b"abcd")], cls=40))
        ds = store.to_dataset()
        assert ds.layer_cls[0] == 40
        assert ds.layer_fls[0] == 4
        assert ds.layer_dir_counts[0] == 2
        assert ds.layer_max_depths[0] == 1

    def test_image_references(self):
        store = ProfileStore()
        l1 = _layer(1, [_file(b"a")])
        l2 = _layer(2, [_file(b"b")])
        store.add_layer(l1)
        store.add_layer(l2)
        store.add_image(
            ImageProfile(
                name="u/app",
                layer_digests=[l1.digest, l2.digest],
                compressed_size=200,
                pull_count=12,
            )
        )
        ds = store.to_dataset()
        assert ds.n_images == 1
        assert ds.image_layer_counts.tolist() == [2]
        assert ds.repo_names == ["u/app"]
        assert ds.pull_counts.tolist() == [12]

    def test_shared_layers_shared_ids(self):
        store = ProfileStore()
        base = _layer(1, [_file(b"base")])
        own = _layer(2, [_file(b"own")])
        store.add_layer(base)
        store.add_layer(own)
        for name in ("u/a", "u/b"):
            store.add_image(
                ImageProfile(
                    name=name, layer_digests=[base.digest], compressed_size=100
                )
            )
        store.add_image(
            ImageProfile(name="u/c", layer_digests=[own.digest], compressed_size=100)
        )
        ds = store.to_dataset()
        assert ds.layer_ref_counts.tolist() == [2, 1]

    def test_empty_store_dataset(self):
        ds = ProfileStore().to_dataset()
        assert ds.n_layers == 0
        assert ds.n_images == 0
