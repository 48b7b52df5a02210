"""Round-trip tests for dataset and profile persistence."""

import numpy as np
import pytest

from repro.analyzer.profiles import (
    DirectoryRecord,
    FileRecord,
    ImageProfile,
    LayerProfile,
)
from repro.model.io import (
    iter_profiles_jsonl,
    load_dataset,
    load_profiles_jsonl,
    save_dataset,
    save_profiles_jsonl,
)
from repro.util.digest import format_digest, sha256_bytes
from tests.model.test_dataset import tiny_dataset


class TestDatasetNpz:
    def test_roundtrip_tiny(self, tmp_path):
        ds = tiny_dataset()
        path = tmp_path / "ds.npz"
        save_dataset(ds, path)
        again = load_dataset(path)
        for name in (
            "file_sizes", "file_types", "layer_file_offsets", "layer_file_ids",
            "layer_cls", "layer_dir_counts", "layer_max_depths",
            "image_layer_offsets", "image_layer_ids", "pull_counts",
        ):
            assert (getattr(ds, name) == getattr(again, name)).all(), name
        assert again.repo_names == ds.repo_names

    def test_roundtrip_synthetic(self, tmp_path, small_dataset):
        path = tmp_path / "ds.npz"
        save_dataset(small_dataset, path)
        again = load_dataset(path)
        assert again.totals() == small_dataset.totals()

    def test_derived_metrics_survive(self, tmp_path):
        ds = tiny_dataset()
        path = tmp_path / "ds.npz"
        save_dataset(ds, path)
        again = load_dataset(path)
        assert again.layer_fls.tolist() == ds.layer_fls.tolist()
        assert again.layer_ref_counts.tolist() == ds.layer_ref_counts.tolist()

    def test_version_check(self, tmp_path):
        path = tmp_path / "ds.npz"
        np.savez_compressed(path, format_version=np.asarray(99))
        with pytest.raises(ValueError, match="format v99"):
            load_dataset(path)


def make_layer() -> LayerProfile:
    return LayerProfile.from_records(
        digest=format_digest(7),
        compressed_size=120,
        files_size=300,
        file_count=2,
        directory_count=2,
        max_depth=2,
        files=[
            FileRecord(path="usr/a", digest=sha256_bytes(b"a"), size=100, type_code=0),
            FileRecord(path="usr/b/c", digest=sha256_bytes(b"c"), size=200, type_code=3),
        ],
        directories=[
            DirectoryRecord(path="usr", depth=1, file_count=1),
            DirectoryRecord(path="usr/b", depth=2, file_count=1),
        ],
    )


def make_image() -> ImageProfile:
    return ImageProfile(
        name="user/app", layer_digests=[format_digest(7)], compressed_size=120,
        pull_count=42,
    )


class TestProfileJsonl:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        save_profiles_jsonl(path, [make_layer()], [make_image()])
        layers, images = load_profiles_jsonl(path)
        assert layers == [make_layer()]
        assert images == [make_image()]

    def test_streaming_iteration(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        save_profiles_jsonl(path, [make_layer(), make_layer()], [make_image()])
        kinds = [type(r).__name__ for r in iter_profiles_jsonl(path)]
        assert kinds == ["LayerProfile", "LayerProfile", "ImageProfile"]

    def test_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        save_profiles_jsonl(path, [make_layer()], [])
        path.write_text(path.read_text() + "\n\n")
        layers, images = load_profiles_jsonl(path)
        assert len(layers) == 1

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "alien"}\n')
        with pytest.raises(ValueError, match="unknown record kind"):
            list(iter_profiles_jsonl(path))

    def test_analyzer_store_roundtrip(self, materialized):
        """Profiles from a real analysis survive serialization."""
        import io as _io

        from repro.analyzer.analyzer import Analyzer
        from repro.downloader.downloader import Downloader
        from repro.downloader.session import SimulatedSession

        registry, truth = materialized
        downloader = Downloader(SimulatedSession(registry))
        images = downloader.download_all(sorted(truth.images)[:5])
        result = Analyzer(downloader.dest).analyze(images)
        layers = result.store.layers()
        import tempfile, pathlib

        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "p.jsonl"
            save_profiles_jsonl(path, layers, result.store.images())
            loaded_layers, loaded_images = load_profiles_jsonl(path)
        assert loaded_layers == layers
        assert loaded_images == result.store.images()
