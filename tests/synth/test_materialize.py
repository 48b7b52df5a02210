"""Tests for dataset materialization into a real registry."""

import json
import tracemalloc
from dataclasses import replace

import pytest

from repro.registry.errors import AuthRequiredError, TagNotFoundError
from repro.synth import SyntheticHubConfig, generate_dataset, materialize_registry
from tests.golden import assert_identity


class TestMaterializedRegistry:
    def test_every_image_pushed(self, materialized, tiny_dataset):
        registry, truth = materialized
        assert truth.n_images == tiny_dataset.n_images
        for repo, digest in truth.images.items():
            manifest = registry.get_manifest(repo, "latest", token="t")
            assert manifest.digest() == digest

    def test_all_layer_blobs_stored(self, materialized):
        registry, truth = materialized
        for digest in truth.layers:
            assert registry.has_blob(digest)

    def test_blob_sizes_match_profiles(self, materialized):
        registry, truth = materialized
        for digest, layer in truth.layers.items():
            assert registry.blob_size(digest) == layer.compressed_size

    def test_manifest_refs_resolve(self, materialized):
        registry, truth = materialized
        repo = next(iter(truth.images))
        manifest = registry.get_manifest(repo, "latest")
        for ref in manifest.layers:
            assert ref.digest in truth.layers
            assert ref.size == truth.layers[ref.digest].compressed_size

    def test_pull_counts_transferred(self, materialized, tiny_dataset):
        registry, _ = materialized
        for i, name in enumerate(tiny_dataset.repo_names):
            assert registry.repository(name).pull_count == tiny_dataset.pull_counts[i]


    def test_identity_ledger_row(self, materialized, tiny_dataset):
        """Every layer digest in index order and every pushed repository
        equal the ledger's ``materialized_tiny`` row."""
        _, truth = materialized
        core = {
            "layer_digests": [
                truth.layer_digest_by_index[k] for k in range(tiny_dataset.n_layers)
            ],
            "images": truth.images,
            "auth_repos": truth.auth_repos,
            "no_latest_repos": truth.no_latest_repos,
        }
        assert_identity("materialized_tiny", json.dumps(core, sort_keys=True).encode())


class TestFailurePopulation:
    def test_failure_share(self, materialized, tiny_config):
        registry, truth = materialized
        n_failed = len(truth.auth_repos) + len(truth.no_latest_repos)
        attempted = truth.n_images + n_failed
        assert n_failed / attempted == pytest.approx(tiny_config.fail_share, abs=0.05)

    def test_auth_repos_fail_with_auth_error(self, materialized):
        registry, truth = materialized
        assert truth.auth_repos
        with pytest.raises(AuthRequiredError):
            registry.get_manifest(truth.auth_repos[0], "latest")

    def test_no_latest_repos_fail_with_tag_error(self, materialized):
        registry, truth = materialized
        assert truth.no_latest_repos
        with pytest.raises(TagNotFoundError):
            registry.get_manifest(truth.no_latest_repos[0], "latest")

    def test_no_latest_repos_have_other_tags(self, materialized):
        registry, truth = materialized
        repo = registry.repository(truth.no_latest_repos[0])
        assert repo.tags and "latest" not in repo.tags


class TestContentFidelity:
    def test_layer_content_matches_dataset_counts(self, materialized, tiny_dataset):
        """Materialized layer file counts equal the dataset's."""
        _, truth = materialized
        for k in range(tiny_dataset.n_layers):
            layer = truth.layers[truth.layer_digest_by_index[k]]
            assert layer.file_count == tiny_dataset.layer_file_counts[k]

    def test_same_file_id_same_digest_across_layers(self, materialized, tiny_dataset):
        """A unique file id materializes to identical content everywhere."""
        _, truth = materialized
        ds = tiny_dataset
        # find a file id occurring in two different layers
        from collections import defaultdict

        layers_of_file = defaultdict(set)
        for k in range(ds.n_layers):
            lo, hi = ds.layer_file_offsets[k], ds.layer_file_offsets[k + 1]
            for fid in ds.layer_file_ids[lo:hi]:
                layers_of_file[int(fid)].add(k)
        shared = [f for f, ls in layers_of_file.items() if len(ls) >= 2]
        assert shared, "tiny dataset should contain cross-layer duplicates"
        fid = shared[0]
        k1, k2 = sorted(layers_of_file[fid])[:2]
        digests1 = {e.digest for e in truth.layers[truth.layer_digest_by_index[k1]].entries}
        digests2 = {e.digest for e in truth.layers[truth.layer_digest_by_index[k2]].entries}
        assert digests1 & digests2, "shared file id must share a content digest"

    def test_distinct_empty_layers_have_distinct_digests(self, materialized, tiny_dataset):
        _, truth = materialized
        ds = tiny_dataset
        empty_ids = [k for k in range(ds.n_layers) if ds.layer_file_counts[k] == 0]
        digests = {truth.layer_digest_by_index[k] for k in empty_ids}
        assert len(digests) == len(empty_ids)


class TestMemoryBound:
    def test_peak_beyond_blobs_within_one_layer(self):
        """What a build allocates beyond the blobs the registry keeps stays
        within 1.5x the largest layer's file bytes: files are freed after
        their last layer and no raw archive is buffered (holding every file
        to the end and buffering the archive put this hub at 2.3x)."""
        dataset = generate_dataset(replace(SyntheticHubConfig.tiny(seed=3), n_images=15))
        already = tracemalloc.is_tracing()
        if not already:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            registry, truth = materialize_registry(dataset, fail_share=0.0, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not already:
                tracemalloc.stop()
        blobs = sum(registry.blob_size(digest) for digest in truth.layers)
        largest = max(layer.files_size for layer in truth.layers.values())
        assert peak - before - blobs <= 1.5 * largest
