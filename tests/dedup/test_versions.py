"""Multi-tag (version) pipeline tests: materialize versions, download every
tag, analyze cross-version sharing."""

import json

import pytest

from repro.analyzer.analyzer import Analyzer
from repro.dedup.versions import analyze_versions
from repro.downloader.downloader import Downloader
from repro.downloader.session import SimulatedSession
from repro.synth import SyntheticHubConfig, generate_dataset, materialize_registry
from tests.golden import assert_identity


@pytest.fixture(scope="module")
def versioned():
    config = SyntheticHubConfig.tiny(seed=31)
    dataset = generate_dataset(config)
    registry, truth = materialize_registry(
        dataset, fail_share=0.0, version_share=0.5, max_versions=3, seed=31
    )
    return dataset, registry, truth


@pytest.fixture(scope="module")
def analyzed_versions(versioned):
    _, registry, truth = versioned
    downloader = Downloader(SimulatedSession(registry))
    images = downloader.download_all_versions(sorted(truth.images))
    result = Analyzer(downloader.dest).analyze(images)
    return truth, images, result


class TestMaterializedVersions:
    def test_version_tags_created(self, versioned):
        _, registry, truth = versioned
        assert truth.version_tags, "version_share=0.5 must create some versions"
        for repo, tags in truth.version_tags.items():
            listed = registry.list_tags(repo)
            assert "latest" in listed
            for tag in tags:
                assert tag in listed

    def test_versions_share_base_layers(self, versioned):
        _, registry, truth = versioned
        repo = next(iter(truth.version_tags))
        latest = registry.get_manifest(repo, "latest")
        v1 = registry.get_manifest(repo, sorted(truth.version_tags[repo])[0])
        shared = set(latest.layer_digests) & set(v1.layer_digests)
        assert shared, "an older version must reuse base layers"

    def test_versions_differ_from_latest(self, versioned):
        _, registry, truth = versioned
        diffs = 0
        for repo, tags in truth.version_tags.items():
            latest = set(registry.get_manifest(repo, "latest").layer_digests)
            for tag in tags:
                if set(registry.get_manifest(repo, tag).layer_digests) != latest:
                    diffs += 1
        assert diffs > 0, "older builds must not all be identical to latest"


    def test_identity_ledger_row(self, versioned):
        """The latest layers in index order, every blob pushed (older builds
        included) and every version tag equal the ledger's
        ``materialized_versions`` row."""
        dataset, _, truth = versioned
        core = {
            "layer_digests": [
                truth.layer_digest_by_index[k] for k in range(dataset.n_layers)
            ],
            "all_layers": sorted(truth.layers),
            "version_tags": truth.version_tags,
        }
        assert_identity(
            "materialized_versions", json.dumps(core, sort_keys=True).encode()
        )


class TestAllTagsDownload:
    def test_downloads_every_tag(self, analyzed_versions, versioned):
        truth, images, _ = analyzed_versions
        expected = len(truth.images) + sum(len(t) for t in truth.version_tags.values())
        assert len(images) == expected
        tags = {(img.repository, img.tag) for img in images}
        for repo, version_tags in truth.version_tags.items():
            assert (repo, "latest") in tags
            for tag in version_tags:
                assert (repo, tag) in tags

    def test_shared_layers_fetched_once(self, analyzed_versions):
        truth, _, result = analyzed_versions
        # every profiled layer digest is distinct; duplicates were cache hits
        assert result.n_layers == len(truth.layers)


class TestVersionAnalysis:
    def test_summary_shape(self, analyzed_versions):
        truth, images, result = analyzed_versions
        analysis = analyze_versions(images, result.store)
        assert analysis.n_repositories == len(truth.version_tags)
        assert analysis.n_version_pairs >= analysis.n_repositories

    def test_high_cross_version_sharing(self, analyzed_versions):
        """Adjacent versions share most layers (only the top layer churns)."""
        _, images, result = analyzed_versions
        analysis = analyze_versions(images, result.store)
        assert analysis.pair_jaccard_cdf is not None
        assert analysis.pair_jaccard_cdf.median() > 0.4

    def test_history_is_cheap_with_sharing(self, analyzed_versions):
        _, images, result = analyzed_versions
        analysis = analyze_versions(images, result.store)
        # layer sharing keeps full-history storage well under (1 + #versions)x
        assert 1.0 <= analysis.history_overhead < 2.0

    def test_file_dedup_absorbs_version_churn(self, analyzed_versions):
        """Version-to-version file dedup saves at least as much as the
        population-wide ratio — churned layers are near-duplicates."""
        _, images, result = analyzed_versions
        analysis = analyze_versions(images, result.store)
        assert analysis.file_dedup_savings > 0.5

    def test_latest_only_analysis_degenerates(self, analyzed_versions):
        _, images, result = analyzed_versions
        latest_only = [img for img in images if img.tag == "latest"]
        analysis = analyze_versions(latest_only, result.store)
        assert analysis.n_repositories == 0
        assert analysis.n_version_pairs == 0
        assert analysis.history_overhead == pytest.approx(1.0)
