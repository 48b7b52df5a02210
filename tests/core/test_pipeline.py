"""End-to-end pipeline integration tests.

The materialized pipeline is the repository's strongest correctness
statement: the crawl→download→extract→analyze path, run on real tarballs,
must land on exactly the population the generator planned.
"""

import numpy as np
import pytest

from repro.core.pipeline import run_columnar_pipeline, run_materialized_pipeline
from repro.synth import SyntheticHubConfig


@pytest.fixture(scope="module")
def pipeline_result():
    return run_materialized_pipeline(SyntheticHubConfig.tiny(seed=77))


class TestMaterializedPipeline:
    def test_crawl_finds_everything(self, pipeline_result):
        res = pipeline_result
        n_failed = len(res.truth.auth_repos) + len(res.truth.no_latest_repos)
        assert res.crawl.distinct_count == res.truth.n_images + n_failed
        assert res.crawl.duplicate_count > 0  # Hub index quirk exercised

    def test_download_failure_accounting_matches_truth(self, pipeline_result):
        res = pipeline_result
        stats = res.download_stats
        assert stats.succeeded == res.truth.n_images
        assert stats.failed_auth == len(res.truth.auth_repos)
        assert stats.failed_no_latest == len(res.truth.no_latest_repos)
        assert stats.failed_other == 0

    def test_unique_layers_downloaded_once(self, pipeline_result):
        res = pipeline_result
        assert res.download_stats.unique_layers_fetched == res.truth.n_unique_layers

    def test_analysis_matches_truth_exactly(self, pipeline_result):
        res = pipeline_result
        assert res.analysis.n_images == res.truth.n_images
        assert res.analysis.n_layers == res.truth.n_unique_layers
        for digest, expected in res.truth.layers.items():
            profile = res.analysis.store.layer(digest)
            assert profile.file_count == expected.file_count
            assert profile.files_size == expected.files_size

    def test_dataset_totals_consistent(self, pipeline_result):
        totals = pipeline_result.totals()
        stats = pipeline_result.download_stats
        assert totals.n_layers == stats.unique_layers_fetched
        assert totals.compressed_bytes == stats.layer_bytes_fetched

    def test_figures_computed(self, pipeline_result):
        assert len(pipeline_result.figures) == 27

    def test_fail_share_near_paper(self, pipeline_result):
        """§III-B: ~23.9 % of attempted downloads fail, split 13/87."""
        stats = pipeline_result.download_stats
        assert stats.failed / stats.attempted == pytest.approx(0.239, abs=0.07)
        assert stats.failed_no_latest > stats.failed_auth


class TestPipelineCache:
    def test_warm_run_skips_extraction(self, tmp_path):
        """Rerunning the pipeline over an unchanged corpus with the same
        cache directory must serve (at least) 90 % of layers from the
        profile cache — here it is all of them."""
        config = SyntheticHubConfig.tiny(seed=77)
        cache_dir = tmp_path / "profile-cache"

        cold = run_materialized_pipeline(
            config, compute_figures=False, cache_dir=cache_dir
        )
        stats = cold.analysis.cache_stats
        assert stats["hits"] == 0
        assert stats["stores"] == cold.analysis.n_layers

        warm = run_materialized_pipeline(
            config, compute_figures=False, cache_dir=cache_dir
        )
        wstats = warm.analysis.cache_stats
        assert wstats["hits"] / (wstats["hits"] + wstats["misses"]) >= 0.9
        assert wstats["misses"] == 0
        assert (
            warm.dataset.layer_fls.tolist() == cold.dataset.layer_fls.tolist()
        )
        assert (
            warm.dataset.file_sizes.tolist() == cold.dataset.file_sizes.tolist()
        )


class TestColumnarPipeline:
    def test_runs_at_small_scale(self):
        res = run_columnar_pipeline(SyntheticHubConfig.small(seed=5))
        assert len(res.figures) == 27
        assert res.totals().n_images == 300


class TestCrossRepresentationAgreement:
    """The materialized path and the columnar template must agree on the
    structural metrics that materialization preserves exactly."""

    def test_file_counts_agree(self, pipeline_result):
        from repro.synth import generate_dataset

        template = generate_dataset(SyntheticHubConfig.tiny(seed=77))
        measured = pipeline_result.dataset
        # same multiset of per-layer file counts (layer order may differ,
        # and content-identical layers may collapse under content addressing)
        t_counts = np.sort(template.layer_file_counts)
        m_counts = np.sort(measured.layer_file_counts)
        # every measured layer's count appears in the template
        assert set(m_counts.tolist()) <= set(t_counts.tolist())
        # images have identical layer-count distributions
        assert (
            np.sort(template.image_layer_counts).tolist()
            == np.sort(measured.image_layer_counts).tolist()
        )

    def test_occurrence_count_preserved_up_to_collapse(self, pipeline_result):
        from repro.synth import generate_dataset

        template = generate_dataset(SyntheticHubConfig.tiny(seed=77))
        measured = pipeline_result.dataset
        assert measured.n_file_occurrences <= template.n_file_occurrences
        assert measured.n_file_occurrences >= 0.9 * template.n_file_occurrences
