"""Unit tests for the ablation experiments."""

import numpy as np
import pytest

from repro.core.ablation import (
    popularity_cache,
    pull_latency_model,
    uncompressed_small_layers,
)
from repro.downloader.session import NetworkModel


class TestLatencyModel:
    def test_compressed_pays_decompression(self):
        network = NetworkModel(request_overhead_s=0.0, bandwidth_bytes_per_s=1e6)
        cls = np.array([1e6])
        fls = np.array([3e6])
        compressed = pull_latency_model(cls, fls, np.array([False]), network)
        uncompressed = pull_latency_model(cls, fls, np.array([True]), network)
        # compressed: 1s transfer + 3e6/60e6 decompress; uncompressed: 3s transfer
        assert compressed[0] == pytest.approx(1.0 + 3e6 / 60e6)
        assert uncompressed[0] == pytest.approx(3.0)


class TestA1:
    def test_threshold_zero_keeps_everything_compressed(self, small_dataset):
        points = uncompressed_small_layers(small_dataset, thresholds=[0])
        assert points[0].layers_uncompressed_fraction == 0.0
        assert points[0].registry_blowup == pytest.approx(1.0)

    def test_storage_grows_with_threshold(self, small_dataset):
        points = uncompressed_small_layers(small_dataset)
        blowups = [p.registry_blowup for p in points]
        assert blowups == sorted(blowups)
        assert blowups[-1] > 1.0

    def test_small_layer_latency_improves(self, small_dataset):
        """Storing small layers uncompressed must reduce mean pull latency
        under a decompression-dominated cost model — the paper's claim."""
        slow_decompress = NetworkModel(
            request_overhead_s=0.08, bandwidth_bytes_per_s=100e6
        )
        points = uncompressed_small_layers(
            small_dataset, thresholds=[0, 4_000_000], network=slow_decompress
        )
        assert points[1].mean_pull_latency_s < points[0].mean_pull_latency_s

    def test_fast_link_threshold_costs_little_storage(self, small_dataset):
        """On a 250 MB/s link a 4 MB threshold beats all-compressed on mean
        pull latency and costs under 1.5x the compressed storage."""
        points = uncompressed_small_layers(
            small_dataset, thresholds=[0, 4_000_000],
            network=NetworkModel(bandwidth_bytes_per_s=250e6),
        )
        assert points[1].mean_pull_latency_s < points[0].mean_pull_latency_s
        assert points[1].registry_blowup < 1.5


class TestA2:
    def test_hit_ratio_monotone(self, small_dataset):
        points = popularity_cache(small_dataset)
        ratios = [p.hit_ratio for p in points]
        assert ratios == sorted(ratios)
        assert 0 < ratios[0] <= ratios[-1] <= 1.0

    def test_skew_means_small_cache_wins(self, small_dataset):
        """Fig. 8's skew: caching ~1 % of repos captures most pulls."""
        points = popularity_cache(small_dataset, cache_fractions=[0.01])
        assert points[0].hit_ratio > 0.5

    def test_validation(self, small_dataset):
        with pytest.raises(ValueError):
            popularity_cache(small_dataset, cache_fractions=[0.0])

    def test_no_pulls_rejected(self, small_dataset):
        # build a pull-less dataset view
        from repro.model.dataset import HubDataset

        ds = HubDataset(
            file_sizes=small_dataset.file_sizes,
            file_types=small_dataset.file_types,
            layer_file_offsets=small_dataset.layer_file_offsets,
            layer_file_ids=small_dataset.layer_file_ids,
            layer_cls=small_dataset.layer_cls,
            layer_dir_counts=small_dataset.layer_dir_counts,
            layer_max_depths=small_dataset.layer_max_depths,
            image_layer_offsets=small_dataset.image_layer_offsets,
            image_layer_ids=small_dataset.image_layer_ids,
        )
        with pytest.raises(ValueError):
            popularity_cache(ds)
