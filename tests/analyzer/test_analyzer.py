"""Analyzer driver tests against a materialized registry."""

from dataclasses import fields

import numpy as np
import pytest

from repro.analyzer.analyzer import Analyzer
from repro.analyzer.cache import ProfileCache
from repro.analyzer.profiles import DirectoryRecord, FileRecord
from repro.downloader.downloader import Downloader
from repro.downloader.session import SimulatedSession
from repro.model.dataset import HubDataset
from repro.parallel.pool import ParallelConfig


@pytest.fixture(scope="module")
def analyzed(materialized):
    registry, truth = materialized
    downloader = Downloader(SimulatedSession(registry))
    images = downloader.download_all(sorted(truth.images))
    analyzer = Analyzer(downloader.dest)
    pulls = {r.name: r.pull_count for r in registry.repositories()}
    return truth, images, analyzer.analyze(images, pulls)


class TestAnalysis:
    def test_all_images_profiled(self, analyzed):
        truth, images, result = analyzed
        assert result.n_images == len(images) == truth.n_images

    def test_unique_layers_profiled_once(self, analyzed):
        truth, _, result = analyzed
        assert result.n_layers == truth.n_unique_layers

    def test_layer_profiles_match_ground_truth(self, analyzed):
        """Analyzer measurements equal what the materializer built."""
        truth, _, result = analyzed
        for digest, expected in truth.layers.items():
            profile = result.store.layer(digest)
            assert profile.file_count == expected.file_count
            assert profile.files_size == expected.files_size
            assert profile.compressed_size == expected.compressed_size
            assert profile.directory_count == expected.directory_count
            assert profile.max_depth == expected.max_directory_depth

    def test_file_digests_match_ground_truth(self, analyzed):
        truth, _, result = analyzed
        digest = next(d for d, l in truth.layers.items() if l.file_count > 2)
        expected = {(e.path, e.digest) for e in truth.layers[digest].entries}
        measured = {(r.path, r.digest) for r in result.store.layer(digest).files}
        assert measured == expected

    def test_type_codes_match_ground_truth(self, analyzed):
        """The analyzer's magic-number typing agrees with the materializer's
        producer-side classification (same classifier, independent paths)."""
        truth, _, result = analyzed
        mismatches = 0
        total = 0
        for digest, expected in truth.layers.items():
            measured = {r.path: r.type_code for r in result.store.layer(digest).files}
            for entry in expected.entries:
                total += 1
                if measured[entry.path] != entry.type_code:
                    mismatches += 1
        assert total > 0
        assert mismatches == 0

    def test_pull_counts_attached(self, analyzed, tiny_dataset):
        _, _, result = analyzed
        ds = result.dataset
        idx = ds.repo_names.index("nginx")
        assert ds.pull_counts[idx] == 650_000_000

    def test_dataset_validates(self, analyzed):
        _, _, result = analyzed
        result.dataset.validate()


class TestParallelConsistency:
    def _run(self, materialized, parallel, cache=None):
        registry, truth = materialized
        repos = sorted(truth.images)[:10]
        downloader = Downloader(SimulatedSession(registry), parallel=parallel)
        images = downloader.download_all(repos)
        return Analyzer(downloader.dest, parallel=parallel, cache=cache).analyze(
            images
        )

    def test_serial_and_threaded_agree(self, materialized):
        serial = self._run(materialized, ParallelConfig(mode="serial"))
        threaded = self._run(
            materialized,
            ParallelConfig(mode="thread", workers=4, min_parallel_items=0),
        )
        assert serial.n_layers == threaded.n_layers
        assert serial.dataset.layer_fls.tolist() == threaded.dataset.layer_fls.tolist()

    def test_process_mode_end_to_end(self, materialized):
        """Regression: profiling used to hand a closure to the pool, so
        ``mode="process"`` — the documented mode for CPU-bound extraction —
        died with PicklingError before analyzing a single layer. It must now
        run end to end and agree with serial byte for byte."""
        serial = self._run(materialized, ParallelConfig(mode="serial"))
        # the downloader warns that it coerces process->thread for itself;
        # the analyzer behind it must genuinely run the process pool
        with pytest.warns(RuntimeWarning, match="coerced"):
            process = self._run(
                materialized,
                ParallelConfig(
                    mode="process", workers=2, chunk_size=4, min_parallel_items=0
                ),
            )
        assert process.failed_layers == {}
        assert process.n_layers == serial.n_layers
        assert process.n_images == serial.n_images
        assert (
            process.dataset.layer_fls.tolist() == serial.dataset.layer_fls.tolist()
        )
        assert (
            process.dataset.file_sizes.tolist() == serial.dataset.file_sizes.tolist()
        )


class TestProfileCacheIntegration:
    def test_warm_run_skips_every_extraction(self, materialized, tmp_path):
        serial = ParallelConfig(mode="serial")
        cold = self._analyze(materialized, serial, ProfileCache(tmp_path))
        assert cold.cache_stats["hits"] == 0
        assert cold.cache_stats["stores"] == cold.n_layers

        warm = self._analyze(materialized, serial, ProfileCache(tmp_path))
        assert warm.cache_stats["misses"] == 0
        assert warm.cache_stats["hits"] == warm.n_layers
        assert warm.dataset.layer_fls.tolist() == cold.dataset.layer_fls.tolist()

    def test_warm_run_builds_no_records(self, materialized, tmp_path, monkeypatch):
        """The warm path decodes cache entries straight into the profile
        columns: not one FileRecord or DirectoryRecord is built."""
        serial = ParallelConfig(mode="serial")
        cold = self._analyze(materialized, serial, ProfileCache(tmp_path))

        def refuse(self, *args, **kwargs):
            raise AssertionError(f"{type(self).__name__} built on the warm path")

        monkeypatch.setattr(FileRecord, "__init__", refuse)
        monkeypatch.setattr(DirectoryRecord, "__init__", refuse)
        warm = self._analyze(materialized, serial, ProfileCache(tmp_path))
        assert warm.cache_stats["hits"] == warm.n_layers
        for f in fields(HubDataset):
            want, got = getattr(cold.dataset, f.name), getattr(warm.dataset, f.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype, f.name
                assert np.array_equal(got, want), f.name
            else:
                assert got == want, f.name

    def test_warm_process_run_agrees(self, materialized, tmp_path):
        process = ParallelConfig(
            mode="process", workers=2, chunk_size=4, min_parallel_items=0
        )
        cold = self._analyze(materialized, process, ProfileCache(tmp_path))
        warm = self._analyze(materialized, process, ProfileCache(tmp_path))
        assert warm.cache_stats["misses"] == 0
        assert warm.dataset.layer_fls.tolist() == cold.dataset.layer_fls.tolist()

    def test_corrupt_entry_reprofiled(self, materialized, tmp_path):
        from repro.faults import corrupt_at_rest

        cache = ProfileCache(tmp_path)
        cold = self._analyze(materialized, ParallelConfig(mode="serial"), cache)
        victim = cold.store.layers()[0].digest
        corrupt_at_rest(cache.store, cache.key(victim))

        warm_cache = ProfileCache(tmp_path)
        warm = self._analyze(
            materialized, ParallelConfig(mode="serial"), warm_cache
        )
        assert warm.cache_stats["discarded"] == 1
        assert warm.cache_stats["misses"] == 1  # only the victim re-extracts
        assert warm.cache_stats["stores"] == 1  # and its slot is rewritten
        assert warm.dataset.layer_fls.tolist() == cold.dataset.layer_fls.tolist()
        assert ProfileCache(tmp_path).get(victim) is not None

    def test_catalog_mismatch_rejected(self, materialized, tmp_path):
        registry, _ = materialized
        downloader = Downloader(SimulatedSession(registry))
        with pytest.raises(ValueError, match="catalog"):
            Analyzer(
                downloader.dest,
                cache=ProfileCache(tmp_path, catalog_version="stale"),
            )

    def _analyze(self, materialized, parallel, cache):
        registry, truth = materialized
        downloader = Downloader(SimulatedSession(registry))
        images = downloader.download_all(sorted(truth.images)[:10])
        analyzer = Analyzer(downloader.dest, parallel=parallel, cache=cache)
        return analyzer.analyze(images)
