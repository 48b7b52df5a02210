"""Streaming columnar analysis: byte-for-byte equivalence and merge algebra."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.colstream import (
    _dense_type_sums,
    finalize_report,
    merge_partials,
    partial_from_chunk,
    report_from_chunks,
    report_from_dataset,
    streaming_report,
)
from repro.parallel.pool import ParallelConfig
from repro.synth import SyntheticHubConfig, generate_dataset
from repro.synth.streamgen import (
    chunks_from_dataset,
    iter_dataset_chunks,
    open_chunk_store,
    spill_chunks,
)
from tests.golden import assert_identity


# -- the oracle: the sort + ``reduceat`` type sums, verbatim -------------------------


def reference_dense_type_sums(
    occ_types: np.ndarray, occ_sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    if occ_types.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    order = np.argsort(occ_types, kind="stable")
    sorted_types = occ_types[order]
    starts = np.concatenate(
        [[0], np.flatnonzero(np.diff(sorted_types)) + 1]
    ).astype(np.int64)
    codes = sorted_types[starts].astype(np.int64)
    run_bytes = np.add.reduceat(occ_sizes[order], starts)
    run_counts = np.diff(np.concatenate([starts, [sorted_types.size]]))
    n_codes = int(codes[-1]) + 1
    counts = np.zeros(n_codes, dtype=np.int64)
    nbytes = np.zeros(n_codes, dtype=np.int64)
    counts[codes] = run_counts
    nbytes[codes] = run_bytes
    return counts, nbytes


class TestDenseTypeSums:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        data=st.data(),
        # a few codes drawn from a wide range: gaps between them, as with rare types
        codes=st.lists(st.integers(0, 5_000), min_size=1, max_size=8),
    )
    def test_matches_the_sort_oracle(self, data, codes):
        n = data.draw(st.integers(1, 150))
        types = np.array(
            data.draw(st.lists(st.sampled_from(codes), min_size=n, max_size=n)),
            dtype=np.int32,
        )
        sizes = np.array(
            data.draw(st.lists(st.integers(0, 1 << 52), min_size=n, max_size=n)),
            dtype=np.int64,
        )
        got = _dense_type_sums(types, sizes)
        want = reference_dense_type_sums(types, sizes)
        for g, w in zip(got, want):
            assert g.dtype == np.int64
            assert np.array_equal(g, w)

    def test_empty_input(self):
        empty = np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.int64)
        for g, w in zip(_dense_type_sums(*empty), reference_dense_type_sums(*empty)):
            assert g.dtype == np.int64 and g.size == w.size == 0

    def test_negative_code_raises(self):
        types = np.array([0, -1, 2], dtype=np.int32)
        with pytest.raises(ValueError):
            _dense_type_sums(types, np.array([1, 2, 3], dtype=np.int64))


@pytest.fixture(scope="module")
def small_dataset():
    return generate_dataset(SyntheticHubConfig.small(seed=11))


class TestEquivalence:
    @pytest.mark.parametrize("seed", [2017, 11])
    @pytest.mark.parametrize("preset", ["tiny", "small"])
    def test_streaming_equals_in_memory(self, seed, preset):
        """The acceptance bar: chunked == monolithic, byte for byte."""
        config = getattr(SyntheticHubConfig, preset)(seed=seed)
        dataset = generate_dataset(config)
        reference = report_from_dataset(dataset).to_json()
        streamed = report_from_chunks(
            iter_dataset_chunks(config, chunk_occurrences=10_000)
        ).to_json()
        assert streamed == reference

    def test_identity_ledger_rows(self):
        """The ledger's whole and 2 000-occurrence-chunked reports: equal to
        each other and to the recorded hash."""
        dataset = generate_dataset(
            replace(SyntheticHubConfig.tiny(seed=7), n_images=120, n_rare_types=40)
        )
        assert_identity("columnar_in_memory", report_from_dataset(dataset).to_json().encode())
        chunked = report_from_chunks(chunks_from_dataset(dataset, chunk_occurrences=2_000))
        assert_identity("columnar_chunked", chunked.to_json().encode())

    def test_chunk_size_invariance(self, small_dataset):
        reference = report_from_dataset(small_dataset).to_json()
        for budget in (3_000, 50_000, 10**9):
            got = report_from_chunks(
                chunks_from_dataset(small_dataset, chunk_occurrences=budget)
            ).to_json()
            assert got == reference, f"report changed at chunk budget {budget}"

    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_parallel_modes_byte_identical(self, mode, small_dataset, tmp_path):
        reference = report_from_dataset(small_dataset).to_json()
        spill_chunks(
            chunks_from_dataset(small_dataset, chunk_occurrences=40_000), tmp_path
        )
        specs = open_chunk_store(tmp_path)
        assert len(specs) > 1
        report = streaming_report(
            specs,
            parallel=ParallelConfig(mode=mode, workers=4, min_parallel_items=0),
        )
        assert report.to_json() == reference

    def test_merge_order_independent(self, small_dataset):
        partials = [
            partial_from_chunk(c)
            for c in chunks_from_dataset(small_dataset, chunk_occurrences=30_000)
        ]
        forward = finalize_report(merge_partials(partials)).to_json()
        backward = finalize_report(merge_partials(partials[::-1])).to_json()
        assert forward == backward


class TestReportContents:
    def test_report_matches_dataset_totals(self, small_dataset):
        doc = report_from_dataset(small_dataset).doc
        totals = doc["totals"]
        assert totals["layers"] == small_dataset.n_layers
        assert totals["occurrences"] == small_dataset.n_file_occurrences
        assert totals["fls_bytes"] == int(small_dataset.occurrence_sizes.sum())
        assert totals["cls_bytes"] == int(small_dataset.layer_cls.sum())
        used = small_dataset.file_repeat_counts > 0
        assert totals["unique_files"] == int(used.sum())
        assert totals["unique_file_bytes"] == int(
            small_dataset.file_sizes[used].sum()
        )

    def test_dedup_section_matches_engine(self, small_dataset):
        from repro.dedup import file_dedup_report

        doc = report_from_dataset(small_dataset).doc
        engine = file_dedup_report(small_dataset)
        assert doc["dedup"]["unique_files"] == engine.n_unique
        assert doc["dedup"]["count_ratio"] == pytest.approx(engine.count_ratio)
        assert doc["dedup"]["capacity_ratio"] == pytest.approx(
            engine.capacity_ratio
        )

    def test_sharing_section_matches_engine(self, small_dataset):
        from repro.dedup import layer_sharing_report

        doc = report_from_dataset(small_dataset).doc
        engine = layer_sharing_report(small_dataset)
        assert doc["sharing"]["single_ref_fraction"] == pytest.approx(
            engine.single_ref_fraction
        )
        assert doc["sharing"]["max_refs"] == engine.ref_cdf.max
        assert doc["sharing"]["sharing_ratio"] == pytest.approx(
            engine.sharing_ratio
        )

    def test_histogram_totals_conserve(self, small_dataset):
        doc = report_from_dataset(small_dataset).doc
        occ = doc["histograms"]["occurrence_size"]
        seen = sum(occ["counts"]) + occ["underflow"] + occ["overflow"]
        assert seen == small_dataset.n_file_occurrences
        layers = doc["histograms"]["layer_file_count"]
        assert (
            sum(layers["counts"]) + layers["underflow"] + layers["overflow"]
            == small_dataset.n_layers
        )

    def test_group_rows_sorted_and_labeled(self, small_dataset):
        rows = report_from_dataset(small_dataset).doc["groups"]
        counts = [row["count"] for row in rows]
        assert counts == sorted(counts, reverse=True)
        assert all(row["label"].islower() for row in rows)

    def test_render_mentions_headlines(self, small_dataset):
        text = report_from_dataset(small_dataset).render()
        assert "file dedup" in text
        assert "layer sharing" in text


class TestFailureModes:
    def test_no_chunks_raises(self):
        with pytest.raises(ValueError):
            report_from_chunks(iter(()))
        with pytest.raises(ValueError):
            streaming_report([])

    def test_failed_shard_aborts(self, small_dataset, tmp_path):
        spill_chunks(
            chunks_from_dataset(small_dataset, chunk_occurrences=40_000), tmp_path
        )
        specs = open_chunk_store(tmp_path)
        import os

        os.unlink(specs[1].path)
        with pytest.raises(RuntimeError, match="failed to analyze"):
            streaming_report(specs)

    def test_merge_nothing_raises(self):
        with pytest.raises(ValueError):
            merge_partials([])


class TestEmptyLayerEdge:
    def test_all_empty_layers_chunk(self):
        """A chunk of only empty layers (refs but no files) still folds in."""
        config = SyntheticHubConfig.tiny(seed=4)
        chunks = list(iter_dataset_chunks(config, chunk_occurrences=10**9))
        chunk = chunks[0]
        empty = np.flatnonzero(np.diff(chunk.file_offsets) == 0)
        assert empty.size > 0  # layer 0 at minimum
        partial = partial_from_chunk(chunk)
        assert partial.n_empty_layers == empty.size
