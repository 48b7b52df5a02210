"""Mergeable file-dedup partials: exactness against the in-memory engine.

The sort-free factorize and merge are checked against the sort-based
kernels they replaced, kept here verbatim as the oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dedup import FileDedupState, file_dedup_report, merge_dedup_states
from repro.dedup.streaming import DENSE_SPAN_FACTOR
from repro.synth import SyntheticHubConfig, generate_dataset

#: the file-id offset of the k-th hub in a many-hub chunk store (k = 3)
LARGE_LO = 3 << 40


# -- the oracle: the sort-based kernels, verbatim ----------------------------------


def reference_from_occurrences(file_ids: np.ndarray, occ_sizes: np.ndarray) -> FileDedupState:
    if file_ids.size == 0:
        return FileDedupState.empty()
    unique_ids, first, counts = np.unique(
        file_ids, return_index=True, return_counts=True
    )
    return FileDedupState(
        unique_ids=unique_ids.astype(np.int64),
        counts=counts.astype(np.int64),
        sizes=occ_sizes[first].astype(np.int64),
        n_occurrences=int(file_ids.size),
        total_bytes=int(occ_sizes.sum()),
    )


def reference_merge(a: FileDedupState, b: FileDedupState) -> FileDedupState:
    if b.n_unique == 0:
        merged = a
    elif a.n_unique == 0:
        merged = b
    else:
        ids = np.concatenate([a.unique_ids, b.unique_ids])
        counts = np.concatenate([a.counts, b.counts])
        sizes = np.concatenate([a.sizes, b.sizes])
        unique_ids, first, inverse = np.unique(
            ids, return_index=True, return_inverse=True
        )
        summed = np.zeros(unique_ids.size, dtype=np.int64)
        np.add.at(summed, inverse, counts)
        return FileDedupState(
            unique_ids=unique_ids,
            counts=summed,
            sizes=sizes[first],
            n_occurrences=a.n_occurrences + b.n_occurrences,
            total_bytes=a.total_bytes + b.total_bytes,
        )
    return FileDedupState(
        unique_ids=merged.unique_ids,
        counts=merged.counts,
        sizes=merged.sizes,
        n_occurrences=a.n_occurrences + b.n_occurrences,
        total_bytes=a.total_bytes + b.total_bytes,
    )


def assert_same_state(got: FileDedupState, want: FileDedupState) -> None:
    for name in ("unique_ids", "counts", "sizes"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == np.int64, name
        assert np.array_equal(g, w), name
    assert (got.n_occurrences, got.total_bytes) == (want.n_occurrences, want.total_bytes)


def columns(ids: list[int], sizes: list[int], lo: int = 0) -> tuple[np.ndarray, np.ndarray]:
    return np.array(ids, dtype=np.int64) + lo, np.array(sizes, dtype=np.int64)


@pytest.fixture
def unique_calls(monkeypatch):
    """Counts ``np.unique`` calls: 0 after a factorize means the dense path ran."""
    calls = []
    real = np.unique

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    return calls


@st.composite
def occurrence_columns(draw, max_span: int):
    """Ids within ``[lo, lo + max_span)`` and a size per occurrence."""
    n = draw(st.integers(1, 120))
    ids = draw(st.lists(st.integers(0, max_span - 1), min_size=n, max_size=n))
    sizes = draw(st.lists(st.integers(0, 1 << 40), min_size=n, max_size=n))
    lo = draw(st.sampled_from([0, 1, 977, LARGE_LO]))
    return columns(ids, sizes, lo)


@st.composite
def dedup_states(draw, ids=st.sets(st.integers(0, 400), max_size=60)):
    """A sorted, unique state with positive counts and arbitrary sizes."""
    unique = np.array(sorted(draw(ids)), dtype=np.int64)
    counts = draw(st.lists(st.integers(1, 50), min_size=unique.size, max_size=unique.size))
    sizes = draw(st.lists(st.integers(0, 1 << 40), min_size=unique.size, max_size=unique.size))
    return state_of(unique, counts, sizes)


def state_of(unique, counts, sizes) -> FileDedupState:
    counts = np.array(counts, dtype=np.int64)
    sizes = np.array(sizes, dtype=np.int64)
    return FileDedupState(
        unique_ids=np.asarray(unique, dtype=np.int64),
        counts=counts,
        sizes=sizes,
        n_occurrences=int(counts.sum()),
        total_bytes=int((counts * sizes).sum()),
    )


class TestFactorizeAgainstOracle:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(cols=occurrence_columns(max_span=60))
    def test_dense_ids(self, cols):
        ids, sizes = cols
        assert_same_state(
            FileDedupState.from_occurrences(ids, sizes), reference_from_occurrences(ids, sizes)
        )

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(cols=occurrence_columns(max_span=1 << 30))
    def test_sparse_ids(self, cols):
        ids, sizes = cols
        assert_same_state(
            FileDedupState.from_occurrences(ids, sizes), reference_from_occurrences(ids, sizes)
        )

    @pytest.mark.parametrize("lo", [0, LARGE_LO])
    @pytest.mark.parametrize("past_bound", [0, 1])
    def test_span_at_the_bound_and_one_past(self, lo, past_bound, unique_calls):
        n = 6
        span = DENSE_SPAN_FACTOR * n + past_bound
        ids, sizes = columns([0, span - 1, 4, 0, span - 1, 4], [1, 2, 3, 4, 5, 6], lo)
        want = reference_from_occurrences(ids, sizes)
        unique_calls.clear()
        assert_same_state(FileDedupState.from_occurrences(ids, sizes), want)
        assert len(unique_calls) == past_bound  # the sort runs only past the bound

    @pytest.mark.parametrize("lo", [0, 5, LARGE_LO])
    def test_single_occurrence(self, lo):
        ids, sizes = columns([0], [42], lo)
        state = FileDedupState.from_occurrences(ids, sizes)
        assert_same_state(state, reference_from_occurrences(ids, sizes))
        assert state.unique_ids.tolist() == [lo]

    @pytest.mark.parametrize("gap", [2, 10**6])  # dense, then sparse
    def test_first_sighting_size_wins(self, gap, unique_calls):
        ids, sizes = columns([7, 7 + gap, 7, 7 + gap, 7], [10, 5, 99, 6, 98], LARGE_LO)
        unique_calls.clear()
        state = FileDedupState.from_occurrences(ids, sizes)
        assert len(unique_calls) == (gap > 2)
        assert state.sizes.tolist() == [10, 5]
        assert state.counts.tolist() == [3, 2]


LEFT = state_of([10, 20, 30, 40], [1, 2, 3, 4], [100, 200, 300, 400])

#: the right operand of every named layout, against ``LEFT``
LAYOUTS = {
    "disjoint": state_of([11, 25, 50], [5, 6, 7], [1, 2, 3]),
    "identical": state_of([10, 20, 30, 40], [5, 6, 7, 8], [9, 9, 9, 9]),
    "interleaved": state_of([5, 20, 35, 40, 45], [1, 1, 1, 1, 1], [7, 7, 7, 7, 7]),
    "empty": FileDedupState.empty(),
    "all_below": state_of([1, 2, 3], [1, 2, 3], [4, 5, 6]),
    "all_above": state_of([41, 99, LARGE_LO], [1, 2, 3], [4, 5, 6]),
}


class TestMergeAgainstOracle:
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_named_layouts_both_ways(self, layout):
        other = LAYOUTS[layout]
        assert_same_state(LEFT.merge(other), reference_merge(LEFT, other))
        assert_same_state(other.merge(LEFT), reference_merge(other, LEFT))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(a=dedup_states(), b=dedup_states())
    def test_random_sorted_states(self, a, b):
        assert_same_state(a.merge(b), reference_merge(a, b))

    def test_shared_id_keeps_the_left_size(self):
        a = state_of([1, 2], [1, 1], [10, 20])
        b = state_of([2, 3], [4, 1], [99, 30])
        merged = a.merge(b)
        assert merged.sizes.tolist() == [10, 20, 30]
        assert merged.counts.tolist() == [1, 5, 1]

    def test_operands_are_not_modified(self):
        a = state_of([1, 2], [1, 1], [10, 20])
        a.merge(state_of([2], [4], [20]))
        assert a.counts.tolist() == [1, 1]


def _whole_state(dataset) -> FileDedupState:
    return FileDedupState.from_occurrences(
        dataset.layer_file_ids, dataset.occurrence_sizes
    )


class TestMergeAlgebra:
    def test_split_merge_equals_whole(self):
        rng = np.random.default_rng(3)
        ids = rng.integers(0, 50, size=4_000).astype(np.int64)
        sizes = (ids * 7 % 13).astype(np.int64)  # size is a function of id
        whole = FileDedupState.from_occurrences(ids, sizes)
        for n_parts in (2, 7, 40):
            bounds = np.linspace(0, ids.size, n_parts + 1).astype(int)
            parts = [
                FileDedupState.from_occurrences(
                    ids[a:b], sizes[a:b]
                )
                for a, b in zip(bounds, bounds[1:])
            ]
            merged = merge_dedup_states(parts)
            assert np.array_equal(merged.unique_ids, whole.unique_ids)
            assert np.array_equal(merged.counts, whole.counts)
            assert np.array_equal(merged.sizes, whole.sizes)
            assert merged.summary() == whole.summary()

    def test_empty_is_identity(self):
        ids = np.array([3, 3, 5], dtype=np.int64)
        sizes = np.array([10, 10, 0], dtype=np.int64)
        state = FileDedupState.from_occurrences(ids, sizes)
        merged = FileDedupState.empty().merge(state)
        assert np.array_equal(merged.unique_ids, state.unique_ids)
        assert merged.n_occurrences == state.n_occurrences
        assert merge_dedup_states([]).n_unique == 0

    def test_summary_requires_observations(self):
        with pytest.raises(ValueError):
            FileDedupState.empty().summary()


class TestAgainstEngine:
    def test_matches_in_memory_report(self):
        dataset = generate_dataset(SyntheticHubConfig.tiny(seed=2017))
        state = _whole_state(dataset)
        report = file_dedup_report(dataset)
        summary = state.summary()
        assert summary["occurrences"] == report.n_occurrences
        assert summary["unique_files"] == report.n_unique
        assert summary["unique_bytes"] == report.unique_bytes
        assert summary["count_ratio"] == pytest.approx(report.count_ratio)
        assert summary["capacity_ratio"] == pytest.approx(report.capacity_ratio)
        assert summary["median_copies"] == report.repeat_cdf.median()
        assert summary["p90_copies"] == report.repeat_cdf.percentile(90)
        assert summary["max_repeat"] == report.max_repeat
        assert summary["max_repeat_is_empty"] == report.max_repeat_is_empty

    def test_chunked_matches_in_memory_report(self):
        dataset = generate_dataset(SyntheticHubConfig.tiny(seed=9))
        ids = dataset.layer_file_ids
        sizes = dataset.occurrence_sizes
        thirds = np.array_split(np.arange(ids.size), 3)
        merged = merge_dedup_states(
            [FileDedupState.from_occurrences(ids[i], sizes[i]) for i in thirds]
        )
        assert merged.summary() == _whole_state(dataset).summary()
