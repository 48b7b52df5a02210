"""Benchmarks for the streaming columnar engine and the vectorized analyzer.

Two stories:

* ``TestColumnarEngine`` — §IV/§V statistics over the bench dataset via the
  in-memory single-partial path and via bounded chunks, printing files/sec
  and checking the reports agree byte for byte.
* ``TestAnalyzerVectorization`` — the before/after cell for the
  ``ProfileStore.to_dataset`` / ``extract_insights`` work: the naive
  per-record Counter walk against the shipped vectorized
  ``extract_insights`` (the real win — lazy basename tallies plus
  integer ``bincount``/``argsort`` ranking), and the factorization
  strategy comparison behind ``to_dataset`` over the profile columns —
  the fused ``zip`` walk that shipped versus the ``np.unique``-over-strings
  candidate. Negative results stay executable so the next person
  doesn't re-ship the slow version.
"""

from collections import Counter, defaultdict
from itertools import chain
from posixpath import basename

import numpy as np

from repro.analyzer.insights import extract_insights
from repro.analyzer.profiles import LayerProfile, ProfileStore
from repro.core.colstream import report_from_chunks, report_from_dataset
from repro.synth.streamgen import chunks_from_dataset
from repro.util.timer import Timer


class TestColumnarEngine:
    def test_in_memory_report(self, bench_dataset, benchmark, capsys):
        """The monolithic reference: one partial over the whole dataset."""
        report = benchmark.pedantic(
            report_from_dataset, args=(bench_dataset,), rounds=1, iterations=1
        )
        n = bench_dataset.n_file_occurrences
        with capsys.disabled():
            print()
            print("columnar  in-memory report over the bench dataset")
            print(f"  occurrences            {n:,}")
            print(f"  unique files           {report.doc['totals']['unique_files']:,}")

    def test_streaming_report_matches(self, bench_dataset, benchmark, capsys):
        """Chunked streaming analysis: bounded memory, identical answer."""
        reference = report_from_dataset(bench_dataset)

        def stream():
            return report_from_chunks(
                chunks_from_dataset(bench_dataset, chunk_occurrences=1_000_000)
            )

        with Timer() as t:
            report = stream()
        benchmark.pedantic(stream, rounds=1, iterations=1)
        n = bench_dataset.n_file_occurrences
        with capsys.disabled():
            print()
            print("columnar  streaming (1M-occurrence chunks) vs in-memory")
            print(f"  occurrences            {n:,}")
            print(f"  streaming pass         {t.elapsed:.3f}s "
                  f"({n / t.elapsed:,.0f} files/s)")
            print(f"  byte-identical         "
                  f"{report.to_json() == reference.to_json()}")
        assert report.to_json() == reference.to_json()


# -- the pre-vectorization analyzer code, kept as the before/after baseline ----
# It walks per-file records, as every reader did before profiles held
# columns; ``LayerProfile.files`` builds them, so the record cost is counted.


def _naive_to_dataset_arrays(store: ProfileStore):
    file_id_by_digest: dict[str, int] = {}
    file_sizes: list[int] = []
    file_types: list[int] = []
    layer_file_ids: list[int] = []
    layer_offsets = [0]
    for profile in store.layers():
        for record in profile.files:
            fid = file_id_by_digest.get(record.digest)
            if fid is None:
                fid = len(file_sizes)
                file_id_by_digest[record.digest] = fid
                file_sizes.append(record.size)
                file_types.append(record.type_code)
            layer_file_ids.append(fid)
        layer_offsets.append(len(layer_file_ids))
    return (
        np.asarray(file_sizes, dtype=np.int64),
        np.asarray(file_types, dtype=np.int32),
        np.asarray(layer_offsets, dtype=np.int64),
        np.asarray(layer_file_ids, dtype=np.int64),
    )


def _naive_copy_counting(store: ProfileStore):
    copies: Counter[str] = Counter()
    sizes: dict[str, int] = {}
    names: dict[str, Counter[str]] = defaultdict(Counter)
    for layer in store.layers():
        for record in layer.files:
            copies[record.digest] += 1
            sizes[record.digest] = record.size
            names[record.digest][basename(record.path)] += 1
    return copies.most_common(5)


def _big_store(n_layers: int = 600, files_per_layer: int = 400) -> ProfileStore:
    rng = np.random.default_rng(41)
    store = ProfileStore()
    digests = [f"sha256:f{i:06d}" for i in range(20_000)]
    names = ["a.txt", "lib.so", "__init__.py", "LICENSE", "mod.pyc"]
    for li in range(n_layers):
        picks = rng.integers(0, len(digests), size=files_per_layer).tolist()
        sizes = [0 if p % 11 == 0 else p % 4096 for p in picks]
        store.add_layer(
            LayerProfile(
                digest=f"sha256:layer{li:05d}",
                compressed_size=1000,
                files_size=sum(sizes),
                file_count=len(picks),
                directory_count=3,
                max_depth=5,
                file_paths=[f"usr/share/{names[p % 5]}" for p in picks],
                file_digests=[digests[p] for p in picks],
                file_sizes=sizes,
                file_types=[p % 40 for p in picks],
            )
        )
    return store


def _string_unique_to_dataset_arrays(store: ProfileStore):
    """Candidate: full-NumPy factorize via ``np.unique`` over the digest
    *strings* — NumPy has to sort the string column, while a dict hashes
    each digest once."""
    profiles = store.layers()
    digests = np.asarray(list(chain.from_iterable(p.file_digests for p in profiles)))
    sizes = np.fromiter(
        chain.from_iterable(p.file_sizes for p in profiles),
        dtype=np.int64, count=digests.size,
    )
    types = np.fromiter(
        chain.from_iterable(p.file_types for p in profiles),
        dtype=np.int32, count=digests.size,
    )
    offsets = np.zeros(len(profiles) + 1, dtype=np.int64)
    np.cumsum([len(p.file_digests) for p in profiles], out=offsets[1:])
    _, first_idx, inverse = np.unique(
        digests, return_index=True, return_inverse=True
    )
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size, dtype=np.int64)
    ids = rank[inverse.reshape(-1)]
    first_seen = first_idx[order]
    return sizes[first_seen], types[first_seen], offsets, ids


class TestAnalyzerVectorization:
    def test_to_dataset_factorize_strategies(self, benchmark, capsys):
        """The shipped fused walk vs the full-NumPy candidate.

        Both read the profile columns (no records); the per-record walk is
        the pre-columns baseline. The candidate's time includes
        concatenating the columns it needs.
        """
        store = _big_store()
        with Timer() as naive_t:
            sizes, types, offsets, ids = _naive_to_dataset_arrays(store)
        dataset = benchmark.pedantic(store.to_dataset, rounds=1, iterations=1)
        n = int(offsets[-1])
        with Timer() as fast_t:
            again = store.to_dataset()
        with Timer() as unique_t:
            u_arrays = _string_unique_to_dataset_arrays(store)

        def row(label, t):
            return (f"  {label:22s} {t.elapsed:.3f}s ({n / t.elapsed:,.0f} files/s, "
                    f"{t.elapsed / fast_t.elapsed:.2f}x shipped)")

        with capsys.disabled():
            print()
            print("analyzer  ProfileStore.to_dataset factorization strategies")
            print(f"  occurrences            {n:,}")
            print(row("per-record dict walk", naive_t))
            print(row("shipped zip walk", fast_t))
            print(row("np.unique on strings", unique_t))
        # every factorize agrees element for element
        for got in (
            (dataset.file_sizes, dataset.file_types,
             dataset.layer_file_offsets, dataset.layer_file_ids),
            u_arrays,
        ):
            assert np.array_equal(got[0], sizes)
            assert np.array_equal(got[1], types)
            assert np.array_equal(got[2], offsets)
            assert np.array_equal(got[3], ids)
        assert np.array_equal(again.layer_file_ids, ids)
        # the shipped walk must beat sorting the string column
        assert fast_t.elapsed < unique_t.elapsed

    def test_insights_before_after(self, benchmark, capsys):
        """Vectorized copy ranking vs the per-record Counter walk."""
        store = _big_store()
        with Timer() as naive_t:
            naive_top = _naive_copy_counting(store)
        insights = benchmark.pedantic(
            extract_insights, args=(store,), rounds=1, iterations=1
        )
        with Timer() as fast_t:
            extract_insights(store)
        with capsys.disabled():
            print()
            print("analyzer  extract_insights before/after vectorization")
            print(f"  naive Counter walk     {naive_t.elapsed:.3f}s")
            print(f"  vectorized             {fast_t.elapsed:.3f}s "
                  f"[{naive_t.elapsed / fast_t.elapsed:.1f}x]")
        assert [
            (r.digest, r.copies) for r in insights.top_repeated_files
        ] == [(d, c) for d, c in naive_top]
