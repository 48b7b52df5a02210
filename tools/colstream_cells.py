"""Rejected alternatives of the columnar code paths, kept executable.

Run:  PYTHONPATH=src python tools/colstream_cells.py [--seed N]

Three cells, each timing the shipped kernel against the candidate it beat
and checking that both give the same answer:

* ``FileDedupState.from_occurrences``: the dense ``bincount`` factorize vs
  the ``np.unique`` sort it replaced, on a chunk shaped like the end-to-end
  ``columnar`` workload's (the first 250 k occurrences of a 20-image bench
  hub);
* ``ProfileStore.to_dataset``: the fused ``zip`` walk over the profile
  columns vs the pre-columns per-record walk and ``np.unique`` over the
  digest strings;
* ``extract_insights``: the vectorized copy ranking vs the per-record
  ``Counter`` walk.

Prints one block per cell and exits 1 if an answer differs or a shipped
kernel is slower than its rejected alternative. Not part of the installed
package or of the test suite; the docstrings of ``analyzer/profiles.py``
and ``analyzer/insights.py`` cite its numbers.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter, defaultdict
from dataclasses import replace
from itertools import chain
from posixpath import basename

import numpy as np

from repro.analyzer.insights import extract_insights
from repro.analyzer.profiles import LayerProfile, ProfileStore
from repro.dedup.streaming import DENSE_SPAN_FACTOR, FileDedupState
from repro.synth import SyntheticHubConfig
from repro.synth.streamgen import iter_dataset_chunks
from repro.util.timer import Timer


def _timed(fn, *args) -> tuple[float, object]:
    with Timer() as t:
        out = fn(*args)
    return t.elapsed, out


def _best_of(n: int, fn, *args) -> tuple[float, object]:
    runs = [_timed(fn, *args) for _ in range(n)]
    return min(r[0] for r in runs), runs[0][1]


# -- cell 1: the dedup factorize ----------------------------------------------


def _sort_factorize(file_ids: np.ndarray, occ_sizes: np.ndarray):
    """The factorize ``from_occurrences`` ran before the dense path: a
    stable argsort of every occurrence under ``np.unique``."""
    unique_ids, first, counts = np.unique(file_ids, return_index=True, return_counts=True)
    return unique_ids, counts, occ_sizes[first]


def dedup_factorize_cell(seed: int) -> list[str]:
    hub = replace(SyntheticHubConfig.bench(seed=seed), n_images=20)
    chunk = next(iter_dataset_chunks(hub, chunk_occurrences=250_000))
    ids, sizes = chunk.file_ids, chunk.occ_sizes
    dense_s, state = _best_of(3, FileDedupState.from_occurrences, ids, sizes)
    sort_s, (unique_ids, counts, first_sizes) = _best_of(3, _sort_factorize, ids, sizes)
    n = chunk.n_occurrences
    span = int(ids.max()) - int(ids.min()) + 1
    print("columnar  FileDedupState.from_occurrences factorize strategies")
    print(f"  occurrences            {n:,} (id span {span / n:.2f}x)")
    print(f"  shipped dense bincount {dense_s:.4f}s ({n / dense_s:,.0f} occ/s)")
    print(f"  np.unique sort         {sort_s:.4f}s ({sort_s / dense_s:.2f}x shipped)")
    problems = []
    if span > DENSE_SPAN_FACTOR * n:
        problems.append("the chunk does not take the dense path")
    if not (
        np.array_equal(state.unique_ids, unique_ids)
        and np.array_equal(state.counts, counts)
        and np.array_equal(state.sizes, first_sizes)
    ):
        problems.append("dense and sort factorize disagree")
    if dense_s >= sort_s:
        problems.append("the dense factorize is not faster than the sort")
    return problems


# -- cells 2 and 3: the analyzer's walks over profile columns ------------------
# The per-record walks are the pre-columns code: ``LayerProfile.files`` builds
# the records, so the record cost is counted.


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


def _record_walk_arrays(store: ProfileStore):
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


def _string_unique_arrays(store: ProfileStore):
    """Candidate: full-NumPy factorize via ``np.unique`` over the digest
    *strings* — NumPy has to sort the string column, while a dict hashes
    each digest once. Its time includes concatenating the columns."""
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
    _, first_idx, inverse = np.unique(digests, return_index=True, return_inverse=True)
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size, dtype=np.int64)
    first_seen = first_idx[order]
    return sizes[first_seen], types[first_seen], offsets, rank[inverse.reshape(-1)]


def to_dataset_cell(store: ProfileStore) -> list[str]:
    record_s, expected = _timed(_record_walk_arrays, store)
    shipped_s, dataset = _timed(store.to_dataset)
    unique_s, candidate = _timed(_string_unique_arrays, store)
    n = int(expected[2][-1])
    print("analyzer  ProfileStore.to_dataset factorization strategies")
    print(f"  occurrences            {n:,}")
    for label, s in (
        ("per-record dict walk", record_s),
        ("shipped zip walk", shipped_s),
        ("np.unique on strings", unique_s),
    ):
        print(f"  {label:22s} {s:.3f}s ({n / s:,.0f} files/s, {s / shipped_s:.2f}x shipped)")
    shipped = (
        dataset.file_sizes, dataset.file_types,
        dataset.layer_file_offsets, dataset.layer_file_ids,
    )
    problems = []
    for name, got in (("shipped", shipped), ("np.unique", candidate)):
        if not all(np.array_equal(a, b) for a, b in zip(got, expected)):
            problems.append(f"the {name} factorize disagrees with the record walk")
    if shipped_s >= unique_s:
        problems.append("the shipped walk is not faster than np.unique on strings")
    return problems


def _record_copy_counting(store: ProfileStore):
    copies: Counter[str] = Counter()
    names: dict[str, Counter[str]] = defaultdict(Counter)
    for layer in store.layers():
        for record in layer.files:
            copies[record.digest] += 1
            names[record.digest][basename(record.path)] += 1
    return copies.most_common(5)


def insights_cell(store: ProfileStore) -> list[str]:
    record_s, expected = _timed(_record_copy_counting, store)
    shipped_s, insights = _timed(extract_insights, store)
    print("analyzer  extract_insights before/after vectorization")
    print(f"  per-record Counter walk {record_s:.3f}s")
    print(f"  vectorized              {shipped_s:.3f}s [{record_s / shipped_s:.1f}x]")
    got = [(r.digest, r.copies) for r in insights.top_repeated_files]
    problems = []
    if got != expected:
        problems.append("the vectorized top list differs from the Counter walk")
    if shipped_s >= record_s:
        problems.append("the vectorized ranking is not faster than the Counter walk")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=2017)
    args = parser.parse_args()
    problems = dedup_factorize_cell(args.seed)
    print()
    store = _big_store()
    problems += to_dataset_cell(store)
    print()
    problems += insights_cell(store)
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
