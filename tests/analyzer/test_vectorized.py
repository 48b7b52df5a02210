"""Vectorized ``to_dataset``/``extract_insights`` against naive references.

The vectorized paths must be drop-in: same arrays element for element, same
top-list ordering including ``Counter.most_common`` tie semantics. The naive
references below are the pre-vectorization implementations, kept verbatim as
the ground truth the NumPy versions are diffed against.
"""

from collections import Counter, defaultdict
from posixpath import basename

import numpy as np
import pytest

from repro.analyzer.insights import extract_insights
from repro.analyzer.profiles import (
    FileRecord,
    ImageProfile,
    LayerProfile,
    ProfileStore,
)
from repro.model.dataset import HubDataset


def _naive_to_dataset(store: ProfileStore) -> HubDataset:
    file_id_by_digest: dict[str, int] = {}
    file_sizes: list[int] = []
    file_types: list[int] = []
    layer_order = [p.digest for p in store.layers()]
    layer_index = {d: i for i, d in enumerate(layer_order)}
    layer_file_ids: list[int] = []
    layer_offsets = [0]
    layer_cls = np.zeros(len(layer_order), dtype=np.int64)
    layer_dirs = np.zeros(len(layer_order), dtype=np.int64)
    layer_depths = np.zeros(len(layer_order), dtype=np.int64)
    for i, profile in enumerate(store.layers()):
        for record in profile.files:
            fid = file_id_by_digest.get(record.digest)
            if fid is None:
                fid = len(file_sizes)
                file_id_by_digest[record.digest] = fid
                file_sizes.append(record.size)
                file_types.append(record.type_code)
            layer_file_ids.append(fid)
        layer_offsets.append(len(layer_file_ids))
        layer_cls[i] = profile.compressed_size
        layer_dirs[i] = profile.directory_count
        layer_depths[i] = profile.max_depth
    image_layer_ids: list[int] = []
    image_offsets = [0]
    names: list[str] = []
    pulls: list[int] = []
    for image in store.images():
        image_layer_ids.extend(layer_index[d] for d in image.layer_digests)
        image_offsets.append(len(image_layer_ids))
        names.append(image.name)
        pulls.append(image.pull_count)
    return HubDataset(
        file_sizes=np.asarray(file_sizes, dtype=np.int64),
        file_types=np.asarray(file_types, dtype=np.int32),
        layer_file_offsets=np.asarray(layer_offsets, dtype=np.int64),
        layer_file_ids=np.asarray(layer_file_ids, dtype=np.int64),
        layer_cls=layer_cls,
        layer_dir_counts=layer_dirs,
        layer_max_depths=layer_depths,
        image_layer_offsets=np.asarray(image_offsets, dtype=np.int64),
        image_layer_ids=np.asarray(image_layer_ids, dtype=np.int64),
        repo_names=names,
        pull_counts=np.asarray(pulls, dtype=np.int64),
    )


def _naive_insights(store: ProfileStore, top_n: int = 5):
    layers = store.layers()
    copies: Counter[str] = Counter()
    sizes: dict[str, int] = {}
    names: dict[str, Counter[str]] = defaultdict(Counter)
    for layer in layers:
        for record in layer.files:
            copies[record.digest] += 1
            sizes[record.digest] = record.size
            names[record.digest][basename(record.path)] += 1
    top_repeated = [
        (digest, sizes[digest], count, names[digest].most_common(3))
        for digest, count in copies.most_common(top_n)
    ]
    empty_names: Counter[str] = Counter()
    empty_copies = 0
    for digest, count in copies.items():
        if sizes[digest] == 0:
            empty_copies += count
            empty_names.update(names[digest])
    refs: Counter[str] = Counter()
    for image in store.images():
        refs.update(image.layer_digests)
    empty_layer_refs = max(
        (c for d, c in refs.items() if store.layer(d).file_count == 0),
        default=0,
    )
    return (
        top_repeated,
        empty_copies,
        empty_names.most_common(3),
        refs.most_common(top_n),
        empty_layer_refs,
    )


def _store_from_rng(seed: int, n_layers: int = 40) -> ProfileStore:
    """A synthetic store with deliberate digest reuse, empty files, and ties."""
    rng = np.random.default_rng(seed)
    store = ProfileStore()
    digests = [f"sha256:file{i:04d}" for i in range(60)]
    name_pool = ["a.txt", "b.so", "__init__.py", "LICENSE", "data.bin"]
    for li in range(n_layers):
        n_files = int(rng.integers(0, 12))
        files = []
        for _ in range(n_files):
            fi = int(rng.integers(0, len(digests)))
            files.append(
                FileRecord(
                    path=f"usr/{name_pool[int(rng.integers(0, 5))]}",
                    digest=digests[fi],
                    size=0 if fi % 7 == 0 else 100 + fi,
                    type_code=fi % 9,
                )
            )
        store.add_layer(
            LayerProfile.from_records(
                digest=f"sha256:layer{li:04d}",
                compressed_size=int(rng.integers(1, 10_000)),
                files_size=sum(f.size for f in files),
                file_count=len(files),
                directory_count=int(rng.integers(1, 10)),
                max_depth=int(rng.integers(1, 12)),
                files=files,
            )
        )
    layer_digests = [f"sha256:layer{li:04d}" for li in range(n_layers)]
    for ii in range(15):
        picks = rng.choice(n_layers, size=int(rng.integers(1, 6)), replace=False)
        store.add_image(
            ImageProfile(
                name=f"repo{ii}",
                layer_digests=[layer_digests[p] for p in sorted(picks)],
                compressed_size=0,
                pull_count=int(rng.integers(0, 1000)),
            )
        )
    return store


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_to_dataset_matches_naive(seed):
    store = _store_from_rng(seed)
    fast = store.to_dataset()
    naive = _naive_to_dataset(store)
    assert np.array_equal(fast.file_sizes, naive.file_sizes)
    assert np.array_equal(fast.file_types, naive.file_types)
    assert np.array_equal(fast.layer_file_offsets, naive.layer_file_offsets)
    assert np.array_equal(fast.layer_file_ids, naive.layer_file_ids)
    assert np.array_equal(fast.layer_cls, naive.layer_cls)
    assert np.array_equal(fast.layer_dir_counts, naive.layer_dir_counts)
    assert np.array_equal(fast.layer_max_depths, naive.layer_max_depths)
    assert np.array_equal(fast.image_layer_offsets, naive.image_layer_offsets)
    assert np.array_equal(fast.image_layer_ids, naive.image_layer_ids)
    assert fast.repo_names == naive.repo_names
    assert np.array_equal(fast.pull_counts, naive.pull_counts)


def test_to_dataset_empty_store():
    store = ProfileStore()
    store.add_layer(
        LayerProfile(
            digest="sha256:empty", compressed_size=0, files_size=0,
            file_count=0, directory_count=0, max_depth=0,
        )
    )
    dataset = store.to_dataset()
    assert dataset.n_layers == 1
    assert dataset.n_file_occurrences == 0
    assert dataset.file_sizes.size == 0


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_extract_insights_matches_naive(seed):
    store = _store_from_rng(seed)
    got = extract_insights(store)
    (top_repeated, empty_copies, empty_top, top_shared, empty_refs) = (
        _naive_insights(store)
    )
    assert [
        (r.digest, r.size, r.copies, r.names) for r in got.top_repeated_files
    ] == top_repeated
    assert got.empty_file_copies == empty_copies
    assert got.empty_file_top_names == empty_top
    assert got.top_shared_layers == top_shared
    assert got.top_shared_empty_refs == empty_refs
