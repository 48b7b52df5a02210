"""Anecdote-level findings from layer profiles — the paper's color commentary.

§IV/§V season the statistics with named findings: the most-repeated file is
empty (53.65 M copies), ~4 % of empty files are ``__init__.py``, the biggest
layer belonged to a Debian image, the top shared non-empty layer was a whole
Ubuntu 14.04.2 rootfs, Google Test sources are copied everywhere. This
module extracts the same kinds of findings from a :class:`ProfileStore` —
with real paths and digests, because materialized mode has them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, count
from posixpath import basename

import numpy as np

from repro.analyzer.profiles import ProfileStore


@dataclass(frozen=True)
class RepeatedFile:
    digest: str
    size: int
    copies: int
    #: most common basenames this content appears under, with counts
    names: list[tuple[str, int]]

    @property
    def is_empty(self) -> bool:
        return self.size == 0


@dataclass(frozen=True)
class Insights:
    top_repeated_files: list[RepeatedFile]
    empty_file_copies: int  # total occurrences of zero-byte content
    empty_file_top_names: list[tuple[str, int]]
    biggest_layer_digest: str
    biggest_layer_files: int
    deepest_layer_digest: str
    deepest_layer_depth: int
    top_shared_layers: list[tuple[str, int]]  # (digest, image refs)
    top_shared_empty_refs: int  # refs of the most-shared file-less layer

    def summary_lines(self) -> list[str]:
        lines = [
            f"most repeated file: {self.top_repeated_files[0].copies:,} copies"
            + (" (empty)" if self.top_repeated_files[0].is_empty else "")
        ]
        if self.empty_file_top_names:
            name, count = self.empty_file_top_names[0]
            lines.append(
                f"empty files: {self.empty_file_copies:,} occurrences; "
                f"most common name {name!r} ({count:,}x)"
            )
        lines.append(
            f"biggest layer: {self.biggest_layer_files:,} files "
            f"({self.biggest_layer_digest[:19]}…)"
        )
        lines.append(f"deepest layer: depth {self.deepest_layer_depth}")
        if self.top_shared_layers:
            digest, refs = self.top_shared_layers[0]
            lines.append(f"most shared layer: {refs:,} images ({digest[:19]}…)")
        return lines


def extract_insights(store: ProfileStore, *, top_n: int = 5) -> Insights:
    """Mine the anecdotes out of profiled layers and images.

    The occurrence-sized work runs as C-level passes: one fused
    ``dict.setdefault`` factorize assigns every content digest its first
    occurrence position (``np.unique`` over the digest *strings*
    measured ~3x slower over the profile columns in
    ``tools/colstream_cells.py`` — it has to sort the string
    column, while the dict hashes each digest once), then copy counting
    and ranking are ``np.bincount``/``argsort`` over the integer codes.
    Basename ``Counter``\\ s are built lazily, only for the digests that
    make a top list or hold empty content — never for the whole corpus.
    Ordering matches the ``Counter.most_common`` contract exactly: count
    descending, first-seen order breaking ties (pinned by
    ``tests/analyzer``).
    """
    layers = store.layers()
    if not layers:
        raise ValueError("no layer profiles to analyze")

    all_digests = list(chain.from_iterable(l.file_digests for l in layers))
    n_occurrences = len(all_digests)

    if n_occurrences:
        # codes_pos[i] = index of the first occurrence of file i's digest
        table: dict[str, int] = {}
        codes_pos = np.fromiter(
            map(table.setdefault, all_digests, count()),
            dtype=np.int64,
            count=n_occurrences,
        )
        first_seen = np.unique(codes_pos)  # ascending = first-seen digest order
        n_unique = first_seen.size
        remap = np.empty(n_occurrences, dtype=np.int64)
        remap[first_seen] = np.arange(n_unique, dtype=np.int64)
        codes = remap[codes_pos]  # dense ids, first-seen order
        counts = np.bincount(codes, minlength=n_unique)
        uniq_sizes = np.fromiter(
            chain.from_iterable(l.file_sizes for l in layers),
            dtype=np.int64,
            count=n_occurrences,
        )[first_seen]

        # Counter.most_common order: count desc, first insertion on ties —
        # codes are already in first-seen order, so a stable sort suffices.
        ranked = np.argsort(-counts, kind="stable")
        empty_groups = np.flatnonzero(uniq_sizes == 0)

        # lazy basename tallies: only digests a caller will actually see
        wanted = np.zeros(n_unique, dtype=bool)
        wanted[ranked[:top_n]] = True
        wanted[empty_groups] = True
        name_counters: dict[int, Counter[str]] = {
            int(u): Counter() for u in np.flatnonzero(wanted)
        }
        all_paths = list(chain.from_iterable(l.file_paths for l in layers))
        sel = np.flatnonzero(wanted[codes])
        for i, u in zip(sel.tolist(), codes[sel].tolist()):
            name_counters[u][basename(all_paths[i])] += 1

        top_repeated = [
            RepeatedFile(
                digest=all_digests[first_seen[u]],
                size=int(uniq_sizes[u]),
                copies=int(counts[u]),
                names=name_counters[u].most_common(3),
            )
            for u in ranked[:top_n].tolist()
        ]

        empty_copies = int(counts[empty_groups].sum())
        empty_names: Counter[str] = Counter()
        # first-seen digest order, as the original dict iteration had it
        for u in empty_groups.tolist():
            empty_names.update(name_counters[u])
        empty_top_names = empty_names.most_common(3)
    else:
        top_repeated = []
        empty_copies = 0
        empty_top_names = []

    file_counts = np.asarray([l.file_count for l in layers], dtype=np.int64)
    max_depths = np.asarray([l.max_depth for l in layers], dtype=np.int64)
    biggest = layers[int(np.argmax(file_counts))]  # argmax = first max, as max() was
    deepest = layers[int(np.argmax(max_depths))]

    layer_index = {layer.digest: i for i, layer in enumerate(layers)}
    flat_refs = np.asarray(
        [layer_index[d] for image in store.images() for d in image.layer_digests],
        dtype=np.int64,
    )
    if flat_refs.size:
        ref_counts = np.bincount(flat_refs, minlength=len(layers))
        ref_uniq, ref_first = np.unique(flat_refs, return_index=True)
        ranked_refs = np.lexsort((ref_first, -ref_counts[ref_uniq]))
        top_shared = [
            (layers[int(ref_uniq[r])].digest, int(ref_counts[ref_uniq[r]]))
            for r in ranked_refs[:top_n]
        ]
        empty_referenced = ref_uniq[file_counts[ref_uniq] == 0]
        empty_layer_refs = (
            int(ref_counts[empty_referenced].max()) if empty_referenced.size else 0
        )
    else:
        top_shared = []
        empty_layer_refs = 0

    return Insights(
        top_repeated_files=top_repeated,
        empty_file_copies=empty_copies,
        empty_file_top_names=empty_top_names,
        biggest_layer_digest=biggest.digest,
        biggest_layer_files=biggest.file_count,
        deepest_layer_digest=deepest.digest,
        deepest_layer_depth=deepest.max_depth,
        top_shared_layers=top_shared,
        top_shared_empty_refs=empty_layer_refs,
    )
