"""Streaming columnar analysis: §IV/§V statistics from mergeable partials.

The in-memory figure pipeline gathers occurrence-sized temporaries (sizes,
types, repeat bincounts, full sorts) over the whole dataset at once. This
module computes the same characterization and dedup statistics from bounded
:class:`~repro.synth.streamgen.DatasetChunk` slices instead: every chunk
collapses to a small :class:`ColumnarPartial` — dense type bincounts,
log-bucketed histograms (merged exactly via
:meth:`~repro.stats.histogram.Histogram.merge`), a sorted unique-file
:class:`~repro.dedup.streaming.FileDedupState`, and per-layer sharing
tallies — and partials fold associatively into one merged state that
finalizes to a :class:`ColumnarReport`.

Exactness contract: every partial quantity is an integer (or an integer
histogram), so merging is bit-exact in any grouping. The report built from
one whole-dataset "chunk" (:func:`report_from_dataset`) is therefore
**byte-for-byte identical** to the report merged from any chunking of the
same dataset, whether the chunks were analyzed serially, by a thread pool,
or by a process pool (``tests/core/test_colstream.py`` pins all of it).

Worker dispatch goes through ``repro.parallel.map_shards`` with picklable
:class:`~repro.synth.streamgen.ChunkSpec` handles: each worker loads one
spilled ``.npz`` chunk, reduces it to a partial, and only the partial
(kilobytes) crosses back over the process boundary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.dedup.streaming import FileDedupState
from repro.filetypes.catalog import (
    RARE_TYPE_BASE,
    TypeCatalog,
    TypeGroup,
    default_catalog,
)
from repro.model.dataset import HubDataset
from repro.obs import MetricsRegistry
from repro.parallel.pool import ParallelConfig, map_shards
from repro.stats.histogram import Histogram, log_bins
from repro.synth.streamgen import ChunkSpec, DatasetChunk, chunks_from_dataset

REPORT_SCHEMA = "columnar-report-v1"

#: Shared closed-form binnings — both engines histogram into the same edges,
#: which is what makes per-chunk histograms a lossless partial aggregate.
#: Zero-valued samples (empty files, empty layers) land in ``underflow``.
OCC_SIZE_EDGES = log_bins(1.0, 2.0**40, per_decade=4)
LAYER_FILE_EDGES = log_bins(1.0, 1e7, per_decade=4)
LAYER_FLS_EDGES = log_bins(1.0, 2.0**44, per_decade=4)
REPEAT_EDGES = log_bins(1.0, 1e9, per_decade=4)
LAYER_REF_EDGES = log_bins(1.0, 1e7, per_decade=4)

#: The paper's common-type criterion (> 7 GB per type at 167 TB total),
#: applied relatively so it scales — same constant as ``taxonomy_summary``.
COMMON_CAPACITY_SHARE = 7e9 / 167e12


def _segment_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum *values* over CSR segments (empty-segment-safe, exact int64)."""
    csum = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(values, out=csum[1:])
    return csum[offsets[1:]] - csum[offsets[:-1]]


def _dense_type_sums(
    occ_types: np.ndarray, occ_sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-type-code occurrence counts and byte sums.

    ``np.bincount`` counts the codes and ``np.add.at`` scatters the byte
    sums in int64 — unlike ``np.bincount(weights=...)``, which accumulates
    in float64 and would make merge exactness depend on magnitudes staying
    under 2⁵³. A negative code raises rather than indexing from the end.
    """
    if occ_types.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    counts = np.bincount(occ_types).astype(np.int64)
    nbytes = np.zeros(counts.size, dtype=np.int64)
    np.add.at(nbytes, occ_types, occ_sizes)
    return counts, nbytes


@dataclass
class ColumnarPartial:
    """One chunk's contribution to the §IV/§V statistics.

    Everything in here is integer-valued and mergeable: scalars add (or
    max), dense arrays pad-and-add, histograms bucket-sum, and the dedup
    state set-unions. A partial is a few KB however many occurrences the
    chunk held, and pickles cleanly back from process workers.
    """

    n_chunks: int
    n_layers: int
    n_empty_layers: int
    n_occurrences: int
    fls_bytes: int
    cls_bytes: int
    type_counts: np.ndarray  # int64 [max code + 1], dense
    type_bytes: np.ndarray  # int64 [max code + 1], dense
    occ_size_hist: Histogram
    layer_file_hist: Histogram
    layer_fls_hist: Histogram
    repeat_hist_placeholder: None  # repeats exist only after the full merge
    dedup: FileDedupState
    # -- layer sharing (§V-A) over this chunk's layer range -------------------
    referenced_layers: int
    single_ref_layers: int
    double_ref_layers: int
    max_refs: int
    empty_layer_refs: int  # max refs among zero-file layers
    ref_hist: Histogram
    shared_slot_bytes: int  # sum over images of per-slot CLS (no sharing)
    referenced_cls_bytes: int  # CLS stored once per referenced layer

    def merge(self, other: "ColumnarPartial") -> "ColumnarPartial":
        n = max(self.type_counts.size, other.type_counts.size)

        def _padded(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            out = np.zeros(n, dtype=np.int64)
            out[: a.size] += a
            out[: b.size] += b
            return out

        return ColumnarPartial(
            n_chunks=self.n_chunks + other.n_chunks,
            n_layers=self.n_layers + other.n_layers,
            n_empty_layers=self.n_empty_layers + other.n_empty_layers,
            n_occurrences=self.n_occurrences + other.n_occurrences,
            fls_bytes=self.fls_bytes + other.fls_bytes,
            cls_bytes=self.cls_bytes + other.cls_bytes,
            type_counts=_padded(self.type_counts, other.type_counts),
            type_bytes=_padded(self.type_bytes, other.type_bytes),
            occ_size_hist=self.occ_size_hist.merge(other.occ_size_hist),
            layer_file_hist=self.layer_file_hist.merge(other.layer_file_hist),
            layer_fls_hist=self.layer_fls_hist.merge(other.layer_fls_hist),
            repeat_hist_placeholder=None,
            dedup=self.dedup.merge(other.dedup),
            referenced_layers=self.referenced_layers + other.referenced_layers,
            single_ref_layers=self.single_ref_layers + other.single_ref_layers,
            double_ref_layers=self.double_ref_layers + other.double_ref_layers,
            max_refs=max(self.max_refs, other.max_refs),
            empty_layer_refs=max(self.empty_layer_refs, other.empty_layer_refs),
            ref_hist=self.ref_hist.merge(other.ref_hist),
            shared_slot_bytes=self.shared_slot_bytes + other.shared_slot_bytes,
            referenced_cls_bytes=(
                self.referenced_cls_bytes + other.referenced_cls_bytes
            ),
        )


def partial_from_chunk(chunk: DatasetChunk) -> ColumnarPartial:
    """Reduce one chunk's occurrence columns to its partial aggregates."""
    counts, nbytes = _dense_type_sums(chunk.occ_types, chunk.occ_sizes)
    layer_file_counts = np.diff(chunk.file_offsets)
    layer_fls = _segment_sums(chunk.occ_sizes, chunk.file_offsets)
    refs = chunk.layer_ref_counts
    referenced = refs > 0
    empty_layers = layer_file_counts == 0
    empty_refs = refs[empty_layers]
    return ColumnarPartial(
        n_chunks=1,
        n_layers=chunk.n_layers,
        n_empty_layers=int(np.count_nonzero(empty_layers)),
        n_occurrences=chunk.n_occurrences,
        fls_bytes=int(chunk.occ_sizes.sum()),
        cls_bytes=int(chunk.layer_cls.sum()),
        type_counts=counts,
        type_bytes=nbytes,
        occ_size_hist=Histogram.from_values(chunk.occ_sizes, OCC_SIZE_EDGES),
        layer_file_hist=Histogram.from_values(layer_file_counts, LAYER_FILE_EDGES),
        layer_fls_hist=Histogram.from_values(layer_fls, LAYER_FLS_EDGES),
        repeat_hist_placeholder=None,
        dedup=FileDedupState.from_occurrences(chunk.file_ids, chunk.occ_sizes),
        referenced_layers=int(np.count_nonzero(referenced)),
        single_ref_layers=int(np.count_nonzero(refs == 1)),
        double_ref_layers=int(np.count_nonzero(refs == 2)),
        max_refs=int(refs.max()) if refs.size else 0,
        empty_layer_refs=int(empty_refs.max()) if empty_refs.size else 0,
        ref_hist=Histogram.from_values(refs[referenced], LAYER_REF_EDGES),
        shared_slot_bytes=int((chunk.layer_cls * refs).sum()),
        referenced_cls_bytes=int(chunk.layer_cls[referenced].sum()),
    )


def partial_from_spec(spec: ChunkSpec) -> ColumnarPartial:
    """Module-level worker for ``map_shards``: load one spilled chunk,
    reduce it, return only the partial (must pickle into process pools)."""
    return partial_from_chunk(spec.load())


def merge_partials(partials: list[ColumnarPartial]) -> ColumnarPartial:
    """Fold partials as a balanced tree (same exactness, near-linear cost)."""
    if not partials:
        raise ValueError("no partials to merge")
    level = list(partials)
    while len(level) > 1:
        merged = [
            level[i].merge(level[i + 1]) if i + 1 < len(level) else level[i]
            for i in range(0, len(level), 2)
        ]
        level = merged
    # dedup states were folded pairwise already inside merge(); nothing more
    return level[0]


# -- the report -----------------------------------------------------------------


@dataclass(frozen=True)
class ColumnarReport:
    """The §IV/§V statistics document, JSON-canonical for byte comparison."""

    doc: dict

    def to_json(self) -> str:
        return json.dumps(self.doc, indent=2, sort_keys=True)

    def render(self) -> str:
        t = self.doc["totals"]
        d = self.doc["dedup"]
        s = self.doc["sharing"]
        g_rows = ", ".join(
            f"{row['label']} {row['count']:,}" for row in self.doc["groups"][:4]
        )
        return "\n".join([
            f"columnar report ({self.doc['schema']})",
            f"  layers {t['layers']:,} ({t['empty_layers']:,} empty), "
            f"occurrences {t['occurrences']:,}, unique files {t['unique_files']:,}",
            f"  FLS {t['fls_bytes']:,} B, CLS {t['cls_bytes']:,} B, "
            f"deduplicated {t['unique_file_bytes']:,} B",
            f"  top groups: {g_rows}",
            f"  file dedup: {d['unique_fraction']:.1%} unique, "
            f"{d['count_ratio']:.1f}x count / {d['capacity_ratio']:.1f}x capacity "
            "(paper 3.2% / 31.5x / 6.9x)",
            f"  layer sharing: {s['single_ref_fraction']:.1%} single-ref, "
            f"saves {s['sharing_ratio']:.2f}x (paper ~90% / 1.8x)",
        ])


def finalize_report(
    merged: ColumnarPartial, catalog: TypeCatalog | None = None
) -> ColumnarReport:
    """Turn the fully merged partial into the canonical report document.

    Every float in the document is derived from merged integers by the same
    expression regardless of engine, so serialized reports compare equal
    byte-for-byte across chunkings and parallel modes.
    """
    catalog = catalog or default_catalog()
    dedup = merged.dedup.summary() if merged.dedup.n_unique else None

    # group breakdown (Fig. 14) from the dense per-code sums
    max_code = merged.type_counts.size - 1
    group_rows: list[dict] = []
    if max_code >= 0:
        table = catalog.group_of_code_table(max_code).astype(np.int64)
        n_groups = max(int(g) for g in TypeGroup) + 1
        g_counts = np.zeros(n_groups, dtype=np.int64)
        g_bytes = np.zeros(n_groups, dtype=np.int64)
        np.add.at(g_counts, table, merged.type_counts)
        np.add.at(g_bytes, table, merged.type_bytes)
        rows = [
            {
                "label": TypeGroup(g).name.lower(),
                "count": int(g_counts[g]),
                "bytes": int(g_bytes[g]),
            }
            for g in sorted(int(g) for g in TypeGroup)
            if g_counts[g] > 0
        ]
        rows.sort(key=lambda r: -r["count"])
        group_rows = rows

    # common/rare type split (Fig. 13) under the relative capacity criterion
    present = merged.type_counts > 0
    total_bytes = int(merged.type_bytes.sum())
    threshold = COMMON_CAPACITY_SHARE * total_bytes
    common = present & (merged.type_bytes >= threshold)
    total_count = int(merged.type_counts.sum())
    rare_present = int(np.count_nonzero(present[RARE_TYPE_BASE:]))
    types_summary = {
        "total_types": int(np.count_nonzero(present)),
        "common_types": int(np.count_nonzero(common)),
        "rare_types": rare_present,
        "common_capacity_share": (
            int(merged.type_bytes[common].sum()) / total_bytes if total_bytes else 0.0
        ),
        "common_count_share": (
            int(merged.type_counts[common].sum()) / total_count if total_count else 0.0
        ),
    }

    # repeats histogram exists only now: copy counts are a post-merge quantity
    repeat_hist = (
        Histogram.from_values(merged.dedup.counts, REPEAT_EDGES)
        if merged.dedup.n_unique
        else Histogram.empty(REPEAT_EDGES)
    )

    referenced = merged.referenced_layers
    sharing = {
        "referenced_layers": referenced,
        "single_ref_fraction": (
            merged.single_ref_layers / referenced if referenced else 0.0
        ),
        "double_ref_fraction": (
            merged.double_ref_layers / referenced if referenced else 0.0
        ),
        "max_refs": merged.max_refs,
        "empty_layer_refs": merged.empty_layer_refs,
        "shared_bytes": merged.shared_slot_bytes,
        "unique_bytes": merged.referenced_cls_bytes,
        "sharing_ratio": (
            merged.shared_slot_bytes / merged.referenced_cls_bytes
            if merged.referenced_cls_bytes
            else 0.0
        ),
    }

    doc = {
        "schema": REPORT_SCHEMA,
        # NB: no chunk count in here — the document must be identical for
        # every chunking of the same dataset; engine metadata stays out.
        "totals": {
            "layers": merged.n_layers,
            "empty_layers": merged.n_empty_layers,
            "occurrences": merged.n_occurrences,
            "unique_files": merged.dedup.n_unique,
            "fls_bytes": merged.fls_bytes,
            "cls_bytes": merged.cls_bytes,
            "unique_file_bytes": merged.dedup.unique_bytes,
        },
        "groups": group_rows,
        "types": types_summary,
        "dedup": dedup,
        "sharing": sharing,
        "histograms": {
            "occurrence_size": merged.occ_size_hist.as_dict(),
            "layer_file_count": merged.layer_file_hist.as_dict(),
            "layer_fls": merged.layer_fls_hist.as_dict(),
            "file_repeats": repeat_hist.as_dict(),
            "layer_refs": merged.ref_hist.as_dict(),
        },
    }
    return ColumnarReport(doc=doc)


# -- engines --------------------------------------------------------------------


def streaming_report(
    specs: list[ChunkSpec],
    *,
    parallel: ParallelConfig | None = None,
    catalog: TypeCatalog | None = None,
    metrics: MetricsRegistry | None = None,
) -> ColumnarReport:
    """Analyze a spilled chunk store: dispatch specs through ``map_shards``,
    merge the partials, finalize.

    A failed shard aborts the whole report — unlike layer extraction, a
    missing chunk is not a tolerable data condition; the statistics would
    silently be about a different dataset.
    """
    if not specs:
        raise ValueError("no chunks to analyze")
    outcomes = map_shards(partial_from_spec, specs, parallel, metrics=metrics)
    failures = [o for o in outcomes if not o.ok]
    if failures:
        raise RuntimeError(
            f"{len(failures)} chunk(s) failed to analyze; first: "
            f"chunk {failures[0].index}: {failures[0].error}"
        )
    return finalize_report(
        merge_partials([o.value for o in outcomes]), catalog
    )


def report_from_chunks(
    chunks, *, catalog: TypeCatalog | None = None
) -> ColumnarReport:
    """Serial in-process engine over an in-memory chunk iterator."""
    partials = [partial_from_chunk(chunk) for chunk in chunks]
    if not partials:
        raise ValueError("no chunks to analyze")
    return finalize_report(merge_partials(partials), catalog)


def report_from_dataset(
    dataset: HubDataset, *, catalog: TypeCatalog | None = None
) -> ColumnarReport:
    """The in-memory reference engine: the whole dataset as one chunk.

    This is the monolithic computation the streaming engine must reproduce
    byte-for-byte — one pass over the full occurrence arrays, no chunk
    merge involved.
    """
    whole = next(
        chunks_from_dataset(
            dataset, chunk_occurrences=max(1, dataset.n_file_occurrences + 1)
        )
    )
    return finalize_report(partial_from_chunk(whole), catalog)
