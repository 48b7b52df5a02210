"""One compute function per paper figure (§IV–§V).

Each returns a :class:`FigureResult` holding the plotted series (CDFs,
histograms, breakdown rows), the headline metrics as measured, and the
paper's published values for the same metrics. EXPERIMENTS.md is rendered
from the results, and :func:`repro.core.paper_targets.out_of_band` checks
them against the reproduction's bands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core import characterization as ch
from repro.core.paper_targets import PAPER_TARGETS
from repro.dedup.bytype import dedup_by_figure_label, dedup_by_group
from repro.dedup.cross import cross_duplicate_report
from repro.dedup.engine import file_dedup_report
from repro.dedup.growth import dedup_growth
from repro.dedup.layer_sharing import layer_sharing_report
from repro.filetypes.catalog import TypeGroup
from repro.model.dataset import HubDataset
from repro.stats.cdf import EmpiricalCDF
from repro.stats.histogram import Histogram, linear_bins, log_bins
from repro.util.units import MiB


@dataclass
class FigureResult:
    figure_id: str
    title: str
    metrics: dict[str, float]
    paper: dict[str, float] = field(default_factory=dict)
    series: dict[str, object] = field(default_factory=dict)

    def ratio(self, metric: str) -> float:
        """measured / paper, NaN when the paper has no such target."""
        target = self.paper.get(metric)
        if not target:
            return float("nan")
        return self.metrics[metric] / target


def _result(figure_id: str, title: str, metrics: dict, series: dict) -> FigureResult:
    paper = PAPER_TARGETS.get(figure_id, {})
    return FigureResult(
        figure_id=figure_id,
        title=title,
        metrics=metrics,
        paper={k: v for k, v in paper.items() if k in metrics},
        series=series,
    )


def _size_hist(values: np.ndarray, *, up_to: float = 128 * MiB) -> Histogram:
    return Histogram.from_values(values, linear_bins(0.0, up_to, 5 * MiB))


# --------------------------------------------------------------------------
# §IV-A layers


def layer_sizes(ds: HubDataset) -> FigureResult:
    """Fig. 3: CDF + histogram of CLS and FLS."""
    cls_cdf = EmpiricalCDF(ds.layer_cls)
    fls_cdf = EmpiricalCDF(ds.layer_fls)
    metrics = {
        "cls_median": cls_cdf.median(),
        "cls_p90": cls_cdf.percentile(90),
        "fls_median": fls_cdf.median(),
        "fls_p90": fls_cdf.percentile(90),
        "frac_cls_below_4mb": cls_cdf.fraction_at_most(4e6),
        "frac_fls_below_4mb": fls_cdf.fraction_at_most(4e6),
    }
    series = {
        "cls_cdf": cls_cdf,
        "fls_cdf": fls_cdf,
        "cls_hist": _size_hist(ds.layer_cls),
        "fls_hist": _size_hist(ds.layer_fls),
    }
    return _result("fig3", "Layer size distribution (CLS/FLS)", metrics, series)


def compression_ratios(ds: HubDataset) -> FigureResult:
    """Fig. 4: FLS-to-CLS compression ratio CDF + histogram (non-empty
    layers only; an empty layer has no meaningful ratio)."""
    ratios = ds.compression_ratios
    ratios = ratios[ds.layer_fls > 0]
    cdf = EmpiricalCDF(ratios)
    hist = Histogram.from_values(ratios, linear_bins(0.0, 10.0, 1.0))
    metrics = {
        "ratio_median": cdf.median(),
        "ratio_p90": cdf.percentile(90),
        "ratio_max": cdf.max,
        "frac_1_2": cdf.fraction_below(2) - cdf.fraction_below(1),
        "frac_2_3": cdf.fraction_below(3) - cdf.fraction_below(2),
    }
    return _result(
        "fig4", "Layer compression ratio (FLS-to-CLS)", metrics,
        {"ratio_cdf": cdf, "ratio_hist": hist},
    )


def layer_file_counts(ds: HubDataset) -> FigureResult:
    """Fig. 5: files per layer."""
    counts = ds.layer_file_counts
    cdf = EmpiricalCDF(counts)
    metrics = {
        "files_median": cdf.median(),
        "files_p90": cdf.percentile(90),
        "files_max": cdf.max,
        "empty_fraction": float((counts == 0).mean()),
        "single_fraction": float((counts == 1).mean()),
    }
    return _result("fig5", "Files per layer", metrics, {"files_cdf": cdf})


def layer_dir_counts(ds: HubDataset) -> FigureResult:
    """Fig. 6: directories per layer."""
    cdf = EmpiricalCDF(ds.layer_dir_counts)
    metrics = {
        "dirs_median": cdf.median(),
        "dirs_p90": cdf.percentile(90),
        "dirs_max": cdf.max,
    }
    return _result("fig6", "Directories per layer", metrics, {"dirs_cdf": cdf})


def layer_depths(ds: HubDataset) -> FigureResult:
    """Fig. 7: max directory depth per layer (CDF + histogram)."""
    depths = ds.layer_max_depths
    nonempty = depths[ds.layer_file_counts > 0]
    cdf = EmpiricalCDF(depths)
    hist = Histogram.from_values(depths, linear_bins(0.0, 32.0, 1.0))
    values, counts = np.unique(nonempty, return_counts=True)
    metrics = {
        "depth_median": cdf.median(),
        "depth_p90": cdf.percentile(90),
        "depth_mode": float(values[np.argmax(counts)]) if values.size else 0.0,
    }
    return _result(
        "fig7", "Layer directory depth", metrics, {"depth_cdf": cdf, "depth_hist": hist}
    )


# --------------------------------------------------------------------------
# §IV-B images


def popularity(ds: HubDataset) -> FigureResult:
    """Fig. 8: repository pull-count distribution."""
    pulls = ds.pull_counts
    if pulls.size == 0:
        raise ValueError("dataset carries no pull counts")
    cdf = EmpiricalCDF(pulls)
    hist = Histogram.from_values(
        pulls[pulls > 0].astype(np.float64), log_bins(1.0, max(10.0, float(pulls.max())), 4)
    )
    metrics = {
        "pulls_median": cdf.median(),
        "pulls_p90": cdf.percentile(90),
        "pulls_max": cdf.max,
    }
    return _result(
        "fig8", "Repository popularity (pulls)", metrics,
        {"pulls_cdf": cdf, "pulls_hist": hist},
    )


def image_sizes(ds: HubDataset) -> FigureResult:
    """Fig. 9: image size distribution (CIS/FIS)."""
    cis_cdf = EmpiricalCDF(ds.image_cls)
    fis_cdf = EmpiricalCDF(ds.image_fls)
    metrics = {
        "cis_median": cis_cdf.median(),
        "cis_p90": cis_cdf.percentile(90),
        "fis_median": fis_cdf.median(),
        "fis_p90": fis_cdf.percentile(90),
        "fis_max": fis_cdf.max,
    }
    return _result(
        "fig9", "Image size distribution (CIS/FIS)", metrics,
        {"cis_cdf": cis_cdf, "fis_cdf": fis_cdf},
    )


def image_layer_counts(ds: HubDataset) -> FigureResult:
    """Fig. 10: layers per image (CDF + histogram)."""
    counts = ds.image_layer_counts
    cdf = EmpiricalCDF(counts)
    hist = Histogram.from_values(counts, linear_bins(0.0, 64.0, 1.0))
    values, freq = np.unique(counts, return_counts=True)
    metrics = {
        "layers_median": cdf.median(),
        "layers_p90": cdf.percentile(90),
        "layers_max": cdf.max,
        "layers_mode": float(values[np.argmax(freq)]),
        "single_layer_fraction": float((counts == 1).mean()),
    }
    return _result(
        "fig10", "Layers per image", metrics, {"layers_cdf": cdf, "layers_hist": hist}
    )


def image_dir_counts(ds: HubDataset) -> FigureResult:
    """Fig. 11: directories per image."""
    cdf = EmpiricalCDF(ds.image_dir_counts)
    metrics = {"dirs_median": cdf.median(), "dirs_p90": cdf.percentile(90)}
    return _result("fig11", "Directories per image", metrics, {"dirs_cdf": cdf})


def image_file_counts(ds: HubDataset) -> FigureResult:
    """Fig. 12: files per image."""
    cdf = EmpiricalCDF(ds.image_file_counts)
    metrics = {"files_median": cdf.median(), "files_p90": cdf.percentile(90)}
    return _result("fig12", "Files per image", metrics, {"files_cdf": cdf})


# --------------------------------------------------------------------------
# §IV-C files


def taxonomy(ds: HubDataset) -> FigureResult:
    """Fig. 13: common vs non-common type concentration."""
    summary = ch.taxonomy_summary(ds)
    metrics = {
        "common_type_count": summary.common_types,
        "common_capacity_share": summary.common_capacity_share,
        "total_type_count": summary.total_types,
    }
    return _result("fig13", "Type taxonomy concentration", metrics, {"summary": summary})


def group_shares(ds: HubDataset) -> FigureResult:
    """Fig. 14: file count % and capacity % by type group."""
    breakdown = ch.group_breakdown(ds)
    metrics: dict[str, float] = {}
    for label in ("document", "source", "eol", "script", "media"):
        metrics[f"count_share_{label}"] = breakdown.count_share(label)
    for label in ("eol", "archive", "document"):
        metrics[f"capacity_share_{label}"] = breakdown.capacity_share(label)
    return _result("fig14", "Shares by type group", metrics, {"breakdown": breakdown})


def group_avg_sizes(ds: HubDataset) -> FigureResult:
    """Fig. 15: average file size per type group."""
    breakdown = ch.group_breakdown(ds)
    metrics = {
        f"avg_size_{row.label}": row.avg_size() for row in breakdown.rows
    }
    return _result("fig15", "Average file size by group", metrics, {"breakdown": breakdown})


def _detail_metrics(breakdown: ch.Breakdown, mapping: dict[str, str]) -> dict[str, float]:
    """Build count/capacity-share metrics from figure labels.

    ``mapping`` maps metric suffix -> figure label.
    """
    metrics: dict[str, float] = {}
    for suffix, label in mapping.items():
        try:
            metrics[f"count_share_{suffix}"] = breakdown.count_share(label)
            metrics[f"capacity_share_{suffix}"] = breakdown.capacity_share(label)
            metrics[f"avg_size_{suffix}"] = breakdown.avg_size(label)
        except KeyError:
            continue  # type absent at this scale
    return metrics


def eol_detail(ds: HubDataset) -> FigureResult:
    """Fig. 16: EOL specific types."""
    breakdown = ch.label_breakdown(ds, TypeGroup.EOL)
    metrics = _detail_metrics(
        breakdown, {"elf": "ELF", "com": "Com.", "pe": "PE", "coff": "COFF", "library": "Lib."}
    )
    return _result("fig16", "EOL file types", metrics, {"breakdown": breakdown})


def source_detail(ds: HubDataset) -> FigureResult:
    """Fig. 17: source-code types."""
    breakdown = ch.label_breakdown(ds, TypeGroup.SOURCE)
    metrics = _detail_metrics(
        breakdown, {"c_cpp": "C/C++", "perl5": "Perl5", "ruby": "Ruby"}
    )
    return _result("fig17", "Source code types", metrics, {"breakdown": breakdown})


def script_detail(ds: HubDataset) -> FigureResult:
    """Fig. 18: script types."""
    breakdown = ch.label_breakdown(ds, TypeGroup.SCRIPT)
    metrics = _detail_metrics(
        breakdown, {"python": "Python", "shell": "Bash/shell", "ruby": "Ruby"}
    )
    return _result("fig18", "Script types", metrics, {"breakdown": breakdown})


def document_detail(ds: HubDataset) -> FigureResult:
    """Fig. 19: document types."""
    breakdown = ch.label_breakdown(ds, TypeGroup.DOCUMENT)
    metrics = _detail_metrics(
        breakdown, {"ascii": "ASCII", "utf": "UTF8/16", "xml_html": "XML/HTML"}
    )
    text_bytes = sum(
        row.bytes for row in breakdown.rows if row.label in ("ASCII", "UTF8/16", "ISO-8859")
    )
    metrics["text_capacity_share"] = (
        text_bytes / breakdown.total_bytes if breakdown.total_bytes else 0.0
    )
    return _result("fig19", "Document types", metrics, {"breakdown": breakdown})


def archive_detail(ds: HubDataset) -> FigureResult:
    """Fig. 20: archival types."""
    breakdown = ch.label_breakdown(ds, TypeGroup.ARCHIVE)
    metrics = _detail_metrics(
        breakdown,
        {"zip_gzip": "Zip/Gzip", "bzip2": "Bzip2", "tar": "Tar", "xz": "XZ"},
    )
    return _result("fig20", "Archival types", metrics, {"breakdown": breakdown})


def database_detail(ds: HubDataset) -> FigureResult:
    """Fig. 21: database types."""
    breakdown = ch.label_breakdown(ds, TypeGroup.DATABASE)
    metrics = _detail_metrics(
        breakdown, {"berkeley": "BerkeleyDB", "mysql": "MySQL", "sqlite": "SQLite"}
    )
    return _result("fig21", "Database types", metrics, {"breakdown": breakdown})


def media_detail(ds: HubDataset) -> FigureResult:
    """Fig. 22: image-data (media) types."""
    breakdown = ch.label_breakdown(ds, TypeGroup.MEDIA)
    metrics = _detail_metrics(breakdown, {"png": "PNG", "jpeg": "JPEG", "svg": "SVG"})
    return _result("fig22", "Media types", metrics, {"breakdown": breakdown})


# --------------------------------------------------------------------------
# §V deduplication


def layer_sharing(ds: HubDataset) -> FigureResult:
    """Fig. 23: layer reference counts + the no-sharing blowup."""
    report = layer_sharing_report(ds)
    n_images = max(1, ds.n_images)
    top_nonempty = 0
    for layer_id, refs in report.top_refs:
        if ds.layer_file_counts[layer_id] > 0:
            top_nonempty = refs
            break
    metrics = {
        "single_ref_fraction": report.single_ref_fraction,
        "double_ref_fraction": report.double_ref_fraction,
        "empty_layer_ref_share": report.empty_layer_refs / n_images,
        "top_stack_ref_share": top_nonempty / n_images,
        "sharing_ratio": report.sharing_ratio,
    }
    return _result("fig23", "Layer sharing", metrics, {"report": report})


def file_dedup(ds: HubDataset) -> FigureResult:
    """Fig. 24: file-level dedup and repeat counts."""
    report = file_dedup_report(ds)
    metrics = {
        "unique_fraction": report.unique_fraction,
        "count_ratio": report.count_ratio,
        "capacity_ratio": report.capacity_ratio,
        "copies_median": report.repeat_cdf.median(),
        "copies_p90": report.repeat_cdf.percentile(90),
        "multi_copy_fraction": report.multi_copy_fraction,
        "max_repeat_occurrence_share": report.max_repeat / max(1, report.n_occurrences),
    }
    return _result("fig24", "File-level deduplication", metrics, {"report": report})


def dedup_growth_figure(ds: HubDataset) -> FigureResult:
    """Fig. 25: dedup ratio vs dataset size."""
    points = dedup_growth(ds)
    if not points:
        raise ValueError("no growth points computed")
    metrics = {
        "count_ratio_small": points[0].count_ratio,
        "count_ratio_full": points[-1].count_ratio,
        "capacity_ratio_small": points[0].capacity_ratio,
        "capacity_ratio_full": points[-1].capacity_ratio,
    }
    return _result("fig25", "Dedup ratio growth", metrics, {"points": points})


def cross_duplicates(ds: HubDataset) -> FigureResult:
    """Fig. 26: cross-layer/cross-image duplicate ratios."""
    report = cross_duplicate_report(ds)
    metrics = {"layer_p10": report.layer_p10, "image_p10": report.image_p10}
    return _result("fig26", "Cross-layer/image duplicates", metrics, {"report": report})


def dedup_by_group_figure(ds: HubDataset) -> FigureResult:
    """Fig. 27: eliminated capacity per type group."""
    rows = dedup_by_group(ds)
    by_label = {row.label: row for row in rows}
    name_of_label = {
        "Scr.": "script", "SC.": "source", "Doc.": "document", "EOL": "eol",
        "Arch.": "archive", "Img.": "media", "DB.": "database",
    }
    metrics: dict[str, float] = {}
    for label, name in name_of_label.items():
        if label in by_label:
            metrics[name] = by_label[label].eliminated_capacity_fraction
    report = file_dedup_report(ds)
    metrics["overall"] = report.eliminated_capacity_fraction
    return _result("fig27", "Dedup by type group", metrics, {"rows": rows})


def dedup_eol_figure(ds: HubDataset) -> FigureResult:
    """Fig. 28: eliminated capacity per EOL type."""
    rows = dedup_by_figure_label(ds, TypeGroup.EOL)
    by_label = {row.label: row for row in rows}
    metrics: dict[str, float] = {}
    for label, name in {
        "ELF": "elf", "Com.": "com", "PE": "pe", "COFF": "coff", "Lib.": "library",
    }.items():
        if label in by_label:
            metrics[name] = by_label[label].eliminated_capacity_fraction
    total_redundant = sum(r.redundant_bytes for r in rows)
    if "ELF" in by_label and total_redundant:
        metrics["elf_redundant_capacity_share"] = (
            by_label["ELF"].redundant_bytes / total_redundant
        )
    return _result("fig28", "Dedup of EOL types", metrics, {"rows": rows})


def dedup_source_figure(ds: HubDataset) -> FigureResult:
    """Fig. 29: eliminated capacity per source-code type."""
    rows = dedup_by_figure_label(ds, TypeGroup.SOURCE)
    by_label = {row.label: row for row in rows}
    metrics: dict[str, float] = {}
    for label, name in {"C/C++": "c_cpp", "Perl5": "perl5", "Ruby": "ruby"}.items():
        if label in by_label:
            metrics[name] = by_label[label].eliminated_capacity_fraction
    total_redundant = sum(r.redundant_bytes for r in rows)
    if "C/C++" in by_label and total_redundant:
        metrics["c_cpp_redundant_capacity_share"] = (
            by_label["C/C++"].redundant_bytes / total_redundant
        )
    return _result("fig29", "Dedup of source-code types", metrics, {"rows": rows})


# --------------------------------------------------------------------------
# registry

FIGURES: dict[str, Callable[[HubDataset], FigureResult]] = {
    "fig3": layer_sizes,
    "fig4": compression_ratios,
    "fig5": layer_file_counts,
    "fig6": layer_dir_counts,
    "fig7": layer_depths,
    "fig8": popularity,
    "fig9": image_sizes,
    "fig10": image_layer_counts,
    "fig11": image_dir_counts,
    "fig12": image_file_counts,
    "fig13": taxonomy,
    "fig14": group_shares,
    "fig15": group_avg_sizes,
    "fig16": eol_detail,
    "fig17": source_detail,
    "fig18": script_detail,
    "fig19": document_detail,
    "fig20": archive_detail,
    "fig21": database_detail,
    "fig22": media_detail,
    "fig23": layer_sharing,
    "fig24": file_dedup,
    "fig25": dedup_growth_figure,
    "fig26": cross_duplicates,
    "fig27": dedup_by_group_figure,
    "fig28": dedup_eol_figure,
    "fig29": dedup_source_figure,
}


def compute_figure(dataset: HubDataset, figure_id: str) -> FigureResult:
    try:
        fn = FIGURES[figure_id]
    except KeyError:
        raise KeyError(
            f"unknown figure {figure_id!r}; known: {sorted(FIGURES)}"
        ) from None
    return fn(dataset)


def compute_all_figures(dataset: HubDataset) -> list[FigureResult]:
    """Compute every figure the paper publishes, in paper order."""
    return [fn(dataset) for fn in FIGURES.values()]
