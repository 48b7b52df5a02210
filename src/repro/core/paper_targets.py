"""Every number the paper publishes, and the bands the reproduction is held to.

``PAPER_TARGETS`` holds the published values, keyed by figure id and metric
name: the comparison baselines EXPERIMENTS.md reports against.
``PAPER_BANDS`` holds, for the same keys, the range each measured value
must stay in at a scale preset; :func:`out_of_band` checks a
:func:`~repro.core.figures.compute_all_figures` result against it. Units are
bytes for sizes, plain counts/ratios otherwise; names match the keys the
figure compute functions emit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

MB = 1_000_000
GB = 1_000_000_000

#: figure id -> {metric name -> paper value}
PAPER_TARGETS: dict[str, dict[str, float]] = {
    "fig3": {  # layer size distribution
        "cls_median": 4 * MB,
        "cls_p90": 63 * MB,
        "fls_median": 4 * MB,
        "fls_p90": 177 * MB,
    },
    "fig4": {  # compression ratios
        "ratio_median": 2.6,
        "ratio_p90": 4.0,
        "ratio_max": 1026.0,
        "frac_1_2": 300_000 / 1_792_609,
        "frac_2_3": 600_000 / 1_792_609,
    },
    "fig5": {  # files per layer
        "files_median": 30,
        "files_p90": 7410,
        "empty_fraction": 0.07,
        "single_fraction": 0.27,
        "files_max": 826_196,
    },
    "fig6": {  # directories per layer
        "dirs_median": 11,
        "dirs_p90": 826,
        "dirs_max": 111_940,
    },
    "fig7": {  # layer directory depth
        "depth_median": 4,
        "depth_p90": 10,
        "depth_mode": 3,
    },
    "fig8": {  # repository popularity
        "pulls_median": 40,
        "pulls_p90": 333,
        "pulls_max": 650e6,
    },
    "fig9": {  # image sizes
        "cis_median": 17 * MB,
        "cis_p90": 0.48 * GB,
        "fis_median": 94 * MB,
        "fis_p90": 1.3 * GB,
        "fis_max": 498 * GB,
    },
    "fig10": {  # layers per image
        "layers_median": 8,
        "layers_p90": 18,
        "layers_mode": 8,
        "layers_max": 120,
        "single_layer_fraction": 7_060 / 355_319,
    },
    "fig11": {  # directories per image
        "dirs_median": 296,
        "dirs_p90": 7_344,
    },
    "fig12": {  # files per image
        "files_median": 1_090,
        "files_p90": 64_780,
    },
    "fig13": {  # taxonomy
        "common_type_count": 133,
        "common_capacity_share": 0.984,
        "total_type_count": 1_500,
    },
    "fig14": {  # type-group shares
        "count_share_document": 0.44,
        "count_share_source": 0.13,
        "count_share_eol": 0.11,
        "count_share_script": 0.09,
        "count_share_media": 0.04,
        "capacity_share_eol": 0.37,
        "capacity_share_archive": 0.23,
        "capacity_share_document": 0.14,
    },
    "fig15": {  # average file size by group (bytes)
        "avg_size_database": 978_800,
        "avg_size_eol": 100_000,
        "avg_size_archive": 100_000,
    },
    "fig16": {  # EOL types
        "count_share_com": 0.64,
        "count_share_elf": 0.30,
        "capacity_share_elf": 0.84,
        "count_share_pe": 0.02,
        "avg_size_elf": 312_000,
        "avg_size_com": 9_000,
    },
    "fig17": {  # source code types
        "count_share_c_cpp": 0.803,
        "capacity_share_c_cpp": 0.80,
        "count_share_perl5": 0.09,
        "capacity_share_perl5": 0.11,
        "count_share_ruby": 0.08,
        "capacity_share_ruby": 0.03,
    },
    "fig18": {  # script types
        "count_share_python": 0.535,
        "capacity_share_python": 0.66,
        "count_share_shell": 0.20,
        "capacity_share_shell": 0.06,
        "count_share_ruby": 0.10,
        "capacity_share_ruby": 0.05,
    },
    "fig19": {  # document types
        "count_share_ascii": 0.80,
        "count_share_utf": 0.05,
        "count_share_xml_html": 0.13,
        "capacity_share_xml_html": 0.18,
        "text_capacity_share": 0.70,
    },
    "fig20": {  # archival types
        "count_share_zip_gzip": 0.963,
        "capacity_share_zip_gzip": 0.70,
        "avg_size_zip_gzip": 67_000,
        "avg_size_bzip2": 199_000,
        "avg_size_tar": 466_000,
        "avg_size_xz": 534_000,
    },
    "fig21": {  # database types
        "count_share_berkeley": 0.33,
        "count_share_mysql": 0.30,
        "count_share_sqlite": 0.07,
        "capacity_share_sqlite": 0.57,
    },
    "fig22": {  # media types
        "count_share_png": 0.67,
        "capacity_share_png": 0.45,
        "capacity_share_jpeg": 0.20,
    },
    "fig23": {  # layer sharing
        "single_ref_fraction": 0.90,
        "double_ref_fraction": 0.05,
        "empty_layer_ref_share": 184_171 / 355_319,
        "top_stack_ref_share": 33_413 / 355_319,
        "sharing_ratio": 85 / 47,
    },
    "fig24": {  # file-level dedup
        "unique_fraction": 0.032,
        "count_ratio": 31.5,
        "capacity_ratio": 6.9,
        "copies_median": 4,
        "copies_p90": 10,
        "multi_copy_fraction": 0.994,
        "max_repeat_occurrence_share": 53_654_306 / 5_278_465_130,
    },
    "fig25": {  # dedup growth
        "count_ratio_small": 3.6,
        "count_ratio_full": 31.5,
        "capacity_ratio_small": 1.9,
        "capacity_ratio_full": 6.9,
    },
    "fig26": {  # cross-layer/image duplicates
        "layer_p10": 0.976,
        "image_p10": 0.994,
    },
    "fig27": {  # dedup by group (eliminated capacity fraction)
        "overall": 0.8569,
        "script": 0.98,
        "source": 0.968,
        "document": 0.92,
        "eol": 0.86,
        "archive": 0.86,
        "media": 0.86,
        "database": 0.76,
    },
    "fig28": {  # EOL dedup
        "elf": 0.87,
        "com": 0.87,
        "pe": 0.87,
        "coff": 0.61,
        "library": 0.535,
        "elf_redundant_capacity_share": 0.734,
    },
    "fig29": {  # source-code dedup
        "c_cpp": 0.90,
        "perl5": 0.90,
        "ruby": 0.90,
        "c_cpp_redundant_capacity_share": 0.77,
    },
    "table1": {  # §III dataset totals
        "distinct_repositories": 457_627,
        "raw_search_results": 634_412,
        "images_downloaded": 355_319,
        "images_failed": 111_384,
        "failed_auth_share": 0.13,
        "failed_no_latest_share": 0.87,
        "unique_layers": 1_792_609,
        "file_occurrences": 5_278_465_130,
        "compressed_bytes": 47e12,
        "uncompressed_bytes": 167e12,
    },
}


#: an inclusive ``(low, high)`` range in the metric's own units
Band = tuple[float, float]

#: scale preset -> the seeds its bands are checked at (the ``bench`` seed is
#: EXPERIMENTS.md's; tier-1 generates every one of these datasets)
BAND_SEEDS: dict[str, tuple[int, ...]] = {
    "bench": (2017,),
    "small": (1234, 1, 99, 31337),
}

#: figure id -> {metric name -> band}. A plain band holds at both presets of
#: ``BAND_SEEDS``; a ``{"bench": band, "small": band}`` row has one band per
#: preset where one cannot serve both. Bands bracket today's measured values
#: (EXPERIMENTS.md's ratios say how far those are from the paper), so any
#: drift fails; relations between two metrics are plain asserts in the tests.
PAPER_BANDS: dict[str, dict[str, Band | dict[str, Band]]] = {
    "fig3": {
        "cls_median": {"bench": (0.4 * MB, 0.61 * MB), "small": (0.087 * MB, 0.26 * MB)},
        "cls_p90": {"bench": (38 * MB, 58 * MB), "small": (3.8 * MB, 11 * MB)},
        "fls_median": {"bench": (0.92 * MB, 1.4 * MB), "small": (0.2 * MB, 0.61 * MB)},
        "fls_p90": {"bench": (86 * MB, 130 * MB), "small": (8.1 * MB, 23 * MB)},
        "frac_cls_below_4mb": {"bench": (0.58, 0.86), "small": (0.75, 0.99)},
        "frac_fls_below_4mb": {"bench": (0.5, 0.77), "small": (0.68, 0.92)},
    },
    "fig4": {
        "frac_1_2": (0.2, 0.36),
        "frac_2_3": {"bench": (0.4, 0.62), "small": (0.32, 0.49)},
        "ratio_max": {"bench": (920, 1_400), "small": (5.6, 2_100)},
        "ratio_median": (1.8, 2.9),
        "ratio_p90": (2.7, 4.2),
    },
    "fig5": {
        "empty_fraction": (0.044, 0.076),
        "files_max": {"bench": (24_000, 36_000), "small": (2_700, 3_400)},
        "files_median": {"bench": (25, 39), "small": (5, 17)},
        "files_p90": {"bench": (3_400, 5_200), "small": (310, 810)},
        "single_fraction": {"bench": (0.2, 0.3), "small": (0.19, 0.28)},
    },
    "fig6": {
        "dirs_max": {"bench": (10_000, 17_000), "small": (770, 4_600)},
        "dirs_median": {"bench": (8, 12), "small": (6, 9)},
        "dirs_p90": {"bench": (290, 450), "small": (54, 110)},
    },
    "fig7": {
        "depth_median": (4, 4),
        "depth_mode": (3, 3),
        "depth_p90": (7, 11),
    },
    "fig8": {
        "pulls_max": (650_000_000, 650_000_000),
        "pulls_median": (28, 49),
        "pulls_p90": (250, 640),
    },
    "fig9": {
        "cis_median": {"bench": (55 * MB, 84 * MB), "small": (10 * MB, 35 * MB)},
        "cis_p90": {"bench": (730 * MB, 1.2 * GB), "small": (42 * MB, 200 * MB)},
        "fis_max": {"bench": (32 * GB, 50 * GB), "small": (260 * MB, 1.1 * GB)},
        "fis_median": {"bench": (120 * MB, 200 * MB), "small": (22 * MB, 80 * MB)},
        "fis_p90": {"bench": (1.6 * GB, 2.5 * GB), "small": (95 * MB, 470 * MB)},
    },
    "fig10": {
        "layers_max": (24, 87),
        "layers_median": {"bench": (8, 8), "small": (6.8, 9)},
        "layers_mode": (8, 8),
        "layers_p90": (14, 22),
        "single_layer_fraction": {"bench": (0.017, 0.027), "small": (0.003, 0.052)},
    },
    "fig11": {
        "dirs_median": {"bench": (480, 740), "small": (140, 440)},
        "dirs_p90": {"bench": (3_200, 4_900), "small": (510, 2_200)},
    },
    "fig12": {
        "files_median": {"bench": (5_300, 8_000), "small": (790, 3_400)},
        "files_p90": {"bench": (44_000, 68_000), "small": (3_700, 13_000)},
    },
    "fig13": {
        "common_capacity_share": (0.95, 1),
        "common_type_count": {"bench": (59, 73), "small": (140, 160)},
        "total_type_count": {"bench": (1_300, 1_600), "small": (140, 170)},
    },
    "fig14": {
        "capacity_share_archive": (0.23, 0.25),
        "capacity_share_document": (0.16, 0.18),
        "capacity_share_eol": (0.42, 0.45),
        "count_share_document": (0.42, 0.46),
        "count_share_eol": (0.1, 0.12),
        "count_share_media": (0.038, 0.042),
        "count_share_script": (0.087, 0.093),
        "count_share_source": (0.12, 0.14),
    },
    "fig15": {
        "avg_size_archive": (76_000, 81_000),
        "avg_size_database": (940_000, 1_100_000),
        "avg_size_eol": (100_000, 120_000),
    },
    "fig16": {
        "avg_size_com": (8_000, 8_600),
        "avg_size_elf": (300_000, 330_000),
        "capacity_share_elf": (0.83, 0.89),
        "count_share_com": (0.62, 0.66),
        "count_share_elf": (0.29, 0.31),
        "count_share_pe": (0.019, 0.021),
    },
    "fig17": {
        "capacity_share_c_cpp": (0.79, 0.85),
        "capacity_share_perl5": (0.1, 0.12),
        "capacity_share_ruby": (0.029, 0.032),
        "count_share_c_cpp": (0.77, 0.83),
        "count_share_perl5": (0.087, 0.093),
        "count_share_ruby": (0.077, 0.083),
    },
    "fig18": {
        "capacity_share_python": (0.69, 0.74),
        "capacity_share_ruby": (0.052, 0.056),
        "capacity_share_shell": (0.062, 0.067),
        "count_share_python": (0.51, 0.56),
        "count_share_ruby": (0.096, 0.11),
        "count_share_shell": (0.19, 0.21),
    },
    "fig19": {
        "capacity_share_xml_html": (0.16, 0.18),
        "count_share_ascii": (0.77, 0.83),
        "count_share_utf": (0.048, 0.052),
        "count_share_xml_html": (0.12, 0.14),
        "text_capacity_share": (0.66, 0.72),
    },
    "fig20": {
        "avg_size_bzip2": (190_000, 210_000),
        "avg_size_tar": (450_000, 480_000),
        "avg_size_xz": (510_000, 560_000),
        "avg_size_zip_gzip": (64_000, 70_000),
        "capacity_share_zip_gzip": (0.79, 0.85),
        "count_share_zip_gzip": (0.94, 1),
    },
    "fig21": {
        "capacity_share_sqlite": (0.54, 0.6),
        "count_share_berkeley": (0.31, 0.35),
        "count_share_mysql": (0.29, 0.31),
        "count_share_sqlite": (0.066, 0.074),
    },
    "fig22": {
        "capacity_share_jpeg": (0.23, 0.26),
        "capacity_share_png": (0.54, 0.57),
        "count_share_png": (0.64, 0.7),
    },
    "fig23": {
        "double_ref_fraction": (0.013, 0.051),
        "empty_layer_ref_share": {"bench": (0.42, 0.6), "small": (0.42, 0.61)},
        "sharing_ratio": {"bench": (1.3, 2.1), "small": (1.27, 2.53)},
        "single_ref_fraction": {"bench": (0.86, 1), "small": (0.82, 1)},
        "top_stack_ref_share": {"bench": (0.079, 0.12), "small": (0.1, 0.25)},
    },
    "fig24": {
        "capacity_ratio": {"bench": (5.9, 8.5), "small": (3.9, 6.1)},
        "copies_median": (4, 4),
        "copies_p90": (13, 21),
        "count_ratio": {"bench": (16, 26), "small": (12, 15)},
        "max_repeat_occurrence_share": (0.0085, 0.013),
        "multi_copy_fraction": {"bench": (0.985, 1), "small": (0.98, 1)},
        "unique_fraction": {"bench": (0.037, 0.057), "small": (0.066, 0.091)},
    },
    "fig25": {
        "capacity_ratio_full": {"bench": (5.9, 8.9), "small": (3.9, 6.1)},
        "capacity_ratio_small": {"bench": (1.4, 2.2), "small": (0.9, 1.6)},
        "count_ratio_full": {"bench": (16, 26), "small": (10, 15)},
        "count_ratio_small": {"bench": (1.9, 3), "small": (0.93, 2.3)},
    },
    "fig26": {
        "image_p10": (0.993, 1),
        "layer_p10": (0.998, 1),
    },
    "fig27": {
        "archive": {"bench": (0.77, 0.95), "small": (0.72, 0.9)},
        "database": {"bench": (0.61, 0.75), "small": (0.52, 0.88)},
        "document": {"bench": (0.79, 0.98), "small": (0.74, 0.93)},
        "eol": {"bench": (0.78, 0.97), "small": (0.71, 0.88)},
        "media": {"bench": (0.75, 0.93), "small": (0.68, 0.84)},
        "overall": {"bench": (0.77, 0.95), "small": (0.73, 0.86)},
        "script": (0.8, 1),
        "source": (0.77, 1),
    },
    "fig28": {
        "coff": (0.51, 0.67),
        "com": {"bench": (0.83, 1), "small": (0.77, 0.93)},
        "elf": {"bench": (0.8, 0.99), "small": (0.71, 0.89)},
        "elf_redundant_capacity_share": (0.79, 0.97),
        "library": (0.49, 0.67),
        "pe": (0.62, 0.94),
    },
    "fig29": {
        "c_cpp": {"bench": (0.86, 1), "small": (0.81, 1)},
        "c_cpp_redundant_capacity_share": (0.74, 0.91),
        "perl5": {"bench": (0.86, 1), "small": (0.74, 0.97)},
        "ruby": {"bench": (0.83, 1), "small": (0.72, 0.92)},
    },
}


@dataclass(frozen=True)
class BandMiss:
    """One banded metric outside its band (``measured`` is NaN when the
    figure no longer emits it)."""

    figure_id: str
    metric: str
    measured: float
    low: float
    high: float
    paper: float | None

    @property
    def ratio(self) -> float:
        """measured / paper, NaN when the paper has no such target."""
        return self.measured / self.paper if self.paper else float("nan")

    def __str__(self) -> str:
        return (
            f"{self.figure_id}/{self.metric}: measured {self.measured:.4g} "
            f"outside [{self.low:.4g}, {self.high:.4g}] (x{self.ratio:.2f} of paper)"
        )


def band(figure_id: str, metric: str, scale: str) -> Band:
    """The band *metric* of *figure_id* is held to at *scale*."""
    row = PAPER_BANDS[figure_id][metric]
    return row[scale] if isinstance(row, dict) else row


def out_of_band(results: Iterable, scale: str) -> list[BandMiss]:
    """The banded metrics of *results* (``FigureResult`` objects, e.g. a
    ``compute_all_figures`` list) that fall outside their band at *scale*,
    in table order; a banded figure or metric the results lack counts as
    out of band."""
    if scale not in BAND_SEEDS:
        raise KeyError(f"no bands at scale {scale!r}; known: {sorted(BAND_SEEDS)}")
    metrics = {result.figure_id: result.metrics for result in results}
    misses = []
    for figure_id, rows in PAPER_BANDS.items():
        measured = metrics.get(figure_id, {})
        for metric in rows:
            low, high = band(figure_id, metric, scale)
            value = float(measured.get(metric, float("nan")))
            if not low <= value <= high:
                paper = PAPER_TARGETS.get(figure_id, {}).get(metric)
                misses.append(BandMiss(figure_id, metric, value, low, high, paper))
    return misses


def paper_value(figure_id: str, metric: str) -> float:
    """Look up one published number; raises KeyError with a helpful message."""
    try:
        return PAPER_TARGETS[figure_id][metric]
    except KeyError:
        raise KeyError(f"no paper target for {figure_id}/{metric}") from None
