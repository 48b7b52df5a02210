"""Bench-scale paper fidelity.

EXPERIMENTS.md is published from ``SyntheticHubConfig.bench`` at seed 2017;
the small-scale calibration tests don't exercise the same tails, so this
module checks every ``PAPER_BANDS`` row at the bench preset, plus the
relations between two metrics that the paper's text states, over one
bench dataset and one ``compute_all_figures`` pass (~30 s).
"""

import numpy as np
import pytest

from repro.core.figures import compute_all_figures
from repro.core.paper_targets import BAND_SEEDS, out_of_band
from repro.synth import SyntheticHubConfig, generate_dataset


@pytest.fixture(scope="module")
def bench_dataset():
    return generate_dataset(SyntheticHubConfig.bench(seed=BAND_SEEDS["bench"][0]))


@pytest.fixture(scope="module")
def figures(bench_dataset):
    return {r.figure_id: r for r in compute_all_figures(bench_dataset)}


def test_bench_scale_calibration_bands(figures):
    misses = out_of_band(figures.values(), "bench")
    assert not misses, "bench-scale bands drifted:\n" + "\n".join(map(str, misses))


def test_bench_scale_layer_and_image_relations(bench_dataset, figures):
    """§III-IV: compressed below uncompressed, heavy tails, the pull skew."""
    totals = bench_dataset.totals()
    assert 3 <= totals.n_layers / totals.n_images <= 9  # paper: 5.04
    assert totals.uncompressed_bytes > totals.compressed_bytes
    m = figures["fig3"].metrics
    assert m["cls_median"] < m["fls_median"]
    assert m["cls_p90"] < m["fls_p90"]
    m = figures["fig5"].metrics
    assert m["files_p90"] > 50 * m["files_median"]
    m = figures["fig6"].metrics
    assert m["dirs_p90"] > 10 * m["dirs_median"]  # paper: 826 vs 11
    m = figures["fig8"].metrics
    assert m["pulls_max"] > 1e6 * m["pulls_median"]
    m = figures["fig9"].metrics
    assert m["cis_median"] < m["fis_median"]
    assert m["fis_p90"] > 5 * m["fis_median"]
    m = figures["fig11"].metrics
    assert m["dirs_p90"] > 4 * m["dirs_median"]  # paper: 296 vs 7,344
    m = figures["fig12"].metrics
    assert m["files_p90"] > 5 * m["files_median"]  # paper: 1,090 vs 64,780


def test_bench_scale_file_type_relations(figures):
    """§IV-C's orderings of type shares and average sizes (Figs. 13-22)."""
    m = figures["fig13"].metrics
    assert m["common_type_count"] < m["total_type_count"]
    m = figures["fig14"].metrics
    assert m["count_share_document"] > m["count_share_source"]
    assert m["capacity_share_eol"] > m["capacity_share_archive"]
    assert m["capacity_share_eol"] > m["capacity_share_document"]
    m = figures["fig15"].metrics
    assert m["avg_size_database"] > max(v for k, v in m.items() if k != "avg_size_database")
    m = figures["fig16"].metrics
    assert m["count_share_com"] > m["count_share_elf"]
    assert m["avg_size_elf"] > 20 * m["avg_size_com"]  # 312 KB vs 9 KB
    m = figures["fig17"].metrics
    assert m["capacity_share_perl5"] > m["capacity_share_ruby"]  # 11 % vs 3 %
    m = figures["fig18"].metrics
    assert m["capacity_share_python"] > m["count_share_python"]  # 66 % vs 53.5 %
    assert m["count_share_shell"] > m["capacity_share_shell"]  # 20 % vs 6 %
    m = figures["fig19"].metrics
    assert m["capacity_share_xml_html"] > m["count_share_xml_html"]  # 18 % vs 13 %
    m = figures["fig20"].metrics
    assert m["capacity_share_zip_gzip"] < m["count_share_zip_gzip"]  # 70 % vs 96.3 %
    assert m["avg_size_zip_gzip"] < m["avg_size_bzip2"] < m["avg_size_tar"] < m["avg_size_xz"]
    m = figures["fig21"].metrics
    assert m["count_share_berkeley"] + m["count_share_mysql"] > 0.5
    assert m["capacity_share_sqlite"] > m["count_share_sqlite"]
    m = figures["fig22"].metrics
    assert m["capacity_share_png"] < m["count_share_png"]  # 45 % vs 67 %
    assert m["capacity_share_jpeg"] > m["count_share_jpeg"]


def test_bench_scale_headline_dedup(bench_dataset, figures):
    """§V at publication scale: the max-repeat file is empty, small files
    repeat more than big ones, dedup grows with the dataset, and the
    per-group and per-type orderings of Figs. 27-28."""
    repeats = bench_dataset.file_repeat_counts
    assert bench_dataset.file_sizes[int(np.argmax(repeats))] == 0
    assert figures["fig24"].series["report"].max_repeat_is_empty
    m = figures["fig24"].metrics
    assert m["count_ratio"] > m["capacity_ratio"]
    m = figures["fig25"].metrics
    assert m["count_ratio_full"] > 2 * m["count_ratio_small"]
    assert m["capacity_ratio_full"] > m["capacity_ratio_small"]
    running = 0.0
    for point in figures["fig25"].series["points"]:  # broadly increasing
        running = max(running, point.count_ratio)
        assert point.count_ratio > 0.6 * running
    m = figures["fig27"].metrics
    assert m["script"] > m["database"]
    assert m["source"] > m["database"]
    assert m["script"] > m["archive"]
    m = figures["fig28"].metrics
    assert m["elf"] > m["library"]
    assert m["com"] > m["library"]
