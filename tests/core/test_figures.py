"""Tests for the figure registry: every figure computes on a calibrated
dataset and reports the headline metrics the paper publishes."""

import json

import pytest

from repro.core.figures import FIGURES, FigureResult, compute_all_figures, compute_figure
from repro.core.paper_targets import PAPER_TARGETS
from tests.golden import assert_identity


@pytest.fixture(scope="module")
def results(small_dataset) -> dict[str, FigureResult]:
    results = {r.figure_id: r for r in compute_all_figures(small_dataset)}
    assert_identity(
        "figures_small",
        json.dumps(
            {fid: [r.metrics, r.paper] for fid, r in results.items()}, sort_keys=True
        ).encode(),
    )
    return results


class TestRegistry:
    def test_covers_every_paper_figure(self):
        expected = {f"fig{i}" for i in range(3, 30)}
        assert set(FIGURES) == expected

    def test_unknown_figure_rejected(self, small_dataset):
        with pytest.raises(KeyError):
            compute_figure(small_dataset, "fig99")

    def test_all_figures_compute(self, results):
        assert len(results) == 27

    def test_metric_names_align_with_targets(self, results):
        """Every published target must be measured (no silent omissions)."""
        skippable = {  # absolute-scale maxima that only exist at paper scale
            "fig5": {"files_max"},
            "fig6": {"dirs_max"},
            "fig9": {"fis_max"},
            "fig13": {"total_type_count", "common_type_count"},
        }
        for figure_id, result in results.items():
            targets = set(PAPER_TARGETS[figure_id])
            measured = set(result.metrics)
            missing = targets - measured - skippable.get(figure_id, set())
            assert not missing, f"{figure_id} does not measure {missing}"


class TestHeadlineShapes:
    """Relations between two metrics on the calibrated small dataset; each
    metric's own band is a ``PAPER_BANDS`` row (tests/synth/test_calibration.py)."""

    def test_fig5_atoms(self, results):
        metrics = results["fig5"].metrics
        assert metrics["single_fraction"] > metrics["empty_fraction"]  # 27 % vs 7 %

    def test_fig8_popularity_skew(self, results):
        metrics = results["fig8"].metrics
        assert metrics["pulls_max"] > 1000 * metrics["pulls_median"]

    def test_fig14_document_majority(self, results):
        metrics = results["fig14"].metrics
        assert metrics["count_share_document"] > metrics["count_share_eol"]

    def test_fig16_elf_capacity_dominates(self, results):
        metrics = results["fig16"].metrics  # Com. leads on count, ELF on capacity
        assert metrics["count_share_com"] > metrics["count_share_elf"]
        assert metrics["capacity_share_elf"] > metrics["capacity_share_com"]

    def test_fig23_sharing(self, results):
        metrics = results["fig23"].metrics  # the empty layer is the most shared
        assert metrics["empty_layer_ref_share"] > metrics["top_stack_ref_share"]

    def test_fig24_dedup_direction(self, results):
        metrics = results["fig24"].metrics
        assert metrics["count_ratio"] > metrics["capacity_ratio"] > 1

    def test_fig25_growth(self, results):
        metrics = results["fig25"].metrics
        assert metrics["count_ratio_full"] > metrics["count_ratio_small"]

    def test_fig27_script_beats_database(self, results):
        metrics = results["fig27"].metrics
        assert metrics["script"] > metrics["database"]


class TestFigureResult:
    def test_ratio_helper(self, results):
        result = results["fig24"]
        assert result.ratio("count_ratio") == pytest.approx(
            result.metrics["count_ratio"] / 31.5
        )

    def test_ratio_nan_without_target(self, results):
        result = results["fig3"]
        assert result.ratio("frac_cls_below_4mb") != result.ratio("frac_cls_below_4mb")

    def test_series_attached(self, results):
        assert "cls_cdf" in results["fig3"].series
        assert "report" in results["fig24"].series
