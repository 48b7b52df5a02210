"""The calibration contract: every ``PAPER_BANDS`` row holds at the small
preset, at every seed the small bands are checked at.

This is the regression net for the generator — a parameter tweak that
drifts any headline distribution out of its band fails here, by name.
"""

from dataclasses import replace

import pytest

from repro.core.figures import FIGURES, compute_all_figures
from repro.core.paper_targets import BAND_SEEDS, PAPER_BANDS, band, out_of_band
from repro.synth import SyntheticHubConfig, generate_dataset


def assert_in_band(results, scale: str) -> None:
    misses = out_of_band(results, scale)
    assert not misses, "out of band:\n" + "\n".join(map(str, misses))


@pytest.fixture(scope="module")
def results(small_dataset):
    return compute_all_figures(small_dataset)


def test_all_calibration_bands_hold(small_config, results):
    assert small_config.seed == BAND_SEEDS["small"][0]
    assert_in_band(results, "small")


def test_report_covers_all_sections(results):
    """Every paper figure has bands, every row resolves at both presets, and
    a preset without bands is refused rather than half-checked."""
    assert set(PAPER_BANDS) == set(FIGURES)
    with pytest.raises(KeyError, match="no bands at scale 'tiny'"):
        out_of_band(results, "tiny")
    for figure_id, rows in PAPER_BANDS.items():
        for metric in rows:
            for scale in BAND_SEEDS:
                low, high = band(figure_id, metric, scale)
                assert low <= high, (figure_id, metric, scale)


def test_rows_carry_ratios(results):
    """A metric pushed out of its band, and one gone missing, come back as
    rows naming the measured value, the band and the paper's number."""
    by_id = {r.figure_id: r for r in results}
    fig24 = by_id["fig24"]
    pushed = replace(fig24, metrics={**fig24.metrics, "count_ratio": 63.0})
    del pushed.metrics["copies_median"]
    misses = out_of_band([*(r for r in results if r is not fig24), pushed], "small")
    assert [(m.figure_id, m.metric) for m in misses] == [
        ("fig24", "copies_median"),
        ("fig24", "count_ratio"),
    ]
    gone, high = misses
    assert gone.measured != gone.measured  # NaN
    assert (high.measured, high.paper, high.ratio) == (63.0, 31.5, 2.0)
    assert (high.low, high.high) == band("fig24", "count_ratio", "small")
    assert "fig24/count_ratio: measured 63" in str(high)


@pytest.mark.parametrize("seed", BAND_SEEDS["small"][1:])
def test_calibration_stable_across_seeds(seed):
    """The bands must hold for every listed seed, not just the fixture's."""
    dataset = generate_dataset(SyntheticHubConfig.small(seed=seed))
    assert_in_band(compute_all_figures(dataset), "small")
