"""Deduplication analytics (§V).

Everything operates on the columnar :class:`~repro.model.dataset.HubDataset`:

* :mod:`engine` — file-level dedup ratios and repeat counts (Fig. 24);
* :mod:`layer_sharing` — reference counts and the no-sharing blowup (Fig. 23);
* :mod:`growth` — dedup ratio vs dataset size (Fig. 25);
* :mod:`cross` — cross-layer / cross-image duplicate ratios (Fig. 26);
* :mod:`bytype` — dedup by type group and specific type (Figs. 27–29).
"""

from repro.dedup.engine import FileDedupReport, file_dedup_report
from repro.dedup.streaming import FileDedupState, merge_dedup_states
from repro.dedup.versions import VersionAnalysis, analyze_versions, tag_sort_key
from repro.dedup.layer_sharing import LayerSharingReport, layer_sharing_report
from repro.dedup.growth import GrowthPoint, dedup_growth
from repro.dedup.cross import CrossDuplicateReport, cross_duplicate_report
from repro.dedup.bytype import TypeDedupRow, dedup_by_figure_label, dedup_by_group

__all__ = [
    "CrossDuplicateReport",
    "FileDedupReport",
    "FileDedupState",
    "GrowthPoint",
    "LayerSharingReport",
    "TypeDedupRow",
    "VersionAnalysis",
    "analyze_versions",
    "tag_sort_key",
    "cross_duplicate_report",
    "dedup_by_figure_label",
    "dedup_by_group",
    "dedup_growth",
    "file_dedup_report",
    "merge_dedup_states",
]
