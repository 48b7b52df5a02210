"""Dedup-aware lineage + vulnerability scanning.

The paper's layer-dedup finding (§IV/§V) applied to security scanning:
each *unique* layer is extracted and matched against the CVE feed exactly
once — O(unique layers) instead of the naive O(images x layers) — with
results memoized in a disk-backed :class:`ScanCache` keyed by (layer
digest, CVE-feed version), and image exposure aggregated up the synthetic
lineage DAG from :mod:`repro.synth.lineage`. The sharded extraction runs on
the analyzer's layer-work engine (:mod:`repro.analyzer.shard`); only the
per-layer function and its worker live here. Entry point: ``repro scan``.
"""

from repro.scan.cache import ScanCache, ScanCacheStats
from repro.scan.exercise import ScanExerciseReport, run_scan_exercise
from repro.scan.records import LayerScanRecord, record_from_json, record_to_json
from repro.scan.report import DecileRollup, ImageExposure, ScanReport, TypeRollup
from repro.scan.scanner import DedupScanner, ScanTarget, targets_from_truth
from repro.scan.shard import PackageInventory, extract_packages, scan_shard

__all__ = [
    "DecileRollup",
    "DedupScanner",
    "ImageExposure",
    "LayerScanRecord",
    "PackageInventory",
    "ScanCache",
    "ScanCacheStats",
    "ScanExerciseReport",
    "ScanReport",
    "ScanTarget",
    "TypeRollup",
    "extract_packages",
    "record_from_json",
    "record_to_json",
    "run_scan_exercise",
    "scan_shard",
    "targets_from_truth",
]
