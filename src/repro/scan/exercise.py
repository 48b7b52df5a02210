"""The ``repro scan --selfcheck`` invariant exercise.

Builds one materialized hub and scans it under every parallel mode, then
reruns warm, asserting the properties the subsystem promises:

1. the cold report is **byte-identical** across serial/thread/process;
2. ``unique_layer_scans`` equals the number of unique digests, and the
   savings ratio is exactly ``naive / unique`` (and >= 1);
3. a warm rerun performs **zero** extractions and reproduces the cold
   report byte-for-byte;
4. no layer fails on a healthy corpus.

Exit code 1 on any violation — this is the CI ``scan-smoke`` job.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.exercise import ExerciseReport, Invariant, seeded_hub
from repro.obs import MetricsRegistry, counter_total
from repro.parallel.pool import ParallelConfig
from repro.scan.cache import ScanCache
from repro.scan.report import ScanReport
from repro.scan.scanner import DedupScanner, targets_from_truth
from repro.synth.lineage import (
    LineageConfig,
    PackageModel,
    SyntheticCveDatabase,
    generate_lineage,
)

_MODES = ("serial", "thread", "process")


@dataclass
class ScanExerciseReport(ExerciseReport):
    """What the selfcheck measured, plus the pass/fail verdict per invariant."""

    seed: int
    scale: str
    modes: tuple[str, ...]
    n_images: int
    n_unique_layers: int
    savings_ratio: float
    warm_extractions: int

    def computed(self) -> dict:
        return {
            "modes": list(self.modes),
            "savings_ratio": round(self.savings_ratio, 4),
        }

    def lines(self) -> list[str]:
        return [
            f"scan selfcheck (seed {self.seed}, scale {self.scale}): "
            f"{self.n_images} images / {self.n_unique_layers} unique layers, "
            f"savings {self.savings_ratio:.2f}x",
        ]

    def render(self) -> str:
        # the one line the README documents and CI logs are read for
        return super().render() + "\nselfcheck: " + ("PASS" if self.ok else "FAIL")


def run_scan_exercise(
    *,
    seed: int = 2017,
    scale: str = "tiny",
    modes: tuple[str, ...] = _MODES,
    workers: int | None = None,
) -> ScanExerciseReport:
    """Run the full selfcheck; deterministic in *seed*."""
    hub = seeded_hub(scale, seed, failures=True)
    registry = hub.registry
    targets = targets_from_truth(registry, hub.truth)
    lineage = generate_lineage(
        [t.name for t in targets],
        [t.pull_count for t in targets],
        LineageConfig(seed=seed),
    )
    model = PackageModel(seed=seed)
    db = SyntheticCveDatabase(seed=seed)

    def scan(mode: str, cache: ScanCache, metrics: MetricsRegistry) -> ScanReport:
        scanner = DedupScanner(
            registry.blobs,
            db,
            model,
            parallel=ParallelConfig(
                mode=mode, workers=workers, chunk_size=8, min_parallel_items=0
            ),
            cache=cache,
            metrics=metrics,
        )
        return scanner.scan(targets, lineage)

    reports: dict[str, str] = {}
    findings: dict[str, str] = {}
    warm_json = ""
    warm_extractions = 0
    reference: ScanReport | None = None
    with tempfile.TemporaryDirectory() as tmp:
        for mode in modes:
            cache = ScanCache(
                Path(tmp) / mode, db_version=db.version()
            )
            report = scan(mode, cache, MetricsRegistry())
            reports[mode] = report.to_json()
            findings[mode] = report.findings_json()
            if reference is None:
                reference = report
        # warm rerun over the first mode's populated cache
        warm_metrics = MetricsRegistry()
        warm_cache = ScanCache(Path(tmp) / modes[0], db_version=db.version())
        warm_json = scan("serial", warm_cache, warm_metrics).findings_json()
        warm_extractions = int(
            counter_total(warm_metrics, "scan_layers_extracted_total")
        )

    assert reference is not None
    expected_unique = len(
        {d for t in targets for d in t.layer_digests}
    )
    naive = sum(len(t.layer_digests) for t in targets)
    scans = reference.unique_layer_scans
    distinct = len(set(reports.values()))
    invariants = [
        Invariant(
            "reports_identical_across_modes",
            distinct == 1,
            f"{distinct} distinct cold report(s) over {', '.join(modes)}",
        ),
        Invariant(
            "unique_scans_equal_unique_digests",
            scans == expected_unique,
            f"{scans} layer scans for {expected_unique} unique digests",
        ),
        Invariant(
            "savings_ratio_is_naive_over_unique",
            reference.savings_ratio * scans == naive
            and reference.savings_ratio >= 1.0,
            f"ratio {reference.savings_ratio:.4f} x {scans} scans vs {naive} "
            f"naive image-layer scans (and must be >= 1)",
        ),
        Invariant(
            "warm_rerun_zero_extractions",
            warm_extractions == 0,
            f"{warm_extractions} layers extracted on the warm rerun",
        ),
        Invariant(
            "warm_findings_identical",
            warm_json == findings[modes[0]],
            f"warm findings vs the cold {modes[0]} run, compared as JSON",
        ),
        Invariant(
            "no_failed_layers",
            reference.n_failed_layers == 0,
            f"{reference.n_failed_layers} layers failed on a healthy corpus",
        ),
    ]
    return ScanExerciseReport(
        seed=seed,
        scale=scale,
        modes=tuple(modes),
        n_images=reference.n_images,
        n_unique_layers=reference.n_unique_layers,
        savings_ratio=reference.savings_ratio,
        warm_extractions=warm_extractions,
        invariants=invariants,
    )
