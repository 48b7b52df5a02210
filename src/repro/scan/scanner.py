"""The dedup-aware vulnerability scanner.

A naive scanner extracts every layer of every image — O(images x layers).
The paper's layer-sharing result (§V-A) says most of that work is
duplicated, so :class:`DedupScanner` does the O(unique layers) version:

1. collect unique layer digests in first-seen order across all targets;
2. resolve each against the :class:`~repro.scan.cache.ScanCache`
   (keyed by CVE-feed version — a new feed drop misses cleanly);
3. extract the misses **once each** through the layer-work engine the
   analyzer uses (:func:`~repro.analyzer.shard.map_layers`: sharded,
   size-balanced, failures come back as data);
4. match inventories against the CVE feed, write the cache, and
   aggregate image exposure up the lineage DAG — a child is exposed to
   everything its base images ship.

Serial, thread, and process runs produce byte-identical reports: shard
results merge in first-seen digest order and every synthetic draw is a
pure function of its seed path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.analyzer.shard import map_layers
from repro.obs import MetricsRegistry
from repro.parallel.pool import ParallelConfig
from repro.registry.blobstore import BlobStore
from repro.registry.registry import Registry
from repro.scan.cache import ScanCache
from repro.scan.records import LayerScanRecord
from repro.scan.report import DecileRollup, ImageExposure, ScanReport, TypeRollup
from repro.scan.shard import scan_shard
from repro.synth.lineage import (
    SEVERITIES,
    ImageLineage,
    PackageModel,
    SyntheticCveDatabase,
    is_official,
)
from repro.synth.materialize import GroundTruth


@dataclass(frozen=True)
class ScanTarget:
    """One image to scan: its manifest's layer digests plus popularity."""

    name: str
    layer_digests: tuple[str, ...]
    pull_count: int = 0


def targets_from_truth(registry: Registry, truth: GroundTruth) -> list[ScanTarget]:
    """Scan targets for every successfully materialized image, in dataset
    order (deterministic, so first-seen digest order is too)."""
    targets: list[ScanTarget] = []
    for name, manifest_digest in truth.images.items():
        manifest = registry.get_manifest(name, manifest_digest)
        targets.append(
            ScanTarget(
                name=name,
                layer_digests=tuple(manifest.layer_digests),
                pull_count=registry.repository(name).pull_count,
            )
        )
    return targets


class DedupScanner:
    """Scans images for vulnerabilities, extracting each unique layer once.

    ``blobs`` is where layer bytes live (the registry's store or a
    downloader's destination), ``db`` the CVE feed to match against,
    ``model`` the package-inventory model. With a ``cache``, layers
    scanned under the same feed version are never extracted again — a
    warm run over an unchanged corpus performs zero extractions.
    """

    def __init__(
        self,
        blobs: BlobStore,
        db: SyntheticCveDatabase,
        model: PackageModel | None = None,
        *,
        parallel: ParallelConfig | None = None,
        cache: ScanCache | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.blobs = blobs
        self.db = db
        self.model = model or PackageModel()
        self.parallel = parallel or ParallelConfig(mode="thread", chunk_size=8)
        if cache is not None and cache.db_version != db.version():
            raise ValueError(
                f"scan cache was built for CVE feed {cache.db_version}, "
                f"this scanner runs {db.version()}"
            )
        self.cache = cache
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    # -- the scan -------------------------------------------------------------

    def scan(
        self,
        targets: list[ScanTarget],
        lineage: ImageLineage | None = None,
    ) -> ScanReport:
        """Scan *targets*, aggregating exposure up *lineage* when given."""
        started = time.perf_counter()

        unique_digests: list[str] = []
        seen: set[str] = set()
        for target in targets:
            for digest in target.layer_digests:
                if digest not in seen:
                    seen.add(digest)
                    unique_digests.append(digest)

        records, failed, n_hits = self._scan_layers(unique_digests)
        report = self._aggregate(
            targets, lineage, records, failed, n_hits, len(unique_digests)
        )

        self.metrics.counter(
            "scan_images_total", "images aggregated by the scanner"
        ).inc(len(targets))
        for severity in SEVERITIES:
            count = report.severity_totals.get(severity, 0)
            if count:
                self.metrics.counter(
                    "scan_vulns_total",
                    "unique vulnerabilities found, by severity",
                    severity=severity,
                ).inc(count)
        self.metrics.histogram(
            "scan_seconds", "wall time of whole scan() calls"
        ).observe(time.perf_counter() - started)
        return report

    # -- layer phase ----------------------------------------------------------

    def _scan_layers(
        self, digests: list[str]
    ) -> tuple[dict[str, LayerScanRecord], dict[str, str], int]:
        """Resolve every digest to a scan record (cache first, then sharded
        extraction) or a failure reason. Returns (records, failures, hits)."""
        records: dict[str, LayerScanRecord] = {}

        to_extract: list[str] = []
        for digest in digests:
            cached = self.cache.get(digest) if self.cache is not None else None
            if cached is not None:
                records[digest] = cached
            else:
                to_extract.append(digest)
        n_hits = len(digests) - len(to_extract)
        self.metrics.counter(
            "scan_layers_cached_total", "layers served from the scan cache"
        ).inc(n_hits)
        if not to_extract:
            self.metrics.counter(
                "scan_layers_extracted_total",
                "layers whose packages were extracted",
            ).inc(0)
            return records, {}, n_hits

        inventories, failed = map_layers(
            scan_shard,
            self.blobs,
            to_extract,
            self.parallel,
            self.model,
            metrics=self.metrics,
        )

        # deterministic merge: records enter in first-seen digest order,
        # whatever shard produced them; vuln matching is driver-side so the
        # feed stays in one place
        for digest in to_extract:
            inventory = inventories.get(digest)
            if inventory is None:
                continue
            vulns = tuple(
                vuln
                for name, version in inventory.packages
                for vuln in self.db.vulnerabilities(name, version)
            )
            record = LayerScanRecord(
                digest=digest,
                compressed_size=inventory.compressed_size,
                packages=inventory.packages,
                vulns=vulns,
            )
            records[digest] = record
            if self.cache is not None:
                self.cache.put(record)
            self.metrics.histogram(
                "scan_layer_packages", "packages extracted per layer"
            ).observe(len(inventory.packages))

        self.metrics.counter(
            "scan_layers_extracted_total", "layers whose packages were extracted"
        ).inc(len(to_extract) - sum(1 for d in to_extract if d in failed))
        self.metrics.counter(
            "scan_layers_failed_total", "layers that failed extraction"
        ).inc(sum(1 for d in to_extract if d in failed))
        return records, failed, n_hits

    # -- image aggregation ----------------------------------------------------

    def _aggregate(
        self,
        targets: list[ScanTarget],
        lineage: ImageLineage | None,
        records: dict[str, LayerScanRecord],
        failed: dict[str, str],
        n_hits: int,
        n_unique: int,
    ) -> ScanReport:
        severity_of: dict[tuple[str, str, str], str] = {}
        for record in records.values():
            for vuln in record.vulns:
                severity_of[vuln.key] = vuln.severity

        own_sets: dict[str, set[tuple[str, str, str]]] = {}
        scanned_counts: dict[str, int] = {}
        for target in targets:
            own: set[tuple[str, str, str]] = set()
            n_scanned = 0
            for digest in target.layer_digests:
                record = records.get(digest)
                if record is None:
                    continue
                n_scanned += 1
                own.update(vuln.key for vuln in record.vulns)
            own_sets[target.name] = own
            scanned_counts[target.name] = n_scanned

        exposures: list[ImageExposure] = []
        for target in targets:
            own = own_sets[target.name]
            inherited: set[tuple[str, str, str]] = set()
            parent = None
            depth = 0
            if lineage is not None and target.name in lineage:
                node = lineage.node(target.name)
                parent, depth = node.parent, node.depth
                for ancestor in lineage.ancestors(target.name):
                    ancestor_own = own_sets.get(ancestor)
                    if ancestor_own is not None:
                        inherited.update(ancestor_own)
            exposure = own | inherited
            by_severity = {severity: 0 for severity in SEVERITIES}
            for key in exposure:
                by_severity[severity_of[key]] += 1
            exposures.append(
                ImageExposure(
                    name=target.name,
                    official=is_official(target.name),
                    parent=parent,
                    depth=depth,
                    pull_count=target.pull_count,
                    n_layers=len(target.layer_digests),
                    n_scanned_layers=scanned_counts[target.name],
                    partial=scanned_counts[target.name] < len(target.layer_digests),
                    n_vulns=len(exposure),
                    n_inherited=len(inherited - own),
                    n_introduced=len(own - inherited),
                    by_severity=tuple(
                        by_severity[severity] for severity in SEVERITIES
                    ),
                )
            )

        corpus_by_severity = {severity: 0 for severity in SEVERITIES}
        for key, severity in severity_of.items():
            corpus_by_severity[severity] += 1

        return ScanReport(
            db_version=self.db.version(),
            n_images=len(targets),
            n_unique_layers=n_unique,
            naive_layer_scans=sum(len(t.layer_digests) for t in targets),
            unique_layer_scans=n_unique,
            n_extracted=n_unique - n_hits - len(failed),
            n_cache_hits=n_hits,
            n_failed_layers=len(failed),
            severity_totals=corpus_by_severity,
            n_unique_vulns=len(severity_of),
            images=exposures,
            by_type=_type_rollups(exposures),
            by_decile=_decile_rollups(exposures),
            failed_layers=failed,
        )


def _type_rollups(exposures: list[ImageExposure]) -> list[TypeRollup]:
    rollups = []
    for label, predicate in (
        ("official", lambda e: e.official),
        ("community", lambda e: not e.official),
    ):
        members = [e for e in exposures if predicate(e)]
        if not members:
            continue
        by_severity = tuple(
            sum(e.by_severity[i] for e in members) for i in range(len(SEVERITIES))
        )
        total = sum(e.n_vulns for e in members)
        rollups.append(
            TypeRollup(
                label=label,
                n_images=len(members),
                n_vulns_total=total,
                mean_vulns_per_image=total / len(members),
                by_severity=by_severity,
            )
        )
    return rollups


def _decile_rollups(exposures: list[ImageExposure]) -> list[DecileRollup]:
    if not exposures:
        return []
    critical_index = SEVERITIES.index("critical")
    ranked = sorted(exposures, key=lambda e: (-e.pull_count, e.name))
    buckets: dict[int, list[ImageExposure]] = {}
    for i, exposure in enumerate(ranked):
        buckets.setdefault(i * 10 // len(ranked), []).append(exposure)
    return [
        DecileRollup(
            decile=decile,
            n_images=len(members),
            mean_vulns_per_image=sum(e.n_vulns for e in members) / len(members),
            max_vulns=max(e.n_vulns for e in members),
            images_with_critical=sum(
                1 for e in members if e.by_severity[critical_index] > 0
            ),
        )
        for decile, members in sorted(buckets.items())
    ]
