"""The serial-identity gate behind ``repro bench``.

The paper's §III analysis was one parallel job over the whole hub. Here
that job runs through :mod:`repro.parallel.pool` in serial, thread or
process mode, and its one contract is that every mode and every cache
state gives the serial answer. This module checks that contract and
nothing else: it times nothing and writes no file (speed is measured by
``benchmarks/e2e``). Each check reads its evidence from the code under
test's own counters, never from the component whose behaviour it checks:

* **pipeline** — materialize, crawl and download a hub once, then analyze
  it in every mode with a cold and then a warm :class:`ProfileCache`.
  Every cell must match the serial, uncached :func:`_fingerprint`; a warm
  cell must count no ``analyzer_cache_misses_total``; a cold thread or
  process cell must have started :data:`WORKERS` pool workers.
* **scan** — a cold then a warm :class:`~repro.scan.scanner.DedupScanner`
  pass over the smallest scale: the same findings, and no
  ``scan_layers_extracted_total`` on the warm pass.
* **columnar** — spill the chunked hub into at least :data:`MIN_CHUNKS`
  chunks and run :func:`streaming_report` in every mode: thread and
  process must equal serial, each on :data:`WORKERS` workers, and serial
  must equal the in-memory :func:`report_from_dataset` of the same hub.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from repro.analyzer.analyzer import Analyzer
from repro.analyzer.cache import ProfileCache
from repro.core.colstream import report_from_dataset, streaming_report
from repro.crawler.crawler import HubCrawler
from repro.downloader.downloader import Downloader
from repro.downloader.session import SimulatedSession
from repro.exercise import SeededHub
from repro.obs import MetricsRegistry, counter_total
from repro.parallel.pool import ParallelConfig
from repro.registry.search import HubSearchEngine
from repro.synth.config import SyntheticHubConfig
from repro.synth.hubgen import generate_dataset
from repro.synth.streamgen import (
    DEFAULT_CHUNK_OCCURRENCES,
    iter_dataset_chunks,
    open_chunk_store,
    spill_chunks,
)

MODES = ("serial", "thread", "process")

#: a fixed pool size rather than the CPU count: a pool of one takes
#: ``map_shards``' serial path, and a thread or process cell run that way
#: would only compare serial with serial
WORKERS = 2

#: the columnar store is cut into at least this many chunks, so every
#: parallel cell has shards to hand to each of its workers
MIN_CHUNKS = 8

#: scales the materialized pipeline can build, smallest first. ``mid`` is
#: tiny's layer shape at 4x the image count; ``small`` keeps the heavier
#: integration-test shape and is opt-in.
SCALES = ("tiny", "mid", "small")

#: the columnar family adds two scales that only fit chunked: ``10m``
#: (~10.2 M file occurrences) and ``full``, the whole bench preset (~38 M).
COLUMNAR_SCALES = SCALES + ("10m", "full")


def scale_config(scale: str, seed: int) -> SyntheticHubConfig:
    """The hub configuration a bench *scale* names."""
    if scale == "mid":
        return replace(
            SyntheticHubConfig.tiny(seed=seed),
            n_images=120,
            n_rare_types=40,
            n_official=10,
        )
    if scale == "10m":
        return replace(SyntheticHubConfig.bench(seed=seed), n_images=800)
    if scale == "full":
        return SyntheticHubConfig.bench(seed=seed)
    if scale not in SCALES:
        raise ValueError(
            f"unknown bench scale {scale!r}; expected one of {COLUMNAR_SCALES}"
        )
    return getattr(SyntheticHubConfig, scale)(seed=seed)


@dataclass(frozen=True)
class Check:
    """One checked cell: ``ok`` and what was seen."""

    family: str  # "pipeline" | "scan" | "columnar"
    scale: str
    cell: str  # "thread/cold", "process", "warm", ...
    ok: bool
    detail: str

    def to_dict(self) -> dict:
        return asdict(self)


def _check(
    family: str, scale: str, cell: str, problems: list[str], evidence: str
) -> Check:
    """A check that fails with its *problems*, or passes on *evidence*."""
    return Check(
        family, scale, cell, not problems, "; ".join(problems) or evidence
    )


def _worker_problems(metrics: MetricsRegistry, mode: str) -> list[str]:
    """Complain unless the last dispatch in *mode* started a real pool."""
    workers = int(counter_total(metrics, "parallel_pool_workers", mode=mode))
    return [] if workers >= WORKERS else [f"ran on {workers} worker"]


def _parallel(mode: str) -> ParallelConfig:
    return ParallelConfig(
        mode=mode, workers=WORKERS, chunk_size=8, min_parallel_items=0
    )


def _fingerprint(analysis) -> tuple:
    """A dataset identity check that is cheap and order-sensitive."""
    dataset = analysis.dataset
    return (
        analysis.n_layers,
        analysis.n_images,
        dataset.layer_fls.tolist(),
        dataset.file_sizes.tolist(),
        sorted(analysis.failed_layers),
    )


def check_pipeline(scale: str, hub: SeededHub) -> list[Check]:
    """Every mode x {cold, warm} profile cache against the serial,
    uncached analysis of *hub*."""
    registry = hub.registry
    crawl = HubCrawler(HubSearchEngine(registry, seed=hub.config.seed)).crawl()
    downloader = Downloader(
        SimulatedSession(registry, seed=hub.config.seed),
        parallel=ParallelConfig(mode="thread", workers=WORKERS),
    )
    images = downloader.download_all(crawl.repositories)
    pull_counts = {r.name: r.pull_count for r in registry.repositories()}

    def analyze(mode: str, cache: ProfileCache | None):
        metrics = MetricsRegistry()
        analyzer = Analyzer(
            downloader.dest, parallel=_parallel(mode), cache=cache, metrics=metrics
        )
        return _fingerprint(analyzer.analyze(images, pull_counts)), metrics

    reference, _ = analyze("serial", None)
    checks = []
    with tempfile.TemporaryDirectory() as tmp:
        for mode in MODES:
            for state in ("cold", "warm"):
                got, metrics = analyze(mode, ProfileCache(Path(tmp) / mode))
                problems = [] if got == reference else ["MISMATCH with serial"]
                if state == "warm":
                    misses = int(
                        counter_total(metrics, "analyzer_cache_misses_total")
                    )
                    if misses:
                        problems.append(f"{misses} cache misses on a warm cache")
                    evidence = "identical to serial, no cache misses"
                elif mode != "serial":
                    problems += _worker_problems(metrics, mode)
                    evidence = f"identical to serial on {WORKERS} workers"
                else:
                    evidence = "identical to serial"
                checks.append(
                    _check("pipeline", scale, f"{mode}/{state}", problems, evidence)
                )
    return checks


def check_scan(scale: str, hub: SeededHub) -> Check:
    """A warm :class:`DedupScanner` pass must reproduce the cold findings
    without extracting a layer."""
    from repro.scan.cache import ScanCache
    from repro.scan.scanner import DedupScanner, targets_from_truth
    from repro.synth.lineage import (
        LineageConfig,
        PackageModel,
        SyntheticCveDatabase,
        generate_lineage,
    )

    seed = hub.config.seed
    targets = targets_from_truth(hub.registry, hub.truth)
    lineage = generate_lineage(
        [t.name for t in targets],
        [t.pull_count for t in targets],
        LineageConfig(seed=seed),
    )
    db = SyntheticCveDatabase(seed=seed)
    model = PackageModel(seed=seed)

    def scan(cache_dir: str) -> tuple[str, int]:
        metrics = MetricsRegistry()
        scanner = DedupScanner(
            hub.registry.blobs, db, model,
            parallel=_parallel("thread"),
            cache=ScanCache(cache_dir, db_version=db.version()),
            metrics=metrics,
        )
        findings = scanner.scan(targets, lineage).findings_json()
        return findings, int(counter_total(metrics, "scan_layers_extracted_total"))

    with tempfile.TemporaryDirectory() as tmp:
        cold, _ = scan(tmp)
        warm, extracted = scan(tmp)
    problems = [] if warm == cold else ["MISMATCH with the cold findings"]
    if extracted:
        problems.append(f"{extracted} layers extracted on a warm cache")
    return _check(
        "scan", scale, "warm", problems, "cold findings, no layer extracted"
    )


def check_columnar(scale: str, seed: int = 2017) -> list[Check]:
    """The streaming engine over a spilled store, in every mode, against
    the in-memory engine over the same hub."""
    config = scale_config(scale, seed)
    dataset = generate_dataset(config)
    expected = report_from_dataset(dataset).to_json()
    budget = min(
        DEFAULT_CHUNK_OCCURRENCES,
        math.ceil(dataset.n_file_occurrences / MIN_CHUNKS),
    )
    del dataset  # the spill below regenerates the hub chunk by chunk

    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "chunks"
        spill_chunks(iter_dataset_chunks(config, chunk_occurrences=budget), store)
        specs = open_chunk_store(store)

        def report(mode: str) -> tuple[str, MetricsRegistry]:
            metrics = MetricsRegistry()
            got = streaming_report(specs, parallel=_parallel(mode), metrics=metrics)
            return got.to_json(), metrics

        reference, _ = report("serial")
        checks = [
            _check(
                "columnar", scale, "serial",
                [] if reference == expected else ["MISMATCH with in-memory"],
                f"identical to in-memory over {len(specs)} chunks",
            )
        ]
        for mode in MODES:
            if mode == "serial":
                continue
            got, metrics = report(mode)
            problems = [] if got == reference else ["MISMATCH with serial"]
            problems += _worker_problems(metrics, mode)
            checks.append(
                _check(
                    "columnar", scale, mode, problems,
                    f"identical to serial on {WORKERS} workers",
                )
            )
    return checks


def run_bench(
    scales: tuple[str, ...],
    *,
    columnar: bool = False,
    seed: int = 2017,
) -> list[Check]:
    """Every check of one family over *scales*: the pipeline (plus the
    scan on the smallest scale), or with *columnar* the streaming engine."""
    known = COLUMNAR_SCALES if columnar else SCALES
    if not scales or any(scale not in known for scale in scales):
        raise ValueError(f"bench scales {list(scales)!r}; expected some of {known}")
    if columnar:
        return [check for scale in scales for check in check_columnar(scale, seed)]
    smallest = min(scales, key=SCALES.index)
    checks = []
    for scale in scales:
        hub = SeededHub(scale_config(scale, seed), failures=True)
        checks += check_pipeline(scale, hub)
        if scale == smallest:
            checks.append(check_scan(scale, hub))
    return checks


def render_checks(checks: list[Check]) -> str:
    """One ``[ok ]`` / ``[FAIL]`` line per check, then the tally."""
    lines = [
        f"  [{'ok ' if c.ok else 'FAIL'}] {c.family}/{c.scale} {c.cell}: {c.detail}"
        for c in checks
    ]
    passed = sum(c.ok for c in checks)
    lines.append(f"{passed}/{len(checks)} checks ok")
    return "\n".join(lines)
