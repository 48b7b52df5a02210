"""End-to-end pipelines (§III, Fig. 2: Crawler → Downloader → Analyzer).

Two entry points:

* :func:`run_materialized_pipeline` — the full-fidelity path. Generates a
  small synthetic hub, materializes it into a real registry (tarballs,
  manifests, failure population), then crawls, downloads, extracts, and
  profiles real bytes. This is the path integration tests verify against
  ground truth.
* :func:`run_columnar_pipeline` — the scale path. Generates the calibrated
  columnar dataset directly (the statistical equivalent of what the
  materialized path measures) and computes every figure on it. The benchmark
  harness uses this at ~10⁴ layers / ~10⁷ file occurrences.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.analyzer.analyzer import AnalysisResult, Analyzer
from repro.analyzer.cache import ProfileCache
from repro.obs import MetricsRegistry
from repro.core.figures import FigureResult, compute_all_figures
from repro.crawler.crawler import CrawlResult, HubCrawler
from repro.downloader.downloader import Downloader, DownloadStats
from repro.downloader.session import NetworkModel, SimulatedSession
from repro.model.dataset import DatasetTotals, HubDataset
from repro.parallel.pool import ParallelConfig
from repro.registry.registry import Registry
from repro.registry.search import HubSearchEngine
from repro.synth.config import SyntheticHubConfig
from repro.synth.hubgen import generate_dataset
from repro.synth.materialize import GroundTruth, materialize_registry


@dataclass
class MaterializedPipelineResult:
    """Everything the full-fidelity run produced."""

    registry: Registry
    truth: GroundTruth
    crawl: CrawlResult
    download_stats: DownloadStats
    analysis: AnalysisResult
    figures: list[FigureResult]

    @property
    def dataset(self) -> HubDataset:
        return self.analysis.dataset

    def totals(self) -> DatasetTotals:
        return self.dataset.totals()


@dataclass
class ColumnarPipelineResult:
    """The scale run: the generated dataset plus all figure results."""

    dataset: HubDataset
    figures: list[FigureResult]

    def totals(self) -> DatasetTotals:
        return self.dataset.totals()


def run_materialized_pipeline(
    config: SyntheticHubConfig | None = None,
    *,
    network: NetworkModel | None = None,
    parallel: ParallelConfig | None = None,
    compute_figures: bool = True,
    cache_dir: str | Path | None = None,
    metrics: MetricsRegistry | None = None,
) -> MaterializedPipelineResult:
    """Generate → materialize → crawl → download → analyze, on real bytes.

    Use :meth:`SyntheticHubConfig.tiny` (default) or ``small``; larger
    configs would build every tarball for real and take accordingly long.
    ``cache_dir`` enables the persistent profile cache there — rerunning
    against an unchanged corpus skips extraction for every cached layer
    (see ``analysis.cache_stats``). ``metrics`` collects the pool and
    cache counters of the analysis phase.
    """
    config = config or SyntheticHubConfig.tiny()
    template = generate_dataset(config)
    registry, truth = materialize_registry(
        template,
        fail_share=config.fail_share,
        fail_auth_share=config.fail_auth_share,
        seed=config.seed,
    )

    search = HubSearchEngine(registry, seed=config.seed)
    crawl = HubCrawler(search).crawl()

    session = SimulatedSession(registry, network, seed=config.seed)
    downloader = Downloader(session, parallel=parallel)
    images = downloader.download_all(crawl.repositories)

    pull_counts = {
        repo.name: repo.pull_count for repo in registry.repositories()
    }
    analyzer = Analyzer(
        downloader.dest,
        parallel=parallel,
        cache=ProfileCache(cache_dir) if cache_dir is not None else None,
        metrics=metrics,
    )
    analysis = analyzer.analyze(images, pull_counts)

    figures = compute_all_figures(analysis.dataset) if compute_figures else []
    return MaterializedPipelineResult(
        registry=registry,
        truth=truth,
        crawl=crawl,
        download_stats=downloader.stats,
        analysis=analysis,
        figures=figures,
    )


def run_columnar_pipeline(
    config: SyntheticHubConfig | None = None,
) -> ColumnarPipelineResult:
    """Generate the calibrated dataset at scale and compute every figure."""
    config = config or SyntheticHubConfig.bench()
    dataset = generate_dataset(config)
    return ColumnarPipelineResult(
        dataset=dataset, figures=compute_all_figures(dataset)
    )


def run_http_pipeline(
    config: SyntheticHubConfig | None = None,
    *,
    parallel: ParallelConfig | None = None,
    compute_figures: bool = True,
    cache_dir: str | Path | None = None,
) -> MaterializedPipelineResult:
    """The materialized pipeline, but over a real HTTP socket.

    Spins up the Docker Registry v2 HTTP server on localhost, then runs the
    crawler (via the HTTP search endpoint) and downloader (via the HTTP v2
    API) against it — the §III pipeline across an actual network boundary.
    """
    from repro.registry.http import (
        HTTPSearchClient,
        HTTPSession,
        RegistryHTTPServer,
    )

    config = config or SyntheticHubConfig.tiny()
    template = generate_dataset(config)
    registry, truth = materialize_registry(
        template,
        fail_share=config.fail_share,
        fail_auth_share=config.fail_auth_share,
        seed=config.seed,
    )
    search = HubSearchEngine(registry, seed=config.seed)
    with (
        RegistryHTTPServer(registry, search) as server,
        HTTPSearchClient(server.base_url) as search_client,
        HTTPSession(server.base_url) as session,
    ):
        crawl = HubCrawler(search_client).crawl()
        downloader = Downloader(session, parallel=parallel)
        images = downloader.download_all(crawl.repositories)
        pull_counts = {r.name: r.pull_count for r in registry.repositories()}
        analyzer = Analyzer(
            downloader.dest,
            parallel=parallel,
            cache=ProfileCache(cache_dir) if cache_dir is not None else None,
        )
        analysis = analyzer.analyze(images, pull_counts)
    figures = compute_all_figures(analysis.dataset) if compute_figures else []
    return MaterializedPipelineResult(
        registry=registry,
        truth=truth,
        crawl=crawl,
        download_stats=downloader.stats,
        analysis=analysis,
        figures=figures,
    )
