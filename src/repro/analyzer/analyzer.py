"""The analyzer driver: profile every unique layer, then every image.

Mirrors §III-C's two-phase structure: layers are extracted/profiled once
(in parallel — extraction and hashing are the CPU cost), image profiles are
then assembled from manifest metadata plus pointers to the layer profiles.

The layer phase is sharded: unique digests (minus profile-cache hits) go
through the shared layer-work engine (:func:`~repro.analyzer.shard
.map_layers`) with the module-level worker :func:`~repro.analyzer.shard
.profile_shard` — picklable, so ``mode="process"`` genuinely fans
extraction out over cores — and are merged back deterministically in
first-seen digest order, so serial, thread, and process runs produce
byte-identical datasets. The cache lookup, the cache write and the
``analyzer_*`` metrics are this module's own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analyzer.cache import ProfileCache
from repro.analyzer.profiles import ImageProfile, LayerProfile, ProfileStore
from repro.analyzer.shard import map_layers, profile_shard
from repro.downloader.downloader import DownloadedImage
from repro.filetypes.catalog import TypeCatalog, default_catalog
from repro.model.dataset import HubDataset
from repro.obs import MetricsRegistry
from repro.parallel.pool import ParallelConfig
from repro.registry.blobstore import BlobStore


@dataclass
class AnalysisResult:
    """The analyzer's output: the profile store and its columnar dataset.

    ``failed_layers`` records layers whose blobs could not be extracted
    (missing, corrupt gzip, malformed tar); ``skipped_images`` the images
    that referenced them. At 1.8 M real-world layers some breakage is a
    certainty, and a 30-day analysis job must survive it.
    ``cache_stats`` is the profile-cache accounting for this run (all
    zeros when no cache was configured).
    """

    store: ProfileStore
    dataset: HubDataset
    failed_layers: dict[str, str] = field(default_factory=dict)
    skipped_images: list[str] = field(default_factory=list)
    cache_stats: dict[str, int] = field(default_factory=dict)

    @property
    def n_layers(self) -> int:
        return self.store.n_layers

    @property
    def n_images(self) -> int:
        return self.store.n_images


class Analyzer:
    """Profiles downloaded images from a local blob store.

    With a :class:`~repro.analyzer.cache.ProfileCache`, layers whose
    profiles are already cached (same digest, same catalog version) skip
    extraction entirely — on an unchanged corpus a warm run re-extracts
    nothing, mirroring the paper's layer-dedup observation that most
    layers recur.
    """

    def __init__(
        self,
        blobs: BlobStore,
        *,
        catalog: TypeCatalog | None = None,
        parallel: ParallelConfig | None = None,
        cache: ProfileCache | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.blobs = blobs
        self.catalog = catalog or default_catalog()
        # extraction is CPU-bound; threads still help because gzip/hashlib
        # release the GIL, processes scale it across cores for real.
        self.parallel = parallel or ParallelConfig(mode="thread", chunk_size=8)
        if cache is not None and cache.catalog_version != self.catalog.version():
            raise ValueError(
                f"profile cache was built for catalog {cache.catalog_version}, "
                f"this analyzer runs {self.catalog.version()}"
            )
        self.cache = cache
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    def analyze(
        self,
        images: list[DownloadedImage],
        pull_counts: dict[str, int] | None = None,
    ) -> AnalysisResult:
        """Profile all unique layers referenced by *images*, then build
        image profiles and the columnar dataset.

        ``pull_counts`` (repo → pulls) attaches popularity metadata, which
        the crawler/registry knows but the blobs do not.
        """
        store = ProfileStore()

        unique_digests: list[str] = []
        seen: set[str] = set()
        for image in images:
            for digest in image.manifest.layer_digests:
                if digest not in seen:
                    seen.add(digest)
                    unique_digests.append(digest)

        profiles, failed = self._profile_layers(unique_digests)
        # deterministic merge: layers enter the store in first-seen digest
        # order, whatever shard (or cache) produced them
        for digest in unique_digests:
            profile = profiles.get(digest)
            if profile is not None:
                store.add_layer(profile)

        pull_counts = pull_counts or {}
        skipped: list[str] = []
        for image in images:
            if any(d in failed for d in image.manifest.layer_digests):
                skipped.append(image.repository)
                continue
            store.add_image(
                ImageProfile(
                    name=image.repository,
                    layer_digests=list(image.manifest.layer_digests),
                    compressed_size=image.manifest.total_layer_size,
                    pull_count=pull_counts.get(image.repository, 0),
                )
            )
        return AnalysisResult(
            store=store,
            dataset=store.to_dataset(),
            failed_layers=failed,
            skipped_images=skipped,
            cache_stats=(
                self.cache.stats.to_dict()
                if self.cache is not None
                else {"hits": 0, "misses": 0, "stores": 0, "discarded": 0}
            ),
        )

    # -- layer phase ----------------------------------------------------------

    def _profile_layers(
        self, digests: list[str]
    ) -> tuple[dict[str, LayerProfile], dict[str, str]]:
        """Resolve every digest to a profile (cache first, then sharded
        extraction) or a failure reason."""
        profiles: dict[str, LayerProfile] = {}

        to_profile: list[str] = []
        for digest in digests:
            cached = self.cache.get(digest) if self.cache is not None else None
            if cached is not None:
                profiles[digest] = cached
            else:
                to_profile.append(digest)
        if self.cache is not None:
            hits = len(digests) - len(to_profile)
            self.metrics.counter(
                "analyzer_cache_hits_total", "layers served from the profile cache"
            ).inc(hits)
            self.metrics.counter(
                "analyzer_cache_misses_total", "layers that required extraction"
            ).inc(len(to_profile))
        if not to_profile:
            return profiles, {}

        extracted, failed = map_layers(
            profile_shard,
            self.blobs,
            to_profile,
            self.parallel,
            # the process-wide default is rebuilt worker-side, not shipped
            None if self.catalog is default_catalog() else self.catalog,
            metrics=self.metrics,
        )
        profiles.update(extracted)
        if self.cache is not None:
            for profile in extracted.values():
                self.cache.put(profile)

        self.metrics.counter(
            "analyzer_layers_profiled_total", "layers extracted and profiled"
        ).inc(len(to_profile) - sum(1 for d in to_profile if d in failed))
        self.metrics.counter(
            "analyzer_layers_failed_total", "layers that failed extraction"
        ).inc(sum(1 for d in to_profile if d in failed))
        return profiles, failed
