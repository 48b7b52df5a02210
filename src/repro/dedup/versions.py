"""Cross-version (multi-tag) analysis — the paper's first future-work item.

Given downloads of *every* tag of each repository (not just ``latest``),
quantify how image versions relate:

* per consecutive version pair, the layer-sharing Jaccard ratio
  (shared layers / union) — how much a new build reuses;
* the storage cost of keeping history: unique layer bytes across all tags
  vs. latest-only;
* how much of that cost file-level dedup claws back (version-to-version
  churn rewrites layers but barely changes their files).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.analyzer.profiles import ProfileStore
from repro.downloader.downloader import DownloadedImage
from repro.stats.cdf import EmpiricalCDF


def tag_sort_key(tag: str) -> tuple[int, str]:
    """Sort tags oldest-first: v1 < v2 < ... < latest.

    ``latest`` sorts after every version tag; unrecognized tags sit between
    the numbered versions and ``latest``. Shared with the churn engine
    (:mod:`repro.synth.churn`), which prunes and retargets version tags in
    exactly this order."""
    if tag == "latest":
        return (1_000_000, tag)
    if tag.startswith("v") and tag[1:].isdigit():
        return (int(tag[1:]), tag)
    return (500_000, tag)


#: historical private alias, kept for in-module callers
_tag_order = tag_sort_key


@dataclass(frozen=True)
class VersionAnalysis:
    n_repositories: int  # repositories with >= 2 tags
    n_version_pairs: int
    pair_jaccard_cdf: EmpiricalCDF | None  # layer sharing per adjacent pair
    latest_only_bytes: int  # unique layer bytes, latest tags only
    all_versions_bytes: int  # unique layer bytes, every tag
    deduped_file_bytes: int  # unique file bytes across every tag
    all_versions_file_bytes: int  # file bytes, layers counted once per digest

    @property
    def history_overhead(self) -> float:
        """Extra layer storage from keeping history (1.0 = free)."""
        if self.latest_only_bytes == 0:
            return 0.0
        return self.all_versions_bytes / self.latest_only_bytes

    @property
    def file_dedup_savings(self) -> float:
        """Capacity fraction file-level dedup removes across version
        families (churned layers share almost all their files)."""
        if self.all_versions_file_bytes == 0:
            return 0.0
        return 1.0 - self.deduped_file_bytes / self.all_versions_file_bytes

    def summary(self) -> dict[str, float]:
        return {
            "repositories": self.n_repositories,
            "version_pairs": self.n_version_pairs,
            "median_pair_jaccard": (
                self.pair_jaccard_cdf.median() if self.pair_jaccard_cdf else 0.0
            ),
            "history_overhead": self.history_overhead,
            "file_dedup_savings": self.file_dedup_savings,
        }


def analyze_versions(
    images: list[DownloadedImage], store: ProfileStore
) -> VersionAnalysis:
    """Analyze multi-tag downloads against their layer profiles."""
    by_repo: dict[str, list[DownloadedImage]] = defaultdict(list)
    for image in images:
        by_repo[image.repository].append(image)

    jaccards: list[float] = []
    n_pairs = 0
    multi_repos = 0
    latest_layers: set[str] = set()
    all_layers: set[str] = set()

    for repo, repo_images in by_repo.items():
        repo_images.sort(key=lambda img: _tag_order(img.tag))
        if len(repo_images) >= 2:
            multi_repos += 1
        for image in repo_images:
            digests = set(image.manifest.layer_digests)
            all_layers.update(digests)
            if image.tag == "latest":
                latest_layers.update(digests)
        for older, newer in zip(repo_images, repo_images[1:]):
            a = set(older.manifest.layer_digests)
            b = set(newer.manifest.layer_digests)
            union = a | b
            if union:
                jaccards.append(len(a & b) / len(union))
                n_pairs += 1

    def layer_bytes(digests: set[str]) -> int:
        return sum(store.layer(d).compressed_size for d in digests)

    def file_stats(digests: set[str]) -> tuple[int, int]:
        """(total file bytes over layers, unique file bytes)."""
        total = 0
        unique: dict[str, int] = {}
        for d in digests:
            layer = store.layer(d)
            total += sum(layer.file_sizes)
            for digest, size in zip(layer.file_digests, layer.file_sizes):
                unique.setdefault(digest, size)
        return total, sum(unique.values())

    all_file_total, all_file_unique = file_stats(all_layers)
    return VersionAnalysis(
        n_repositories=multi_repos,
        n_version_pairs=n_pairs,
        pair_jaccard_cdf=EmpiricalCDF(np.array(jaccards)) if jaccards else None,
        latest_only_bytes=layer_bytes(latest_layers),
        all_versions_bytes=layer_bytes(all_layers),
        deduped_file_bytes=all_file_unique,
        all_versions_file_bytes=all_file_total,
    )
