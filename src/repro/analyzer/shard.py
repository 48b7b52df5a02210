"""The layer-work engine: how a list of layer digests becomes per-layer results.

Both consumers of "once per unique layer" — the analyzer (profiles) and the
vulnerability scanner (package inventories) — run through this module:

* work travels as plain data (:class:`LayerShard`) and comes back as plain
  data (:class:`ShardResult`), so ``ParallelConfig(mode="process")`` — the
  documented mode for CPU-bound extraction — can pickle both ways;
* :func:`run_shard` is the one per-layer loop: it calls
  ``per_layer(digest, blob, context)`` for every layer and captures a
  failure as data instead of raising, so one corrupt tarball cannot kill a
  shard of healthy ones;
* :func:`build_shards` is the one size-weighted partitioner;
* :func:`map_layers` is the one driver: shard count → :func:`build_shards`
  → :func:`~repro.parallel.pool.map_shards` → dead-shard accounting →
  values and failures by digest. Cache lookups, cache writes and metric
  names stay with the callers.

The workers handed to a pool are module-level functions, each one call of
:func:`run_shard`: :func:`profile_shard` here,
:func:`repro.scan.shard.scan_shard` for the scanner.

Two transports for the blob bytes:

* in-memory stores ship the compressed payloads inside the shard (they
  must cross the process boundary anyway);
* :class:`~repro.registry.blobstore.DiskBlobStore` ships only its root
  path — each worker opens the store locally and reads its own shard,
  which keeps the parent's pickling cost at a few strings per layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.analyzer.extract import extract_and_profile
from repro.obs import MetricsRegistry
from repro.parallel.partition import partition_work
from repro.parallel.pool import ParallelConfig, map_shards
from repro.registry.blobstore import BlobStore, DiskBlobStore
from repro.registry.errors import BlobNotFoundError
from repro.util.digest import DigestError


@dataclass(frozen=True)
class LayerShard:
    """One batch of per-layer work, shippable across processes.

    Exactly one blob transport is populated: ``blobs`` (payload bytes
    aligned with ``digests``) or ``blob_root`` (a DiskBlobStore root the
    worker reads from). ``context`` is the fixed third argument of the
    per-layer function: the analyzer's non-default ``TypeCatalog`` (``None``
    for the process-wide default, which the worker rebuilds locally instead
    of unpickling a copy per shard), the scanner's ``PackageModel``.
    """

    index: int
    digests: tuple[str, ...]
    blobs: tuple[bytes, ...] | None = None
    blob_root: str | None = None
    context: Any = None

    def __post_init__(self) -> None:
        if (self.blobs is None) == (self.blob_root is None):
            raise ValueError("exactly one of blobs/blob_root must be set")
        if self.blobs is not None and len(self.blobs) != len(self.digests):
            raise ValueError(
                f"{len(self.blobs)} blobs for {len(self.digests)} digests"
            )

    def __len__(self) -> int:
        return len(self.digests)


@dataclass
class ShardResult:
    """What one shard produced: a value per layer that extracted, an error
    string per layer that did not. ``values`` keeps the shard's digest
    order; global ordering is the merger's job."""

    index: int
    values: dict[str, Any] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)


def run_shard(
    shard: LayerShard, per_layer: Callable[[str, bytes, Any], Any]
) -> ShardResult:
    """Apply *per_layer* to every layer in *shard*; never raises for a bad
    layer.

    A layer whose blob is missing, whose gzip is corrupt, whose tar is
    malformed or whose bytes no longer hash to its digest lands in
    ``failures`` as ``"ExcType: detail"`` and its shard-mates are
    unaffected — at 1.8 M real-world layers, per-item breakage is a
    certainty the paper's 30-day analysis job had to survive too.
    """
    store = DiskBlobStore(shard.blob_root) if shard.blob_root is not None else None
    result = ShardResult(index=shard.index)
    for i, digest in enumerate(shard.digests):
        try:
            blob = store.get(digest) if store is not None else shard.blobs[i]
            result.values[digest] = per_layer(digest, blob, shard.context)
        except Exception as exc:  # noqa: BLE001 — per-layer failures are data
            result.failures[digest] = f"{type(exc).__name__}: {exc}"
    return result


def profile_shard(shard: LayerShard) -> ShardResult:
    """The analyzer's picklable worker: a
    :class:`~repro.analyzer.profiles.LayerProfile` per layer, measured by
    :func:`~repro.analyzer.extract.extract_and_profile`."""
    return run_shard(shard, extract_and_profile)


def build_shards(
    store: BlobStore,
    digests: list[str],
    n_shards: int,
    context: Any = None,
) -> tuple[list[LayerShard], dict[str, str]]:
    """Partition *digests* into at most *n_shards* balanced shards.

    Shards are weighted by compressed blob size via
    :func:`~repro.parallel.partition.partition_work` (one 800k-file layer
    should not share a worker with another giant). Digests whose blobs are
    already missing are reported in the returned failure map rather than
    shipped. *context* rides along on every shard.
    """
    if n_shards <= 0:
        raise ValueError(f"need at least one shard, got {n_shards}")
    failures: dict[str, str] = {}
    weights: dict[str, int] = {}
    available: list[str] = []
    for digest in digests:
        try:
            weights[digest] = store.size(digest)
            available.append(digest)
        except (BlobNotFoundError, DigestError, OSError) as exc:
            # a missing or unreadable blob is a data point
            failures[digest] = f"{type(exc).__name__}: {exc}"

    root = str(store.root) if isinstance(store, DiskBlobStore) else None
    parts = partition_work(
        available,
        min(n_shards, len(available)) or 1,
        weights=[weights[d] for d in available],
    )
    shards = [
        LayerShard(
            index=index,
            digests=tuple(part),
            blobs=tuple(store.get(d) for d in part) if root is None else None,
            blob_root=root,
            context=context,
        )
        for index, part in enumerate(filter(None, parts))
    ]
    return shards, failures


def map_layers(
    worker: Callable[[LayerShard], ShardResult],
    store: BlobStore,
    digests: list[str],
    config: ParallelConfig,
    context: Any = None,
    *,
    metrics: MetricsRegistry | None = None,
) -> tuple[dict[str, Any], dict[str, str]]:
    """Run *worker* over *digests* in ``config.chunk_size`` shards and
    return ``(values by digest, failure reason by digest)``.

    Every digest ends up in exactly one of the two maps: a blob missing
    before dispatch, a layer its worker could not read, and every layer of
    a shard that died whole are failures. Values arrive in shard order,
    which is not input order — callers merge by digest.
    """
    n_shards = max(1, math.ceil(len(digests) / config.chunk_size))
    shards, failed = build_shards(store, digests, n_shards, context)
    values: dict[str, Any] = {}
    for outcome in map_shards(worker, shards, config, metrics=metrics):
        if not outcome.ok:
            # the whole shard died (broken pool, unpicklable result);
            # every layer it carried is accounted for, not lost
            for digest in shards[outcome.index].digests:
                failed[digest] = f"shard failed: {outcome.error}"
            continue
        failed.update(outcome.value.failures)
        values.update(outcome.value.values)
    return values, failed
