"""Package extraction for the scanner: the per-layer function and its worker.

The shard, the never-raises loop, the partitioner and the driver are the
analyzer's (:mod:`repro.analyzer.shard`); this module adds only what is the
scanner's own — :func:`extract_packages`, run per layer with the
:class:`~repro.synth.lineage.PackageModel` as the shard's context, and
:func:`scan_shard`, the module-level function a ``ProcessPoolExecutor`` can
import on the other side.

Extraction re-hashes the blob against its digest before deriving the
inventory, so at-rest corruption surfaces as a per-layer
``DigestMismatchError`` failure, never as a silently wrong inventory.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analyzer.shard import LayerShard, ShardResult, run_shard
from repro.registry.errors import DigestMismatchError
from repro.synth.lineage import PackageModel
from repro.util.digest import sha256_bytes


@dataclass(frozen=True)
class PackageInventory:
    """What extraction found inside one layer: its ``name@version`` set."""

    digest: str
    compressed_size: int
    packages: tuple[tuple[str, str], ...]


def extract_packages(
    digest: str, blob: bytes, model: PackageModel
) -> PackageInventory:
    """Extract one layer's package inventory from its bytes.

    The blob is re-hashed first: a stored blob whose content no longer
    matches its digest raises :class:`DigestMismatchError` (the scanner
    records it as a failed layer) instead of yielding an inventory for
    bytes nobody pushed.
    """
    actual = sha256_bytes(blob)
    if actual != digest:
        raise DigestMismatchError(expected=digest, actual=actual)
    return PackageInventory(
        digest=digest,
        compressed_size=len(blob),
        packages=model.packages_for_layer(digest),
    )


def scan_shard(shard: LayerShard) -> ShardResult:
    """The scanner's picklable worker: a :class:`PackageInventory` per
    layer; never raises for a bad layer."""
    return run_shard(shard, extract_packages)
