"""Content-addressable blob storage.

Registries store layer tarballs, manifests and config blobs keyed by content
digest. Two backends: an in-memory dict (tests, small materialized hubs) and
an on-disk sharded layout matching how real registries fan blobs out over
directories (``blobs/sha256/ab/abcdef.../data``).
"""

from __future__ import annotations

import abc
import os
import tempfile
from pathlib import Path
from typing import Iterator

from repro.registry.errors import BlobNotFoundError, DigestMismatchError
from repro.util.digest import parse_digest, sha256_bytes


class BlobStore(abc.ABC):
    """Digest-addressed byte storage."""

    @abc.abstractmethod
    def put(self, data: bytes, *, digest: str | None = None) -> str:
        """Store *data*; returns its sha256 digest. Idempotent. *digest*
        skips the hash for a caller that just computed it from *data*."""

    @abc.abstractmethod
    def get(self, digest: str) -> bytes:
        """Fetch a blob. Raises BlobNotFoundError when absent."""

    @abc.abstractmethod
    def has(self, digest: str) -> bool:
        ...

    @abc.abstractmethod
    def size(self, digest: str) -> int:
        """Byte size of a stored blob (without reading it, when possible)."""

    @abc.abstractmethod
    def digests(self) -> Iterator[str]:
        """Iterate over all stored digests."""

    @abc.abstractmethod
    def delete(self, digest: str) -> None:
        """Remove a blob (raises BlobNotFoundError when absent). Used by
        registry garbage collection."""

    @abc.abstractmethod
    def put_at(self, digest: str, data: bytes) -> None:
        """Store *data* under *digest* WITHOUT verifying the content hashes
        to it. Two legitimate users: replica repair/sync writing bytes that
        were already digest-verified in hand (no point re-hashing twice per
        hop), and fault injection planting at-rest corruption for the
        scrubber to find. Everything else should use :meth:`put`."""

    def get_verified(self, digest: str) -> bytes:
        """Fetch and re-hash; raises DigestMismatchError on corruption."""
        data = self.get(digest)
        actual = sha256_bytes(data)
        if actual != digest:
            raise DigestMismatchError(expected=digest, actual=actual)
        return data

    def total_bytes(self) -> int:
        return sum(self.size(d) for d in self.digests())

    def count(self) -> int:
        return sum(1 for _ in self.digests())


class MemoryBlobStore(BlobStore):
    """Dict-backed store for tests and small materialized datasets."""

    def __init__(self) -> None:
        self._blobs: dict[str, bytes] = {}

    def put(self, data: bytes, *, digest: str | None = None) -> str:
        digest = digest or sha256_bytes(data)
        # Idempotent by construction: same content, same key.
        self._blobs.setdefault(digest, data)
        return digest

    def get(self, digest: str) -> bytes:
        parse_digest(digest)
        try:
            return self._blobs[digest]
        except KeyError:
            raise BlobNotFoundError(digest) from None

    def has(self, digest: str) -> bool:
        return digest in self._blobs

    def size(self, digest: str) -> int:
        return len(self.get(digest))

    def digests(self) -> Iterator[str]:
        return iter(list(self._blobs))

    def delete(self, digest: str) -> None:
        parse_digest(digest)
        if self._blobs.pop(digest, None) is None:
            raise BlobNotFoundError(digest)

    def put_at(self, digest: str, data: bytes) -> None:
        parse_digest(digest)
        self._blobs[digest] = data


class DiskBlobStore(BlobStore):
    """Sharded on-disk layout: ``<root>/sha256/<hex[:2]>/<hex>``.

    Writes go through a temp file + rename so a crashed write never leaves a
    truncated blob addressable. Each writer gets its own temp name: two
    concurrent writers of one digest then race only on the atomic rename,
    and either winner leaves the full content in place.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, digest: str) -> Path:
        algo, hexpart = parse_digest(digest)
        return self.root / algo / hexpart[:2] / hexpart

    def put(self, data: bytes, *, digest: str | None = None) -> str:
        digest = digest or sha256_bytes(data)
        path = self._path(digest)
        if not path.exists():
            self._write(path, data)
        return digest

    def _write(self, path: Path, data: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as out:
                out.write(data)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    def get(self, digest: str) -> bytes:
        path = self._path(digest)
        try:
            return path.read_bytes()
        except FileNotFoundError:
            raise BlobNotFoundError(digest) from None

    def has(self, digest: str) -> bool:
        return self._path(digest).exists()

    def size(self, digest: str) -> int:
        try:
            return self._path(digest).stat().st_size
        except FileNotFoundError:
            raise BlobNotFoundError(digest) from None

    def delete(self, digest: str) -> None:
        path = self._path(digest)
        try:
            path.unlink()
        except FileNotFoundError:
            raise BlobNotFoundError(digest) from None

    def put_at(self, digest: str, data: bytes) -> None:
        self._write(self._path(digest), data)

    def digests(self) -> Iterator[str]:
        for algo_dir in sorted(self.root.iterdir()):
            if not algo_dir.is_dir():
                continue
            for shard in sorted(algo_dir.iterdir()):
                for blob in sorted(shard.iterdir()):
                    if blob.suffix != ".tmp":
                        yield f"{algo_dir.name}:{blob.name}"
