"""Recipe + chunk-store layer storage.

Ingest: extract the layer tarball, store each file's content once (keyed by
its SHA-256) in a chunk store, and record a recipe — the ordered member
list with per-file content digests plus the bare directories the tarball
carried. Restore: rebuild the tarball from the recipe through the same
deterministic codec that produced it, so the restored blob hashes to the
original layer digest (verified round-trip).

Accounting distinguishes *logical* bytes (what a blob-per-layer registry
would store, uncompressed), *stored* bytes (unique chunk bytes), and the
implied savings — directly comparable to the paper's Fig. 24 capacity
numbers.
"""

from __future__ import annotations

import gzip
import json
from dataclasses import dataclass, field

from repro.model.layer import parent_dirs
from repro.registry.tarball import build_layer_tarball, iter_layer_members
from repro.util.digest import sha256_bytes


class ChunkStore:
    """Content-addressed file-chunk storage, keyed by the *raw* content's
    digest, with optional per-chunk gzip at rest.

    Not a :class:`~repro.registry.blobstore.BlobStore`: that contract hashes
    what it stores, whereas dedup must address by logical content regardless
    of the at-rest encoding.
    """

    def __init__(self, *, compress: bool = False):
        self.compress = compress
        self._chunks: dict[str, bytes] = {}

    def put(self, raw: bytes) -> tuple[str, bool, int]:
        """Store raw content; returns ``(digest, created, stored_bytes)``."""
        digest = sha256_bytes(raw)
        if digest in self._chunks:
            return digest, False, 0
        encoded = gzip.compress(raw, compresslevel=6) if self.compress else raw
        self._chunks[digest] = encoded
        return digest, True, len(encoded)

    def get(self, digest: str) -> bytes:
        encoded = self._chunks[digest]
        return gzip.decompress(encoded) if self.compress else encoded

    def has(self, digest: str) -> bool:
        return digest in self._chunks

    def delete(self, digest: str) -> None:
        del self._chunks[digest]

    def stored_bytes(self) -> int:
        return sum(len(v) for v in self._chunks.values())

    def digests(self) -> list[str]:
        return list(self._chunks)

    def corrupt_for_test(self, digest: str, data: bytes) -> None:
        """Deliberately corrupt a stored chunk (test hook)."""
        self._chunks[digest] = gzip.compress(data) if self.compress else data


@dataclass(frozen=True)
class LayerRecipe:
    """What it takes to rebuild a layer: members and their content keys."""

    layer_digest: str
    files: tuple[tuple[str, str], ...]  # (path, content digest), tar order
    extra_dirs: tuple[str, ...]  # bare directories with no files beneath

    def to_json(self) -> bytes:
        return json.dumps(
            {
                "layer_digest": self.layer_digest,
                "files": [list(f) for f in self.files],
                "extra_dirs": list(self.extra_dirs),
            },
            sort_keys=True,
        ).encode()

    @classmethod
    def from_json(cls, data: bytes) -> "LayerRecipe":
        doc = json.loads(data)
        return cls(
            layer_digest=doc["layer_digest"],
            files=tuple((p, d) for p, d in doc["files"]),
            extra_dirs=tuple(doc["extra_dirs"]),
        )


@dataclass(frozen=True)
class IngestResult:
    """Per-layer ingest accounting."""

    layer_digest: str
    file_count: int
    new_files: int  # chunks this layer introduced
    duplicate_files: int  # chunks already present registry-wide
    logical_bytes: int  # uncompressed member bytes (FLS)
    new_bytes: int  # chunk bytes actually written
    already_present: bool  # the exact layer was ingested before


@dataclass
class StoreStats:
    layers: int = 0
    file_occurrences: int = 0
    unique_files: int = 0
    logical_bytes: int = 0
    stored_bytes: int = 0
    recipe_bytes: int = 0

    @property
    def capacity_savings(self) -> float:
        """Fraction of logical bytes eliminated (paper Fig. 24/27 axis)."""
        if self.logical_bytes == 0:
            return 0.0
        return 1.0 - (self.stored_bytes + self.recipe_bytes) / self.logical_bytes

    @property
    def count_ratio(self) -> float:
        if self.unique_files == 0:
            return 0.0
        return self.file_occurrences / self.unique_files

    def as_dict(self) -> dict[str, float]:
        return {
            "layers": self.layers,
            "file_occurrences": self.file_occurrences,
            "unique_files": self.unique_files,
            "logical_bytes": self.logical_bytes,
            "stored_bytes": self.stored_bytes,
            "recipe_bytes": self.recipe_bytes,
            "capacity_savings": self.capacity_savings,
            "count_ratio": self.count_ratio,
        }


class DedupLayerStore:
    """File-level deduplicating layer storage.

    ``compress_chunks`` gzips each unique file at rest — the configuration a
    production registry would run, making stored bytes directly comparable
    to today's gzip'd layer blobs.
    """

    def __init__(self, chunks: ChunkStore | None = None, *, compress_chunks: bool = False):
        self.chunks: ChunkStore = (
            chunks if chunks is not None else ChunkStore(compress=compress_chunks)
        )
        self._recipes: dict[str, LayerRecipe] = {}
        self.stats = StoreStats()

    # -- write path ------------------------------------------------------------

    def ingest_layer(self, blob: bytes) -> IngestResult:
        """Store a gzip'd layer tarball, deduplicating its files."""
        layer_digest = sha256_bytes(blob)
        if layer_digest in self._recipes:
            recipe = self._recipes[layer_digest]
            return IngestResult(
                layer_digest=layer_digest,
                file_count=len(recipe.files),
                new_files=0,
                duplicate_files=len(recipe.files),
                logical_bytes=0,
                new_bytes=0,
                already_present=True,
            )

        # walked to the end before any chunk is stored: a blob that fails its
        # CRC on the last read must leave no chunks behind
        walked = list(iter_layer_members(blob))
        members: list[tuple[str, str]] = []
        new_files = 0
        duplicate_files = 0
        logical = 0
        new_bytes = 0
        implied_dirs: set[str] = set()
        tar_dirs: set[str] = set()
        for path, content in walked:
            if content is None:
                tar_dirs.add(path)
                continue
            implied_dirs.update(parent_dirs(path))
            logical += len(content)
            digest, created, stored = self.chunks.put(content)
            if created:
                new_files += 1
                new_bytes += stored
            else:
                duplicate_files += 1
            members.append((path, digest))

        extra_dirs = tuple(sorted(tar_dirs - implied_dirs))
        recipe = LayerRecipe(
            layer_digest=layer_digest,
            files=tuple(members),
            extra_dirs=extra_dirs,
        )
        self._recipes[layer_digest] = recipe

        self.stats.layers += 1
        self.stats.file_occurrences += len(members)
        self.stats.unique_files += new_files
        self.stats.logical_bytes += logical
        self.stats.stored_bytes += new_bytes
        self.stats.recipe_bytes += len(recipe.to_json())
        return IngestResult(
            layer_digest=layer_digest,
            file_count=len(members),
            new_files=new_files,
            duplicate_files=duplicate_files,
            logical_bytes=logical,
            new_bytes=new_bytes,
            already_present=False,
        )

    # -- read path ----------------------------------------------------------------

    def has_layer(self, layer_digest: str) -> bool:
        return layer_digest in self._recipes

    def recipe(self, layer_digest: str) -> LayerRecipe:
        try:
            return self._recipes[layer_digest]
        except KeyError:
            raise KeyError(f"no recipe for layer {layer_digest}") from None

    def restore_layer(self, layer_digest: str, *, verify: bool = True) -> bytes:
        """Rebuild the layer tarball from its recipe.

        With ``verify`` (default) the restored bytes are hashed and checked
        against the recorded layer digest — end-to-end integrity over both
        the recipe and every chunk.
        """
        recipe = self.recipe(layer_digest)
        files = [(path, self.chunks.get(digest)) for path, digest in recipe.files]
        blob = build_layer_tarball(files, extra_dirs=list(recipe.extra_dirs))
        if verify and sha256_bytes(blob) != layer_digest:
            raise ValueError(
                f"restore of {layer_digest} did not reproduce the original "
                "bytes (layer not produced by the deterministic codec?)"
            )
        return blob

    def layer_digests(self) -> list[str]:
        return list(self._recipes)

    # -- deletion + chunk GC -------------------------------------------------------

    def delete_layer(self, layer_digest: str) -> None:
        """Drop a recipe; shared chunks linger until :meth:`collect_chunks`."""
        if layer_digest not in self._recipes:
            raise KeyError(f"no recipe for layer {layer_digest}")
        del self._recipes[layer_digest]

    def collect_chunks(self) -> dict[str, int]:
        """Mark-and-sweep chunks no recipe references."""
        live: set[str] = set()
        for recipe in self._recipes.values():
            live.update(digest for _, digest in recipe.files)
        dead = [d for d in self.chunks.digests() if d not in live]
        freed = 0
        for digest in dead:
            freed += len(self.chunks.get(digest))
            self.chunks.delete(digest)
        return {"chunks_deleted": len(dead), "bytes_freed": freed}
