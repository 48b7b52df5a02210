"""The registry proper: repositories, tags, manifests, blobs.

The method surface mirrors the Docker Registry HTTP API v2 that the paper's
downloader called directly: resolve a tag to a manifest, fetch the manifest,
fetch each referenced layer blob. Authentication is modeled as a per-
repository flag plus a token check, enough to reproduce the paper's 13 %
auth-failure population.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable

from repro.model.manifest import Manifest
from repro.model.repository import Repository
from repro.registry.blobstore import BlobStore, MemoryBlobStore
from repro.registry.errors import (
    AuthRequiredError,
    ManifestNotFoundError,
    RepositoryNotFoundError,
    TagNotFoundError,
)
from repro.registry.gc import Tombstones
from repro.util.digest import is_digest, sha256_bytes


def tag_key(repo_name: str, tag: str) -> str:
    """Key a (repository, tag) pair for time/tombstone maps.

    ``:`` is illegal in both repository names and tags, so the join is
    unambiguous."""
    return f"{repo_name}:{tag}"


class Registry:
    """An in-process Docker registry.

    Every mutation is stamped through an injectable *clock* (defaults to
    wall time; cluster exercises share one virtual clock across replicas),
    and every deletion leaves a TTL'd :class:`~repro.registry.gc.Tombstones`
    marker. The stamps and markers together give replication a
    last-writer-wins rule: a deletion beats any copy of the entity written
    before it, while a genuinely newer push beats the deletion."""

    def __init__(
        self,
        blobstore: BlobStore | None = None,
        *,
        clock: Callable[[], float] | None = None,
    ):
        self.blobs: BlobStore = blobstore if blobstore is not None else MemoryBlobStore()
        self._clock = clock or time.time
        self._repos: dict[str, Repository] = {}
        self._manifests: dict[str, bytes] = {}
        #: pull accounting: manifest fetches by repository name
        self.manifest_pulls: dict[str, int] = {}
        #: last-write stamps, used against tombstone times for LWW merges
        self.repo_times: dict[str, float] = {}
        self.tag_times: dict[str, float] = {}
        self.manifest_times: dict[str, float] = {}
        self.blob_times: dict[str, float] = {}
        #: deletion markers, merged (newest wins) by anti-entropy sync
        self.repo_tombstones = Tombstones()
        self.tag_tombstones = Tombstones()
        self.manifest_tombstones = Tombstones()
        self.blob_tombstones = Tombstones()

    def now(self) -> float:
        return self._clock()

    def set_tombstone_ttl(self, ttl_s: float) -> None:
        """Set the deletion-marker lifetime on all four tombstone sets."""
        for tombs in (
            self.repo_tombstones,
            self.tag_tombstones,
            self.manifest_tombstones,
            self.blob_tombstones,
        ):
            tombs.ttl_s = ttl_s

    def expire_tombstones(self, now: float | None = None) -> int:
        """Drop deletion markers past their TTL; returns how many went."""
        now = self._clock() if now is None else now
        return (
            self.repo_tombstones.expire(now)
            + self.tag_tombstones.expire(now)
            + self.manifest_tombstones.expire(now)
            + self.blob_tombstones.expire(now)
        )

    # -- repository management ------------------------------------------------

    def create_repository(
        self,
        name: str,
        *,
        pull_count: int = 0,
        requires_auth: bool = False,
    ) -> Repository:
        if name in self._repos:
            raise ValueError(f"repository already exists: {name!r}")
        repo = Repository(
            name=name, pull_count=pull_count, requires_auth=requires_auth
        )
        self._repos[name] = repo
        self.repo_times[name] = self._clock()
        self.repo_tombstones.discard(name)
        return repo

    def repository(self, name: str) -> Repository:
        try:
            return self._repos[name]
        except KeyError:
            raise RepositoryNotFoundError(name) from None

    def repositories(self) -> list[Repository]:
        return list(self._repos.values())

    def catalog(self) -> list[str]:
        """All repository names (the v2 ``/_catalog`` endpoint)."""
        return sorted(self._repos)

    # -- push side ---------------------------------------------------------------

    def push_manifest(self, repo_name: str, tag: str, manifest: Manifest) -> str:
        """Store a manifest and point ``repo:tag`` at it; returns its digest.

        A push is an intentional (re-)creation: it clears any tombstone on
        the tag, the manifest, and the referenced layers, and stamps the
        write time so the push beats earlier deletions in LWW merges."""
        repo = self.repository(repo_name)
        data = manifest.to_json()
        digest = sha256_bytes(data)
        now = self._clock()
        self._manifests[digest] = data
        repo.tags[tag] = digest
        key = tag_key(repo_name, tag)
        self.tag_times[key] = now
        self.tag_tombstones.discard(key)
        self.manifest_times[digest] = now
        self.manifest_tombstones.discard(digest)
        for layer_digest in manifest.layer_digests:
            self.blob_tombstones.discard(layer_digest)
        return digest

    def push_blob(self, data: bytes, *, digest: str | None = None) -> str:
        """Store a blob; *digest* is its SHA-256 when the caller already
        hashed it (the HTTP upload path verifies before it stores)."""
        digest = self.blobs.put(data, digest=digest)
        self.blob_times[digest] = self._clock()
        self.blob_tombstones.discard(digest)
        return digest

    # -- replication -------------------------------------------------------------

    def copy_into(self, other: "Registry", *, blobs: bool = True) -> dict[str, int]:
        """Copy this registry's full contents into *other* (idempotent).

        Used to stamp out replicas: repositories keep their auth flags and
        pull counts, manifests land verbatim, and blobs transfer without
        re-hashing (they were content-addressed on the way in). Existing
        repositories in *other* are updated in place, so the same call
        doubles as a crude one-way sync. Returns transfer accounting.

        ``blobs=False`` copies metadata only — anti-entropy sync uses it
        so blob transfer can go through its own digest-verified path.

        Deletions are first-class: tombstone knowledge merges into *other*
        before anything copies, and an entity only lands if its last write
        is newer than any deletion marker (ties go to the deletion, so
        copy-back never resurrects what another replica swept). *other*
        must still call :meth:`apply_tombstones` to enforce the merged
        markers against what it already holds.
        """
        other.repo_tombstones.merge(self.repo_tombstones)
        other.tag_tombstones.merge(self.tag_tombstones)
        other.manifest_tombstones.merge(self.manifest_tombstones)
        other.blob_tombstones.merge(self.blob_tombstones)

        repos = manifests = nblobs = 0
        for repo in self._repos.values():
            deleted_at = other.repo_tombstones.time_of(repo.name)
            created_at = self.repo_times.get(repo.name, 0.0)
            if deleted_at is not None and deleted_at >= created_at:
                continue  # the repository was deleted after this copy was made
            if repo.name in other._repos:
                target = other._repos[repo.name]
            else:
                target = other.create_repository(
                    repo.name,
                    pull_count=repo.pull_count,
                    requires_auth=repo.requires_auth,
                )
                # the copy carries the original creation stamp — stamping
                # the copy time would let a stale copy outrank a deletion
                # that happened before the sync ran
                other.repo_times[repo.name] = created_at
                repos += 1
            for tag, digest in repo.tags.items():
                key = tag_key(repo.name, tag)
                set_at = self.tag_times.get(key, 0.0)
                deleted_at = other.tag_tombstones.time_of(key)
                if deleted_at is not None and deleted_at >= set_at:
                    continue  # deletion is newer than this tag write
                if tag in target.tags and other.tag_times.get(key, 0.0) > set_at:
                    continue  # the destination's own write is newer
                target.tags[tag] = digest
        for digest, data in self._manifests.items():
            deleted_at = other.manifest_tombstones.time_of(digest)
            if deleted_at is not None and deleted_at >= self.manifest_times.get(
                digest, 0.0
            ):
                continue
            if digest not in other._manifests:
                other._manifests[digest] = data
                manifests += 1
        if blobs:
            for digest in self.blobs.digests():
                deleted_at = other.blob_tombstones.time_of(digest)
                if deleted_at is not None and deleted_at >= self.blob_times.get(
                    digest, 0.0
                ):
                    continue
                if not other.blobs.has(digest):
                    other.blobs.put_at(digest, self.blobs.get(digest))
                    nblobs += 1
        # write stamps merge last (max per key): the LWW comparisons above
        # needed the destination's *own* times, not the union.
        for src, dst in (
            (self.repo_times, other.repo_times),
            (self.tag_times, other.tag_times),
            (self.manifest_times, other.manifest_times),
            (self.blob_times, other.blob_times),
        ):
            for key, t in src.items():
                if t > dst.get(key, float("-inf")):
                    dst[key] = t
        return {"repositories": repos, "manifests": manifests, "blobs": nblobs}

    def apply_tombstones(self) -> dict[str, int]:
        """Enforce merged deletion markers against local state (LWW).

        Anything whose newest local write is not newer than its deletion
        marker is removed — the "deletion wins over copy-back" half of
        anti-entropy. Returns removal accounting; the blob removals are
        exactly the resurrections a plain union sync would have produced.
        """
        repos_removed = tags_removed = manifests_removed = blobs_removed = 0
        for name in list(self._repos):
            deleted_at = self.repo_tombstones.time_of(name)
            if deleted_at is None or deleted_at < self.repo_times.get(name, 0.0):
                continue
            repo = self._repos.pop(name)
            self.manifest_pulls.pop(name, None)
            self.repo_times.pop(name, None)
            for tag in repo.tags:
                self.tag_times.pop(tag_key(name, tag), None)
            repos_removed += 1
        for repo in self._repos.values():
            for tag in list(repo.tags):
                key = tag_key(repo.name, tag)
                deleted_at = self.tag_tombstones.time_of(key)
                if deleted_at is None or deleted_at < self.tag_times.get(key, 0.0):
                    continue
                del repo.tags[tag]
                self.tag_times.pop(key, None)
                tags_removed += 1
        for digest in list(self._manifests):
            deleted_at = self.manifest_tombstones.time_of(digest)
            if deleted_at is None or deleted_at < self.manifest_times.get(digest, 0.0):
                continue
            del self._manifests[digest]
            manifests_removed += 1
        for digest in list(self.blobs.digests()):
            if self.blob_deleted(digest):
                self.blobs.delete(digest)
                blobs_removed += 1
        return {
            "repositories_removed": repos_removed,
            "tags_removed": tags_removed,
            "manifests_removed": manifests_removed,
            "blobs_removed": blobs_removed,
        }

    def blob_deleted(self, digest: str) -> bool:
        """True when a deletion marker dominates the blob's last push."""
        deleted_at = self.blob_tombstones.time_of(digest)
        return deleted_at is not None and deleted_at >= self.blob_times.get(
            digest, 0.0
        )

    # -- deletion + garbage collection ------------------------------------------

    def delete_tag(self, repo_name: str, tag: str, *, token: str | None = None) -> None:
        """Remove a tag; the manifest/blobs linger until :meth:`collect_garbage`
        (registries separate untagging from space reclamation on purpose —
        concurrent pulls may still hold references). Leaves a tombstone so
        replication propagates the removal instead of undoing it."""
        repo = self.repository(repo_name)
        self._check_auth(repo, token)
        if tag not in repo.tags:
            raise TagNotFoundError(repo_name, tag)
        del repo.tags[tag]
        key = tag_key(repo_name, tag)
        self.tag_tombstones.add(key, self._clock())
        self.tag_times.pop(key, None)

    def delete_repository(self, name: str) -> None:
        """Drop a repository and all its tags (blobs await GC)."""
        repo = self.repository(name)  # raises if missing
        now = self._clock()
        for tag in repo.tags:
            key = tag_key(name, tag)
            self.tag_tombstones.add(key, now)
            self.tag_times.pop(key, None)
        self.repo_tombstones.add(name, now)
        self.repo_times.pop(name, None)
        del self._repos[name]
        self.manifest_pulls.pop(name, None)

    def delete_manifest(
        self, repo_name: str, reference: str, *, token: str | None = None
    ) -> dict[str, int]:
        """The v2 ``DELETE /v2/<name>/manifests/<ref>`` semantics.

        A tag reference deletes just that tag. A digest reference untags
        every tag in the repository pointing at it; the manifest bytes and
        blobs are left for :meth:`collect_garbage` — manifests are stored
        once and may be tagged by other repositories. Returns untag
        accounting."""
        repo = self.repository(repo_name)
        self._check_auth(repo, token)
        if not is_digest(reference):
            self.delete_tag(repo_name, reference)
            return {"untagged": 1}
        if reference not in self._manifests:
            raise ManifestNotFoundError(reference)
        doomed = [tag for tag, digest in repo.tags.items() if digest == reference]
        if not doomed:
            raise ManifestNotFoundError(reference)
        for tag in doomed:
            self.delete_tag(repo_name, tag)
        return {"untagged": len(doomed)}

    def collect_garbage(self) -> dict[str, int]:
        """Mark-and-sweep: drop manifests no tag references, then blobs no
        manifest references. Returns reclamation accounting.

        This is the classic quiet-registry form — no grace window, sweep
        now — implemented on the journaled collector so even the naive
        path leaves tombstones behind for replication. Concurrent-safe GC
        with grace windows and crash-resume lives in
        :class:`repro.registry.gc.GarbageCollector`."""
        from repro.registry.gc import GarbageCollector

        report = GarbageCollector(self, grace_s=0.0, clock=self._clock).collect()
        return {
            "manifests_deleted": report.manifests_deleted,
            "blobs_deleted": report.swept,
            "bytes_freed": report.bytes_reclaimed,
        }

    # -- pull side (the v2 API the downloader speaks) ------------------------------

    def _check_auth(self, repo: Repository, token: str | None) -> None:
        if repo.requires_auth and not token:
            raise AuthRequiredError(repo.name)

    def list_tags(self, repo_name: str, *, token: str | None = None) -> list[str]:
        """All tags in a repository (the v2 ``/tags/list`` endpoint)."""
        repo = self.repository(repo_name)
        self._check_auth(repo, token)
        return sorted(repo.tags)

    def resolve_tag(self, repo_name: str, tag: str, *, token: str | None = None) -> str:
        """Tag → manifest digest (a HEAD on ``/v2/<name>/manifests/<tag>``)."""
        repo = self.repository(repo_name)
        self._check_auth(repo, token)
        try:
            return repo.tags[tag]
        except KeyError:
            raise TagNotFoundError(repo_name, tag) from None

    def get_manifest_bytes(
        self, repo_name: str, reference: str, *, token: str | None = None
    ) -> tuple[str, bytes]:
        """Fetch a manifest by tag or digest as ``(digest, stored bytes)``;
        counts as a pull.

        The bytes are the manifest's canonical JSON exactly as pushed and
        the digest is their SHA-256, the key they are stored under, so a
        caller that only forwards them needs neither a parse nor a hash."""
        repo = self.repository(repo_name)
        self._check_auth(repo, token)
        digest = reference if is_digest(reference) else None
        if digest is None:
            try:
                digest = repo.tags[reference]
            except KeyError:
                raise TagNotFoundError(repo_name, reference) from None
        try:
            data = self._manifests[digest]
        except KeyError:
            raise ManifestNotFoundError(digest) from None
        self.manifest_pulls[repo_name] = self.manifest_pulls.get(repo_name, 0) + 1
        return digest, data

    def get_manifest(
        self, repo_name: str, reference: str, *, token: str | None = None
    ) -> Manifest:
        """Fetch a manifest by tag or digest; counts as a pull."""
        return Manifest.from_json(
            self.get_manifest_bytes(repo_name, reference, token=token)[1]
        )

    def get_blob(self, digest: str) -> bytes:
        """Fetch a layer/config blob by digest (blobs are not auth-scoped
        here; deduplicated cross-repo blob storage is why)."""
        return self.blobs.get(digest)

    def blob_size(self, digest: str) -> int:
        return self.blobs.size(digest)

    def has_blob(self, digest: str) -> bool:
        return self.blobs.has(digest)

    # -- stats -------------------------------------------------------------------------

    def manifest_count(self) -> int:
        return len(self._manifests)

    def manifest_digests(self) -> list[str]:
        """Digests of every stored manifest (tagged or not)."""
        return sorted(self._manifests)

    def manifest_bytes_or_none(self, digest: str) -> bytes | None:
        """Raw manifest bytes without pull accounting (GC and replication
        introspection — reads that should not perturb ``manifest_pulls``)."""
        return self._manifests.get(digest)

    def remove_manifest(self, digest: str) -> bool:
        """Drop stored manifest bytes by digest; returns whether it was held.

        Low-level (no tombstone, no tag checks) — the garbage collector is
        the caller and handles both."""
        if digest in self._manifests:
            del self._manifests[digest]
            self.manifest_times.pop(digest, None)
            return True
        return False

    def unique_layer_digests(self) -> set[str]:
        """Digests of all layers referenced by any stored manifest."""
        out: set[str] = set()
        for data in self._manifests.values():
            out.update(Manifest.from_json(data).layer_digests)
        return out

    def storage_bytes(self, digests: Iterable[str] | None = None) -> int:
        """Total blob bytes, optionally restricted to the given digests."""
        if digests is None:
            return self.blobs.total_bytes()
        return sum(self.blobs.size(d) for d in digests if self.blobs.has(d))
