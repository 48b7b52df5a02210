"""Docker registry substrate.

An in-process registry faithful to the concepts the paper's tooling relied
on: content-addressable blob storage, schema-v2 manifests addressed by tag or
digest, a repository catalog, and the Docker Hub web search engine (complete
with the duplicate-entry quirk the paper's crawler had to deduplicate).
"""

from repro.registry.blobstore import BlobStore, DiskBlobStore, MemoryBlobStore
from repro.registry.errors import (
    AuthRequiredError,
    BlobNotFoundError,
    DigestMismatchError,
    ManifestNotFoundError,
    RegistryError,
    RepositoryNotFoundError,
    TagNotFoundError,
)
from repro.registry.gc import (
    ClusterGCTarget,
    GarbageCollector,
    GCInterrupted,
    GCReport,
    Tombstones,
)
from repro.registry.http import HTTPSearchClient, HTTPSession, RegistryHTTPServer
from repro.registry.registry import Registry
from repro.registry.search import HubSearchEngine, SearchPage
from repro.registry.tarball import (
    LayerFormatError,
    build_layer_tarball,
    extract_layer_tarball,
    iter_layer_files,
    iter_layer_members,
    layer_from_files,
)

__all__ = [
    "AuthRequiredError",
    "BlobNotFoundError",
    "BlobStore",
    "ClusterGCTarget",
    "DigestMismatchError",
    "DiskBlobStore",
    "GCInterrupted",
    "GCReport",
    "GarbageCollector",
    "HTTPSearchClient",
    "HTTPSession",
    "HubSearchEngine",
    "LayerFormatError",
    "RegistryHTTPServer",
    "ManifestNotFoundError",
    "MemoryBlobStore",
    "Registry",
    "RegistryError",
    "RepositoryNotFoundError",
    "SearchPage",
    "TagNotFoundError",
    "Tombstones",
    "build_layer_tarball",
    "extract_layer_tarball",
    "iter_layer_files",
    "iter_layer_members",
    "layer_from_files",
]
