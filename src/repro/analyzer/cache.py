"""A disk-backed, content-addressed cache of layer profiles.

The paper's layer-sharing result (§V-A) is the whole justification: most
layers recur across images (a 1.8x saving for the registry), and
longitudinal studies re-analyze the same corpus repeatedly — so a layer
profiled once should never pay extraction again. The cache maps

    (layer digest, catalog version)  ->  LayerProfile

where the catalog version is :meth:`TypeCatalog.version`: change the type
taxonomy and every old entry silently misses instead of serving profiles
typed under a dead catalog.

Keying, framing, and corrupt-discard-delete semantics are the shared
:class:`~repro.util.entrycache.SelfVerifyingCache` machinery (also behind
:class:`~repro.scan.cache.ScanCache`). Inject the rot this guards against
with :func:`repro.faults.corrupt_at_rest` on :attr:`ProfileCache.store`.

The entry body (format v2) is a binary frame that decodes straight into
:class:`LayerProfile`'s columns, in this order:

* a ``struct`` header of eight little-endian ``int64``: CLS, FLS, file
  count, directory count, max depth, number of file rows, number of
  directory rows, byte length of the string blob;
* the numeric columns, little-endian: file sizes (``int64``), file type
  codes (``int32``), directory depths (``int32``), directory file counts
  (``int64``);
* one NUL-joined UTF-8 string blob (``surrogatepass``, so any path a tar
  walk yields survives): the layer digest, the file digests, the file
  paths, the directory paths.

Decoding is one ``struct`` unpack, four ``array`` reads and one split of
the string blob — no per-entry Python loop. Any length or string-count
mismatch raises, so the entry is discarded like any other rot. v1 bodies
were JSON documents; the magic is part of the key, so v1 entries are
plain misses under v2, never decode errors.
"""

from __future__ import annotations

import struct
import sys
from array import array
from pathlib import Path

from repro.analyzer.profiles import LayerProfile
from repro.filetypes.catalog import TypeCatalog, default_catalog
from repro.obs import MetricsRegistry
from repro.registry.blobstore import BlobStore
from repro.util.entrycache import EntryCacheStats, SelfVerifyingCache

_MAGIC = b"repro-profile-cache/v2"

#: CLS, FLS, file count, dir count, max depth, file rows, dir rows, blob bytes
_HEADER = struct.Struct("<8q")
#: bytes per file row and per directory row of the numeric columns
_ROW_BYTES = array("q").itemsize + array("i").itemsize
_SWAP = sys.byteorder != "little"
_ENCODING = ("utf-8", "surrogatepass")


def _pack_column(typecode: str, values: list[int]) -> bytes:
    column = array(typecode, values)
    if _SWAP:
        column.byteswap()
    return column.tobytes()


def _unpack_column(
    typecode: str, view: memoryview, offset: int, n: int
) -> tuple[list[int], int]:
    """The *n* values at *offset*, and the offset just past them."""
    column = array(typecode)
    end = offset + column.itemsize * n
    column.frombytes(view[offset:end])
    if _SWAP:
        column.byteswap()
    return column.tolist(), end


#: historical name — the profile cache predates the shared stats record.
ProfileCacheStats = EntryCacheStats


class ProfileCache(SelfVerifyingCache):
    """Persistent (layer digest, catalog version) -> profile cache.

    ``root_or_store`` is either a directory (a :class:`DiskBlobStore` is
    created under it) or any ready-made :class:`BlobStore`. The catalog
    version defaults to the default catalog's; pass ``catalog`` for a
    custom taxonomy or ``catalog_version`` to pin the string directly
    (tests, forward-compat migrations).
    """

    MAGIC = _MAGIC
    METRIC_PREFIX = "profile_cache"

    def __init__(
        self,
        root_or_store: str | Path | BlobStore,
        *,
        catalog: TypeCatalog | None = None,
        catalog_version: str | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        if catalog_version is None:
            catalog_version = (catalog or default_catalog()).version()
        super().__init__(root_or_store, version=catalog_version, metrics=metrics)

    @property
    def catalog_version(self) -> str:
        """The type-taxonomy generation this cache's entries were typed under."""
        return self.version

    # -- codec hooks ----------------------------------------------------------

    def _encode_body(self, profile: LayerProfile) -> bytes:
        n_files = len(profile.file_paths)
        n_dirs = len(profile.dir_paths)
        strings = "\0".join(
            [
                profile.digest,
                *profile.file_digests,
                *profile.file_paths,
                *profile.dir_paths,
            ]
        ).encode(*_ENCODING)
        if strings.count(0) != 2 * n_files + n_dirs:
            raise ValueError(
                f"layer {profile.digest}: a string holds NUL or the columns disagree"
            )
        header = _HEADER.pack(
            profile.compressed_size,
            profile.files_size,
            profile.file_count,
            profile.directory_count,
            profile.max_depth,
            n_files,
            n_dirs,
            len(strings),
        )
        return b"".join(
            (
                header,
                _pack_column("q", profile.file_sizes),
                _pack_column("i", profile.file_types),
                _pack_column("i", profile.dir_depths),
                _pack_column("q", profile.dir_file_counts),
                strings,
            )
        )

    def _decode_body(self, body: bytes) -> LayerProfile:
        cls, fls, file_count, dir_count, max_depth, n_files, n_dirs, n_bytes = (
            _HEADER.unpack_from(body)
        )
        if min(n_files, n_dirs, n_bytes) < 0 or len(body) != (
            _HEADER.size + _ROW_BYTES * (n_files + n_dirs) + n_bytes
        ):
            raise ValueError("profile body length does not match its header")
        view = memoryview(body)
        file_sizes, at = _unpack_column("q", view, _HEADER.size, n_files)
        file_types, at = _unpack_column("i", view, at, n_files)
        dir_depths, at = _unpack_column("i", view, at, n_dirs)
        dir_file_counts, at = _unpack_column("q", view, at, n_dirs)
        strings = str(view[at:], *_ENCODING).split("\0")
        if len(strings) != 1 + 2 * n_files + n_dirs:
            raise ValueError("profile body string count does not match its header")
        paths_at = 1 + n_files
        dirs_at = paths_at + n_files
        return LayerProfile(
            digest=strings[0],
            compressed_size=cls,
            files_size=fls,
            file_count=file_count,
            directory_count=dir_count,
            max_depth=max_depth,
            file_paths=strings[paths_at:dirs_at],
            file_digests=strings[1:paths_at],
            file_sizes=file_sizes,
            file_types=file_types,
            dir_paths=strings[dirs_at:],
            dir_depths=dir_depths,
            dir_file_counts=dir_file_counts,
        )

    def _digest_of(self, profile: LayerProfile) -> str:
        return profile.digest
